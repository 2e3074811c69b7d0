"""Numerical certification of operator inequalities and exact identities.

The certifier answers one kind of question: what is the smallest constant
c such that c * (sum of right-hand operators) dominates a given left-hand
operator in the positive-semidefinite order, on the truncated excitation
space actually built.  Constants found this way are finite and reported
with the truncation parameters; they are not claimed to bound anything in
the untruncated limit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.linalg import eigh, eigvalsh

from .errors import ConfigError, ConsistencyError
from .fock import FockBasis, LinearOperator, number_operator
from .kernels import GPParameters, RenormPotential, omega_lattice_sum

PSD_SLACK = 1e-9
UNBOUNDED_CAP = 1e6


@dataclass
class InequalityReport:
    statement: str
    constant: float
    min_eigenvalue: float
    dim: int
    cap: int
    passed: bool
    tolerance: float
    number_profile: list = field(default_factory=list)
    notes: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _scale(mat: np.ndarray) -> float:
    s = float(np.max(np.abs(mat)))
    return s if s > 0 else 1.0


def smallest_eigenpair(mat: np.ndarray):
    vals, vecs = eigh(mat, subset_by_index=[0, 0])
    return float(vals[0]), vecs[:, 0]


def min_constant(lhs: LinearOperator, rhs_terms, statement: str,
                 cap: int = 0, rel_tol: float = 1e-3) -> InequalityReport:
    """Smallest c >= 0 with c * sum(rhs) - lhs >= -slack, by PSD bisection."""
    for t in rhs_terms:
        if t.mat.shape != lhs.mat.shape:
            raise ConfigError("operator dimensions differ")
    lhs_m = lhs.mat
    rhs_m = sum(t.mat for t in rhs_terms)
    slack = PSD_SLACK * _scale(lhs_m)

    def min_eig(c: float) -> float:
        return float(eigvalsh(c * rhs_m - lhs_m)[0])

    if min_eig(0.0) >= -slack:
        ev, vec = smallest_eigenpair(-lhs_m)
        return InequalityReport(statement, 0.0, ev, lhs.dim, cap, True,
                                slack, _profile(vec))

    hi = 1.0
    while min_eig(hi) < -slack:
        hi *= 2.0
        if hi > UNBOUNDED_CAP:
            return InequalityReport(statement, math.inf, min_eig(hi / 2),
                                    lhs.dim, cap, False, slack,
                                    notes="no certificate below 1e6")
    lo = hi / 2.0 if hi > 1.0 else 0.0
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if min_eig(mid) >= -slack:
            hi = mid
        else:
            lo = mid
    ev, vec = smallest_eigenpair(hi * rhs_m - lhs_m)
    return InequalityReport(statement, hi, ev, lhs.dim, cap, ev >= -slack,
                            slack, _profile(vec))


def _profile(vec: np.ndarray) -> list:
    return [float(x) for x in np.abs(vec[: min(len(vec), 8)]) ** 2]


def number_profile(vec: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Probability mass of a vector per total occupation number."""
    totals = basis.totals()
    out = np.zeros(basis.cap + 1)
    np.add.at(out, totals, np.abs(vec) ** 2)
    return out


def smooth_partition(x):
    """Partition pair (f, g) with f = 1 below 1/2, f = 0 above 1.

    Built as cosine/sine of a smoothstep angle so f^2 + g^2 = 1 holds to
    machine precision at every point.
    """
    x = np.asarray(x, float)
    u = np.clip(2.0 * x - 1.0, 0.0, 1.0)
    theta = 0.5 * np.pi * (3.0 * u ** 2 - 2.0 * u ** 3)
    return np.cos(theta), np.sin(theta)


@dataclass
class LocalizationReport:
    identity_residual: float
    theta_constant: float
    theta_pass: bool
    M: float
    dim: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def localization_check(R_eff: LinearOperator, basis: FockBasis, M: float,
                       H_N: LinearOperator, params: GPParameters,
                       partition=smooth_partition) -> LocalizationReport:
    """Double-commutator localization of R_eff in the occupation number.

    Verifies the exact identity
      R = f R f + g R g + (1/2)([f,[f,R]] + [g,[g,R]])
    for the diagonal cutoff pair f(n/M), g(n/M), then certifies that the
    double-commutator remainder is controlled by (log N / M^2)(H_N + 1).
    """
    x = basis.totals() / M
    fv, gv = partition(x)
    if np.max(np.abs(fv ** 2 + gv ** 2 - 1.0)) > 1e-12:
        raise ConsistencyError("partition pair does not square to one")
    F = np.diag(fv)
    G = np.diag(gv)
    R = R_eff.mat

    def dbl(Dmat):
        inner = Dmat @ R - R @ Dmat
        return Dmat @ inner - inner @ Dmat

    theta = 0.5 * (dbl(F) + dbl(G))
    recon = F @ R @ F + G @ R @ G + theta
    residual = float(np.max(np.abs(recon - R)))

    scale = math.log(params.N) / M ** 2
    bound = LinearOperator(scale * (H_N.mat + np.eye(basis.dim)), "scaled-H",
                           hermitian=True)
    theta_op = LinearOperator(theta, "Theta_M", hermitian=True)
    rep_plus = min_constant(theta_op, [bound], "theta-upper", basis.cap)
    theta_neg = LinearOperator(-theta, "-Theta_M", hermitian=True)
    rep_minus = min_constant(theta_neg, [bound], "theta-lower", basis.cap)
    const = max(rep_plus.constant, rep_minus.constant)
    return LocalizationReport(residual, const,
                              rep_plus.passed and rep_minus.passed,
                              M, basis.dim)


def condensation_lower_bound(R_eff: LinearOperator, H_N: LinearOperator,
                             basis: FockBasis, renorm: RenormPotential,
                             params: GPParameters,
                             c: float = 0.1) -> InequalityReport:
    """Certified constant in the occupation-controlled lower bound

      R_eff >= 2 pi N + (omega0/2) Nplus + (c/log N) H_N
               - C ((log N)^2 Nplus^2 / N + 1).
    """
    N = params.N
    logN = math.log(N)
    npl = number_operator(basis).mat
    eye = np.eye(basis.dim)
    lhs_mat = (2.0 * np.pi * N * eye + 0.5 * renorm.omega0 * npl
               + (c / logN) * H_N.mat - R_eff.mat)
    lhs = LinearOperator(lhs_mat, "LB-deficit", hermitian=True)
    rhs = LinearOperator((logN ** 2 / N) * (npl @ npl) + eye, "penalty",
                         hermitian=True)
    rep = min_constant(lhs, [rhs], "condensation-lower-bound", basis.cap)
    rep.notes = (f"N={N} is desk scale; the bound is proved for large N, "
                 f"small-N certificates may need larger constants")
    return rep


def square_completion_check(renorm: RenormPotential, params: GPParameters,
                            c: float = 0.1) -> dict:
    """Scalar ingredients of the lower-bound proof.

    Checks |omega(p)|^2 / (4 (1 - mu) p^2) <= omega0 / 2 on the lattice
    with mu = c / log N, and reports the lattice sum
    S = (1/4) sum |omega(p)|^2/p^2 against 2 pi alpha log N.
    """
    mu = c / math.log(params.N)
    p2 = renorm.lattice.norms2
    lhs = np.abs(renorm.omega) ** 2 / (4.0 * (1.0 - mu) * p2)
    worst = float(np.max(lhs - 0.5 * renorm.omega0))
    S = omega_lattice_sum(renorm, params)
    return {
        "mu": mu,
        "scalar_margin": worst,
        "scalar_pass": bool(worst <= 1e-12),
        "lattice_sum": S,
        "lattice_sum_minus_log": S - 2.0 * np.pi * params.alpha
        * math.log(params.N),
    }


@dataclass
class ParetoReport:
    c_values: list
    C_values: list
    statement: str = "occupation-growth-shape"

    def best_pair(self):
        i = int(np.argmin(self.C_values))
        return self.c_values[i], self.C_values[i]

    def to_json(self) -> str:
        return json.dumps({"statement": self.statement,
                           "c": self.c_values, "C": self.C_values},
                          sort_keys=True)


def gn_condensation_shape(G: LinearOperator, basis: FockBasis,
                          params: GPParameters,
                          c_grid=None) -> ParetoReport:
    """Trade-off front for G - 2 pi N >= c * Nplus - C.

    For each occupation coefficient c, the minimal admissible C is minus
    the smallest eigenvalue of G - 2 pi N - c * Nplus (clipped at zero).
    """
    if c_grid is None:
        c_grid = np.linspace(0.0, (2.0 * np.pi) ** 2, 25)
    npl = number_operator(basis).mat
    eye = np.eye(basis.dim)
    base = G.mat - 2.0 * np.pi * params.N * eye
    cs, Cs = [], []
    for c in np.asarray(c_grid, float):
        ev = float(eigvalsh(base - c * npl)[0])
        cs.append(float(c))
        Cs.append(max(0.0, -ev))
    return ParetoReport(cs, Cs)


def depletion_chain_check(G: LinearOperator, basis: FockBasis,
                          params: GPParameters, c: float,
                          C: float) -> dict:
    """Ground-vector consistency of the certified occupation bound."""
    ev, vec = smallest_eigenpair(G.mat)
    npl = number_operator(basis).mat
    n_exp = float(np.real(np.vdot(vec, npl @ vec)))
    bound = (ev - 2.0 * np.pi * params.N + C) / c if c > 0 else math.inf
    return {"n_expectation": n_exp, "bound": bound,
            "pass": bool(n_exp <= bound + 1e-9)}

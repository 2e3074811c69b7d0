"""Numerical certification of operator inequalities and exact identities.

The certifier answers one kind of question: what is the smallest constant
c such that c * (sum of right-hand operators) dominates a given left-hand
operator in the positive-semidefinite order, on the truncated excitation
space actually built.  Constants found this way are finite and reported
with the truncation parameters; they are not claimed to bound anything in
the untruncated limit.

Operators are handled block by block: the spectrum of an operator is the
union of its blocks' spectra, and each size class of blocks is one batched
eigensolve.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np
from numpy.linalg import LinAlgError, cholesky, eigh, eigvalsh, solve

from .errors import ConsistencyError
from .fock import (FockBasis, LinearOperator, combine, common,
                   diagonal_in_total, number_operator)
from .kernels import GPParameters, RenormPotential, omega_lattice_sum

PSD_SLACK = 1e-9


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


def _identity(basis: FockBasis) -> LinearOperator:
    return diagonal_in_total(basis, lambda n: 1.0, "1")


def _scale(op: LinearOperator) -> float:
    s = max(float(np.max(np.abs(b))) for b in op.blocks)
    return s if s > 0 else 1.0


def smallest_eigenpair(op: LinearOperator):
    return op.lowest(eigh)


def _min_eigenvalue(op: LinearOperator) -> float:
    return min(float(eigvalsh(b)[:, 0].min()) for b in op.blocks)


def _pencil_top(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Largest eigenvalue over a stack of pencils (lhs, rhs) with rhs
    positive definite: that of L^-1 lhs L^-H for rhs = L L^H.  Raises
    LinAlgError where some rhs is not positive definite."""
    low = cholesky(rhs)
    half = solve(low, lhs)                                   # L^-1 lhs
    white = solve(low, np.swapaxes(half, -1, -2).conj())     # ... L^-H
    return float(eigvalsh(white)[:, -1].max())


def min_constant(lhs: LinearOperator, rhs_terms, statement: str,
                 cap: int = 0) -> InequalityReport:
    """Smallest c >= 0 with c * sum(rhs) - lhs >= -slack.

    When lhs <= slack already, c = 0.  Otherwise c is the top eigenvalue
    of the pencil (lhs, rhs), one whitened eigensolve per size class, and
    is certified by one more eigensolve of c * rhs - lhs.  A rhs that is
    not positive definite gets no finite constant.
    """
    lhs, rhs = common(lhs, combine([(1.0, t) for t in rhs_terms], "rhs"))
    slack = PSD_SLACK * _scale(lhs)

    def shifted(c: float) -> LinearOperator:
        return combine([(c, rhs), (-1.0, lhs)], "shifted")

    ev, vec = smallest_eigenpair(shifted(0.0))
    if ev >= -slack:
        return InequalityReport(statement, 0.0, ev, lhs.dim, cap, True,
                                slack, _profile(vec))
    try:
        c = max(0.0, max(_pencil_top(a, b)
                         for a, b in zip(lhs.blocks, rhs.blocks)))
    except LinAlgError:
        return InequalityReport(statement, math.inf, ev, lhs.dim, cap,
                                False, slack,
                                notes="rhs is not positive definite and "
                                      "lhs is not <= 0: no finite constant")
    ev, vec = smallest_eigenpair(shifted(c))
    return InequalityReport(statement, c, ev, lhs.dim, cap, ev >= -slack,
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
                       H_N: LinearOperator,
                       params: GPParameters) -> LocalizationReport:
    """Double-commutator localization of R_eff in the occupation number.

    Verifies the exact identity
      R = f R f + g R g + (1/2)([f,[f,R]] + [g,[g,R]])
    for the diagonal cutoff pair f(n/M), g(n/M), then certifies that the
    double-commutator remainder is controlled by (log N / M^2)(H_N + 1).
    """
    x = basis.totals() / M
    fv, gv = smooth_partition(x)
    if np.max(np.abs(fv ** 2 + gv ** 2 - 1.0)) > 1e-12:
        raise ConsistencyError("partition pair does not square to one")

    def dbl(d, blk):
        # [D, [D, R]] for D = diag(d): the block entries times the
        # difference of the diagonal at their row and column, twice
        left, right = d[:, :, None], d[:, None, :]
        inner = left * blk - blk * right
        return left * inner - inner * right

    theta, residual = [], 0.0
    for idx, blk in zip(R_eff.part.classes, R_eff.blocks):
        f, g = fv[idx], gv[idx]
        th = 0.5 * (dbl(f, blk) + dbl(g, blk))
        recon = (f[:, :, None] * blk * f[:, None, :]
                 + g[:, :, None] * blk * g[:, None, :] + th)
        residual = max(residual, float(np.max(np.abs(recon - blk))))
        theta.append(th)

    scale = math.log(params.N) / M ** 2
    bound = combine([(scale, H_N), (scale, _identity(basis))], "scaled-H",
                    hermitian=True)
    theta_op = LinearOperator.from_blocks(R_eff.part, theta, "Theta_M",
                                          hermitian=True)
    rep_plus = min_constant(theta_op, [bound], "theta-upper", basis.cap)
    theta_neg = combine([(-1.0, theta_op)], "-Theta_M", hermitian=True)
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
    one = _identity(basis)
    lhs = combine([(2.0 * np.pi * N, one),
                   (0.5 * renorm.omega0, number_operator(basis)),
                   (c / logN, H_N), (-1.0, R_eff)], "LB-deficit",
                  hermitian=True)
    npl2 = diagonal_in_total(basis, lambda n: n * n, "N+^2")
    rhs = combine([(logN ** 2 / N, npl2), (1.0, one)], "penalty",
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
    S = omega_lattice_sum(renorm)
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
    npl = number_operator(basis)
    base = combine([(1.0, G), (-2.0 * np.pi * params.N, _identity(basis))],
                   "G-2piN")
    cs, Cs = [], []
    for c in np.asarray(c_grid, float):
        ev = _min_eigenvalue(combine([(1.0, base), (-c, npl)], "shape"))
        cs.append(float(c))
        Cs.append(max(0.0, -ev))
    return ParetoReport(cs, Cs)


def depletion_chain_check(G: LinearOperator, basis: FockBasis,
                          params: GPParameters, c: float,
                          C: float) -> dict:
    """Ground-vector consistency of the certified occupation bound."""
    ev, vec = smallest_eigenpair(G)
    n_exp = float(basis.totals() @ np.abs(vec) ** 2)
    bound = (ev - 2.0 * np.pi * params.N + C) / c if c > 0 else math.inf
    return {"n_expectation": n_exp, "bound": bound,
            "pass": bool(n_exp <= bound + 1e-9)}

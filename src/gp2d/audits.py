"""Numerical certification of operator inequalities and exact identities.

The exact identities are the commutators of the modified ladder
operators and the conjugation rules of the excitation map U_N, each
audited as the largest entry of an operator that must vanish.

The certifier answers one kind of question: what is the smallest constant
c such that c * (sum of right-hand operators) dominates a given left-hand
operator in the positive-semidefinite order, on the truncated excitation
space actually built.  Constants found this way are finite and reported
with the truncation parameters; they are not claimed to bound anything in
the untruncated limit.

Operators are handled block by block: the spectrum of an operator is the
union of its blocks' spectra, and each size class of blocks is one batched
eigensolve.  On an orbit partition (``fock.FockBasis.orbits``) each stored
block stands for every sector of its orbit, whose blocks are its own with
the states permuted, so the stored blocks alone carry every extreme
eigenvalue and constant.
"""

from __future__ import annotations

import json
import math
from itertools import chain, islice, product
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, cholesky, eigh, eigvalsh, solve

from .errors import ConfigError, ConsistencyError
from .fock import (FockBasis, LinearOperator, _entries, _largest_sums,
                   build_operator, combine, common, largest_entries)
from .kernels import GPParameters, RenormPotential, omega_lattice_sum

PSD_SLACK = 1e-9


class InequalityReport(NamedTuple):
    statement: str
    constant: float
    min_eigenvalue: float
    dim: int
    cap: int
    passed: bool
    tolerance: float
    # |v_i|^2 at the first 8 basis states (ordered by total occupation,
    # vacuum first) of the lowest eigenvector of C * rhs - lhs: not a
    # distribution over Nplus
    number_profile: tuple = ()
    notes: str = ""

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True)


def _scale(op: LinearOperator) -> float:
    s = max(float(np.max(np.abs(b))) for b in op.blocks)
    return s if s > 0 else 1.0


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

    ev, vec = shifted(0.0).lowest(eigvalsh, eigh)
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
    ev, vec = shifted(c).lowest(eigvalsh, eigh)
    return InequalityReport(statement, c, ev, lhs.dim, cap, ev >= -slack,
                            slack, _profile(vec))


def _profile(vec: np.ndarray) -> tuple:
    return tuple(float(x) for x in np.abs(vec[: min(len(vec), 8)]) ** 2)


def commutator_residual(basis: FockBasis) -> float:
    """Largest entry of [b_p, b*_q] - delta_pq (1 - Nplus/N) + a*_q a_p / N
    and of [b_p, b_q] over all mode pairs, N = basis.cap: the 2 m^2
    identities summed over their nonzero entries by one
    ``largest_entries`` call."""
    N, n = basis.cap, basis.totals()
    identities = []
    for p, q in product(range(basis.n_modes), repeat=2):
        identities += [([(1.0, [("b", p), ("bd", q)]),
                         (-1.0, [("bd", q), ("b", p)]),
                         (1.0 / N, [("ad", q), ("a", p)])],
                        n / N - 1.0 if p == q else None),
                       ([(1.0, [("b", p), ("b", q)]),
                         (-1.0, [("b", q), ("b", p)])], None)]
    return float(largest_entries(basis, identities).max(initial=0.0))


def unitary_excitation_map(basis: FockBasis) -> dict:
    """Audit U_N, N = basis.cap, on the basis alone: the residuals of
    unitarity and of the four conjugation rules

      U a*_0 a_0 U* = N - N+,   U a*_p a_0 U* = sqrt(N) b*_p,
      U a*_0 a_p U* = sqrt(N) b_p,   U a*_p a_q U* = a*_p a_q,

    each the largest entry of the sector side minus its ladder form,
    summed over their nonzero entries.  Returns these five residuals
    alone; the reader holds them to its own tolerance.

    The symmetric N-particle states are the rows (n0, n_1, ..., n_m) with
    n0 = N - sum n_i, slot 0 the zero mode, and U_N sends |n0, vec n> to
    the excitation state |vec n>.  So a*_i a_j on the sector moves one
    particle from slot j to slot i, and its image raises the state's key
    by W[i] - W[j], W the key weights with 0 for the zero mode, which has
    no digit.  The radix is cap + 1 and every image has total <= N, so no
    digit carries.  The sector sides of all rules come from one ``find``
    and go first into one keyed sum (``_largest_sums``), then the ladder
    forms from one walk.
    """
    N = basis.cap
    weights, keys = basis._keys[:2]
    found = basis.find(keys)
    occ = np.hstack((N - basis.totals()[:, None], basis.states))
    idx, root = range(basis.n_modes), math.sqrt(N)
    # each rule: (i, j) of a*_i a_j and its ladder form (terms, diagonal)
    rules = {
        "rule_n0": [(0, 0, ([], N - basis.totals().astype(float)))],
        "rule_create": [(i + 1, 0, ([(root, [("bd", i)])], None))
                        for i in idx],
        "rule_annihilate": [(0, i + 1, ([(root, [("b", i)])], None))
                            for i in idx],
        "rule_hop": [(i + 1, j + 1, ([(1.0, [("ad", i), ("a", j)])], None))
                     for i, j in product(idx, repeat=2)],
    }
    every = list(chain.from_iterable(rules.values()))
    pairs = np.array([(i, j) for i, j, _ in every])
    # a*_i a_j acts on the sector rows with n_j > 0, in basis order
    occupied = [np.flatnonzero(column) for column in occ.T]
    owner = np.repeat(np.arange(len(every)),
                      [len(occupied[j]) for j in pairs[:, 1]])
    cols = np.concatenate([occupied[j] for j in pairs[:, 1]])
    i, j = pairs[owner].T
    coef = np.sqrt(occ[cols, j].astype(float))
    coef *= np.sqrt(occ[cols, i] + 1 - (i == j))
    W = np.concatenate(([0], weights))
    side = (owner, basis.find(keys[cols] + W[i] - W[j]), found[cols], coef)
    forms = ((k, r, c, -v)
             for k, r, c, v in _entries(basis, [f for *_, f in every]))
    worst = iter(_largest_sums(basis.dim, len(every),
                               chain([side], forms)).tolist())
    report = {"unitary": float(np.abs(np.bincount(found, minlength=basis.dim)
                                      - 1).max())}
    for name, group in rules.items():
        report[name] = max(islice(worst, len(group)))
    return report


def smooth_partition(x):
    """Partition pair (f, g) with f = 1 below 1/2, f = 0 above 1.

    Built as cosine/sine of a smoothstep angle so f^2 + g^2 = 1 holds to
    machine precision at every point.
    """
    x = np.asarray(x, float)
    u = np.clip(2.0 * x - 1.0, 0.0, 1.0)
    theta = 0.5 * np.pi * (3.0 * u ** 2 - 2.0 * u ** 3)
    return np.cos(theta), np.sin(theta)


class LocalizationReport(NamedTuple):
    identity_residual: float
    theta_constant: float
    theta_pass: bool
    M: float
    dim: int


def localization_identity(R_eff: LinearOperator, basis: FockBasis,
                          M: float) -> tuple[float, LinearOperator]:
    """Residual of the exact localization identity
      R = f R f + g R g + Theta_M,  Theta_M = (1/2)([f,[f,R]] + [g,[g,R]])
    for the diagonal cutoff pair f(n/M), g(n/M), and Theta_M itself."""
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
    return residual, LinearOperator.from_blocks(R_eff.part, theta, "Theta_M",
                                                hermitian=True)


def localization_check(R_eff: LinearOperator, basis: FockBasis, M: float,
                       H_N: LinearOperator,
                       params: GPParameters) -> LocalizationReport:
    """Double-commutator localization of R_eff in the occupation number:
    the identity of ``localization_identity``, then a certificate that
    its remainder Theta_M is controlled by (log N / M^2)(H_N + 1)."""
    residual, theta_op = localization_identity(R_eff, basis, M)
    scale = math.log(params.N) / M ** 2
    bound = combine([(scale, H_N)], "scaled-H", hermitian=True,
                    diagonal=np.full(basis.dim, scale))
    rep_plus = min_constant(theta_op, [bound], "theta-upper", basis.cap)
    theta_neg = combine([(-1.0, theta_op)], "-Theta_M", hermitian=True)
    rep_minus = min_constant(theta_neg, [bound], "theta-lower", basis.cap)
    const = max(rep_plus.constant, rep_minus.constant)
    return LocalizationReport(residual, const,
                              rep_plus.passed and rep_minus.passed,
                              M, basis.dim)


def condensation_lower_bound(R_eff: LinearOperator, H_N: LinearOperator,
                             basis: FockBasis, renorm: RenormPotential,
                             c: float = 0.1) -> InequalityReport:
    """Certified constant in the occupation-controlled lower bound

      R_eff >= 2 pi N + (omega0/2) Nplus + (c/log N) H_N
               - C ((log N)^2 Nplus^2 / N + 1).
    """
    N = renorm.params.N
    logN = math.log(N)
    n = basis.totals()
    lhs = combine([(c / logN, H_N), (-1.0, R_eff)], "LB-deficit",
                  hermitian=True,
                  diagonal=2.0 * np.pi * N + 0.5 * renorm.omega0 * n)
    rhs = build_operator(basis, [], "penalty", hermitian=True,
                         diagonal=logN ** 2 / N * (n * n) + 1.0)
    rep = min_constant(lhs, [rhs], "condensation-lower-bound", basis.cap)
    return rep._replace(
        notes=f"N={N} is desk scale; the bound is proved for large N, "
              f"small-N certificates may need larger constants")


def square_completion_mu(c: float, N: int) -> float:
    """mu = c / log N of the lower bound's square completion at N, refused
    unless below 1: at mu >= 1 the sign of 1 - mu flips and the scalar
    check would pass vacuously."""
    mu = c / math.log(N)
    if mu >= 1:
        raise ConfigError(f"c / log N = {mu:.4g} must be below 1 for the "
                          f"square completion: c_lower = {c:g} at N = {N}")
    return mu


def square_completion_check(renorm: RenormPotential, c: float = 0.1) -> dict:
    """Scalar ingredients of the lower-bound proof at renorm's (N, alpha).

    Checks |omega(p)|^2 / (4 (1 - mu) p^2) <= omega0 / 2 on the lattice
    with mu = ``square_completion_mu(c, N)``, and reports the lattice sum
    S = (1/4) sum |omega(p)|^2/p^2 against 2 pi alpha log N.
    """
    params = renorm.params
    mu = square_completion_mu(c, params.N)
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

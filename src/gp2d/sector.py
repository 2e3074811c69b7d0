"""The full N-particle sector and its occupation bijection onto the
truncated excitation space.

The symmetric N-particle states over the zero mode and the excitation
modes are the rows (n0, n_1, ..., n_m) with n0 = N - sum n_i.  U_N sends
|n0, vec n> to the excitation state |vec n>; ``unitary_excitation_map``
builds it explicitly at small N and audits how it conjugates a*_i a_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import ConsistencyError, SizeError
from .fock import (_occupations, _StateLookup, build_basis, ladder,
                   number_operator)


@dataclass(frozen=True)
class SectorBasis(_StateLookup):
    """Symmetric N-particle occupation basis over modes plus the zero mode."""

    modes: tuple          # excitation modes only; slot 0 is the zero mode
    N: int
    states: np.ndarray = field(repr=False)   # columns: (n0, n_modes...)

    @property
    def dim(self) -> int:
        return len(self.states)


def build_sector(modes, N: int, dim_cap: int = 4000) -> SectorBasis:
    modes = tuple(tuple(m) for m in modes)
    dim = math.comb(N + len(modes), len(modes))
    if dim > dim_cap:
        raise SizeError(f"sector dimension {dim} exceeds cap")
    exc = _occupations(N, len(modes))
    n0 = N - exc.sum(axis=1, keepdims=True)
    return SectorBasis(modes, N, np.hstack((n0, exc)))


def sector_hop(sec: SectorBasis, i: int, j: int) -> np.ndarray:
    """Matrix of a*_i a_j on the fixed-N sector (slot 0 is the zero mode)."""
    cols = np.flatnonzero(sec.states[:, j])
    occ = sec.states[cols]
    coef = np.sqrt(occ[:, j].astype(float))
    occ[:, j] -= 1
    coef *= np.sqrt(occ[:, i] + 1.0)
    occ[:, i] += 1
    mat = np.zeros((sec.dim, sec.dim))
    mat[sec.position(occ), cols] = coef
    return mat


def unitary_excitation_map(modes, N: int) -> dict:
    """Build the occupation bijection U_N explicitly and audit its rules.

    U_N sends the sector state |n0, vec n> to the excitation state |vec n>
    (n0 = N - total is redundant).  Returns the residuals of the four
    conjugation rules and of unitarity.
    """
    if N > 3 or len(modes) > 4:
        raise SizeError("the explicit map is audited at N <= 3 with at "
                        "most 4 modes")
    sec = build_sector(modes, N)
    basis = build_basis(modes, N)
    if sec.dim != basis.dim:
        raise ConsistencyError("sector and excitation bases disagree")
    U = np.zeros((basis.dim, sec.dim))
    U[basis.position(sec.states[:, 1:]), np.arange(sec.dim)] = 1.0

    def rule(i, j, want):
        # U (a*_i a_j on the sector) U^*, slot 0 the zero mode, against want
        return float(np.max(np.abs(U @ sector_hop(sec, i, j) @ U.T - want)))

    eye, idx = np.eye(basis.dim), range(basis.n_modes)
    a = [ladder(basis, m, "a").mat for m in basis.modes]
    sqrt_fac = np.diag(np.sqrt(np.maximum(N - basis.totals(), 0)))
    report = {
        "unitary": float(np.max(np.abs(U @ U.T - eye))),
        "rule_n0": rule(0, 0, N * eye - number_operator(basis).mat),
        "rule_create": max(rule(i + 1, 0, a[i].T @ sqrt_fac) for i in idx),
        "rule_annihilate": max(rule(0, i + 1, sqrt_fac @ a[i]) for i in idx),
        "rule_hop": max(rule(i + 1, j + 1, a[i].T @ a[j])
                        for i, j in product(idx, repeat=2)),
    }
    report["pass"] = all(v <= 1e-12 for v in report.values())
    return report

"""Momentum lattice 2 pi Z^2 minus the zero mode, with a radial cutoff."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * np.pi


class MomentumLattice(NamedTuple):
    """Nonzero modes p = 2 pi (n1, n2) with |p| <= cutoff.

    Modes are ordered by (|p|^2, n1, n2) so that every consumer sees the
    same deterministic enumeration.  A radial quantity is evaluated at
    ``norms[first]`` and expanded to every mode by ``inverse``.
    """

    cutoff: float
    ints: np.ndarray       # shape (M, 2) integer coordinates
    norms2: np.ndarray     # |p|^2
    norms: np.ndarray      # |p|
    distinct_norms: np.ndarray  # sorted distinct |p|, rounded to 12 places
    inverse: np.ndarray    # the index in distinct_norms of each mode's |p|
    first: np.ndarray      # the first mode of each distinct |p|

    @property
    def size(self) -> int:
        return len(self.ints)

    def index_of(self, n1: int, n2: int) -> int:
        hits = np.nonzero((self.ints[:, 0] == n1) & (self.ints[:, 1] == n2))[0]
        if len(hits) != 1:
            raise ConfigError(f"mode ({n1},{n2}) not on the lattice of "
                              f"cutoff {self.cutoff}")
        return int(hits[0])


def build_lattice(cutoff: float) -> MomentumLattice:
    if cutoff < TWO_PI:
        raise ConfigError(f"cutoff {cutoff} leaves the lattice empty "
                          f"(need at least 2*pi)")
    nmax = int(np.floor(cutoff / TWO_PI))
    rng = np.arange(-nmax, nmax + 1)
    n1, n2 = np.meshgrid(rng, rng, indexing="ij")
    ints = np.column_stack((n1.ravel(), n2.ravel()))
    norms2 = TWO_PI ** 2 * (ints[:, 0] ** 2 + ints[:, 1] ** 2).astype(float)
    keep = (norms2 > 0) & (norms2 <= cutoff ** 2 * (1 + 1e-12))
    ints = ints[keep]
    norms2 = norms2[keep]
    order = np.lexsort((ints[:, 1], ints[:, 0], norms2))
    norms = np.sqrt(norms2[order])
    distinct, first, inverse = np.unique(
        np.round(norms, 12), return_index=True, return_inverse=True)
    return MomentumLattice(float(cutoff), ints[order], norms2[order], norms,
                           distinct, inverse, first)


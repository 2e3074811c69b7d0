"""Compactly supported radial pair potentials and their 2D Fourier transform."""

from __future__ import annotations

import numpy as np

from .bessel import hankel_j0
from .errors import ConfigError, QuadratureError
from .quadrature import support_rule

TABLE_HEADER = "# radial-potential v1"


class RadialPotential:
    """Radial pair potential V(r) >= 0 vanishing beyond its range r0.

    ``kind`` is one of ``step``, ``gaussian-bump`` or ``user-tabulated``.
    For tabulated potentials ``table_r``/``table_v`` hold the sample points;
    evaluation interpolates linearly and is zero outside the table.
    """

    def __init__(self, kind: str, v0: float, r0: float,
                 table_r: np.ndarray | None = None,
                 table_v: np.ndarray | None = None):
        self.kind, self.v0, self.r0 = kind, v0, r0
        self.table_r, self.table_v = table_r, table_v
        if self.kind not in ("step", "gaussian-bump", "user-tabulated"):
            raise ConfigError(f"unknown potential kind {self.kind!r}")
        numbers = [self.v0, self.r0] + [
            t for t in (self.table_r, self.table_v) if t is not None]
        if not all(np.all(np.isfinite(x)) for x in numbers):
            raise ConfigError("potential values must be finite")
        if self.v0 < 0:
            raise ConfigError("potential strength must be non-negative")
        if self.r0 <= 0:
            raise ConfigError("potential range must be positive")
        if self.kind == "user-tabulated":
            if self.table_r is None or self.table_v is None:
                raise ConfigError("tabulated potential requires a table")
            if np.any(np.diff(self.table_r) <= 0):
                raise ConfigError("table radii must be strictly increasing")
            if np.any(self.table_v < 0):
                raise ConfigError("potential must be pointwise non-negative")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "step":
            return np.where(r <= self.r0, self.v0, 0.0)
        if self.kind == "gaussian-bump":
            x2 = np.clip((r / self.r0) ** 2, 0.0, 1.0)
            with np.errstate(divide="ignore", over="ignore"):
                val = self.v0 * np.exp(1.0 - 1.0 / (1.0 - x2))
            return np.where(r < self.r0, val, 0.0)
        return np.interp(r, self.table_r, self.table_v, left=self.table_v[0],
                         right=0.0)

    @property
    def breaks(self) -> np.ndarray:
        """0, the kinks of V inside (0, r0) (a table's nodes), then r0."""
        r = np.zeros(0) if self.table_r is None else self.table_r
        return np.concatenate(([0.0], r[(r > 0) & (r < self.r0)], [self.r0]))

    @property
    def is_zero(self) -> bool:
        return self.v0 == 0.0 or (self.kind == "user-tabulated"
                                  and not np.any(self.table_v > 0))


def step(v0: float, r0: float) -> RadialPotential:
    return RadialPotential("step", v0, r0)


def gaussian_bump(v0: float, r0: float) -> RadialPotential:
    return RadialPotential("gaussian-bump", v0, r0)


def free() -> RadialPotential:
    """The identically-zero potential (free gas)."""
    return RadialPotential("step", 0.0, 1.0)


def tabulated(r: np.ndarray, v: np.ndarray) -> RadialPotential:
    r = np.asarray(r, float)
    v = np.asarray(v, float)
    nz = np.nonzero(v > 0)[0]
    r0 = float(r[nz[-1] + 1]) if (len(nz) and nz[-1] + 1 < len(r)) \
        else float(r[-1])
    v0 = float(v.max(initial=0.0))
    return RadialPotential("user-tabulated", v0, r0, table_r=r, table_v=v)


def load_table(path) -> RadialPotential:
    """Read a two-column (r, V) text table with the v1 header line and at
    least one row; '#' starts a comment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline().strip()
            if first != TABLE_HEADER:
                raise ConfigError(f"{path}: missing header {TABLE_HEADER!r}")
            rows = [line for line in fh if line.split("#", 1)[0].strip()]
            if not rows:
                raise ConfigError(f"{path}: no rows after the header")
            data = np.loadtxt(rows, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read potential table {path}: {exc}") \
            from None
    if data.shape[1] != 2:
        raise ConfigError(f"{path}: expected two columns")
    return tabulated(data[:, 0], data[:, 1])


def save_table(pot: RadialPotential, path, n: int = 256) -> None:
    r = np.linspace(0.0, pot.r0, n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TABLE_HEADER + "\n")
        for ri, vi in zip(r, pot(r)):
            fh.write(f"{ri:.17g} {vi:.17g}\n")


def fourier_transform_radial(pot: RadialPotential, k):
    """2D Fourier transform of V at radial wavenumber(s) k >= 0.

    Radial (Hankel) form: 2 pi int_0^r0 V(r) J0(k r) r dr.  Accepts a
    scalar or an array of wavenumbers; ``hankel_j0`` sums the support rule
    of V, cut at the Bessel zeros of the largest requested k.
    """
    k = np.abs(np.asarray(k, dtype=float))
    scalar = k.ndim == 0
    if pot.is_zero:
        return 0.0 if scalar else np.zeros(k.shape)
    nodes, wts = support_rule(pot.breaks, float(k.max()))
    val = 2.0 * np.pi * hankel_j0(k, nodes, wts * pot(nodes) * nodes)
    if not np.all(np.isfinite(val)):
        raise QuadratureError("non-finite potential transform")
    return float(val) if scalar else val

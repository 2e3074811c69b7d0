"""Panel Gauss-Legendre quadrature tuned for radial Hankel-type integrals.

Integrands here are radial profiles times J0(k r), on panels split at the
zeros of J0(k .) with 16 Gauss-Legendre nodes each: geometrically refined
toward the origin for a log-varying profile (``panel_bounds_hankel``), or
equal and cut at V's kinks on the support of V (``support_rule``).
"""

from __future__ import annotations

import math

import numpy as np

from .bessel import j0_zeros
from .errors import QuadratureError

# the 16-point Gauss-Legendre rule on [-1, 1], numpy.polynomial's
# leggauss(16) to the bit (it is symmetric to the bit): the positive nodes
# ascending, each with its weight
_GL_HALF = np.array([(0.09501250983763744, 0.18945061045506864),
                     (0.2816035507792589, 0.18260341504492364),
                     (0.45801677765722737, 0.16915651939500265),
                     (0.6178762444026438, 0.1495959888165767),
                     (0.755404408355003, 0.12462897125553407),
                     (0.8656312023878318, 0.0951585116824926),
                     (0.9445750230732326, 0.062253523938647456),
                     (0.9894009349916499, 0.027152459411754176)])
_GL_NODES = np.concatenate((-_GL_HALF[::-1, 0], _GL_HALF[:, 0]))
_GL_WEIGHTS = np.concatenate((_GL_HALF[::-1, 1], _GL_HALF[:, 1]))

# the innermost geometric boundary on [0, b], relative to b
_FLOOR_RATIO = 1e-12

# J0 zeros, computed on first need and at least doubled when extended
_J0_ZEROS = np.zeros(0)


def _j0_zeros_up_to(x: float) -> np.ndarray:
    global _J0_ZEROS
    # the m-th zero exceeds (m - 1/4) pi: at most x / pi + 1/4 lie below x
    need = int(x / math.pi + 0.25)
    if need > len(_J0_ZEROS):
        _J0_ZEROS = j0_zeros(max(need, 2 * len(_J0_ZEROS), 64))
    zeros = _J0_ZEROS[:need]
    return zeros[zeros < x]


def merge_bounds(*parts) -> np.ndarray:
    """The sorted union of panel boundaries, each value once (a sort and a
    neighbour comparison; unlike a bare np.unique it never loads
    numpy.ma)."""
    bounds = np.sort(np.concatenate(parts))
    keep = np.ones(len(bounds), dtype=bool)
    keep[1:] = bounds[1:] != bounds[:-1]
    return bounds[keep]


def geometric_bounds(a: float, b: float, per_efold: int = 8) -> np.ndarray:
    """Panel boundaries on [a, b], geometric except for one panel at 0.

    With ``a == 0`` the innermost boundary is placed at ``b * _FLOOR_RATIO``
    and a single closing panel [0, b*_FLOOR_RATIO] is prepended.
    """
    if b <= a:
        raise QuadratureError(f"empty quadrature interval [{a}, {b}]")
    lo = max(a, b * _FLOOR_RATIO)
    n = max(2, int(np.ceil(per_efold * np.log(b / lo))))
    bounds = np.geomspace(lo, b, n + 1)
    if a < lo:
        bounds = np.concatenate(([a], bounds))
    return bounds


def panel_bounds_hankel(a: float, b: float, k: float,
                        per_efold: int = 8) -> np.ndarray:
    """Geometric boundaries merged with the zeros of J0(k .) inside (a, b)."""
    bounds = geometric_bounds(a, b, per_efold)
    if k > 0.0:
        zeros = _j0_zeros_up_to(k * b) / k
        zeros = zeros[zeros > a]
        bounds = merge_bounds(bounds, zeros)
    return bounds


def gl_nodes_weights(bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flattened Gauss-Legendre nodes/weights for a set of panel boundaries."""
    lo = bounds[:-1, None]
    hi = bounds[1:, None]
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo) + half * _GL_NODES).ravel()
    weights = (half * _GL_WEIGHTS).ravel()
    return nodes, weights


def support_rule(breaks: np.ndarray, k: float = 0.0):
    """Nodes and weights on the support [0, r0 = breaks[-1]] of V: 64 equal
    panels, cut at the breaks of V and at the zeros of J0(k .)."""
    r0 = float(breaks[-1])
    zeros = _j0_zeros_up_to(k * r0) / k if k > 0.0 else []
    return gl_nodes_weights(merge_bounds(np.linspace(0.0, r0, 65), breaks,
                                         zeros))

"""2D radial zero-energy and Neumann scattering problems.

The radial reduction of -Delta u + V u / 2 = lambda u is

    -u'' - u'/r + V(r) u / 2 = lambda u.

Inside the range of the potential the regular solution is computed
numerically; outside, it is an exact combination of Bessel functions (log
profile at zero energy), so solvers match onto the analytic tail instead
of integrating across many decades.  The interior problem does not depend
on the disk radius and its regular solution is entire in lambda, so
its power series in lambda (``InteriorSeries``) is built once per
potential, by Chebyshev collocation on panels, with the zero-energy
solution that carries it; Neumann shooting reads it from there.  Where the
truncated series is not accurate (lambda r0^2 >> 1), the same collocation
solves the interior at that lambda alone (``_fixed_lambda_interior``).
Roots are found by Brent's method (``_brent``), the Neumann one on a
bracket searched outward from its asymptotic estimate (``_bracket_root``).
"""

from __future__ import annotations

import math
from functools import cache, cached_property, partial
from typing import NamedTuple

import numpy as np

from .bessel import jy, jy01
from .errors import ConsistencyError, SolverError
from .potentials import RadialPotential
from .quadrature import (geometric_bounds, gl_nodes_weights, merge_bounds,
                         support_rule)

_SERIES_ORDER = 16          # highest power of lambda kept
_SERIES_TRUNC_REL = 1e-14   # bound on the first dropped term / the sum
_PANEL_NODES = 36           # collocation nodes per series panel
_PANEL_KAPPA_WIDTH = 2.0    # kappa times the widest series panel
_PANEL_TAIL_REL = 1e-14     # resolution bound on a panel's trailing terms
_PANEL_MIN_REL = 1e-9       # narrowest series panel, relative to r0
_K_SQUARED = np.arange(1, _SERIES_ORDER + 2) ** 2.0
_BRACKET_RATIO = 1.25       # step of the outward bracket search
_BRACKET_WINDOW = (1e-3, 10.0)  # its window, relative to the estimate


def _split_profile(r: np.ndarray, r0: float, interior, tail) -> np.ndarray:
    """(D,) + r.shape, the rows (f, f') or (f,) at radii r: ``interior``
    evaluated only at the radii r <= r0, ``tail`` (cheap, exact Bessel or
    log forms) at max(r, r0)."""
    vals = np.array(tail(np.maximum(r, r0)))
    inside = r <= r0
    if inside.any():
        vals[:, inside] = interior(r[inside])
    return vals


class ZeroEnergySolution(NamedTuple):
    """Regular zero-energy solution phi, phi(0) = 1, and the scattering
    length: the lambda = 0 term of the interior series inside the range,
    the exact log profile c log(r/a) outside it."""

    a: float                      # scattering length; 0 for the free gas
    log_slope: float              # c in phi(r) = c log(r/a) outside the range
    pot: RadialPotential
    series: InteriorSeries | None     # None flags the free gas

    @property
    def is_free(self) -> bool:
        return self.series is None

    def _at(self, r):
        r = np.asarray(r, float)
        if self.is_free:
            return np.ones_like(r), np.zeros_like(r)
        return _split_profile(
            r, self.pot.r0, partial(self.series.profile, 0.0),
            lambda out: (self.log_slope * np.log(out / self.a),
                         self.log_slope / out))

    def phi_at(self, r):
        return self._at(r)[0]

    def phi_prime_at(self, r):
        return self._at(r)[1]


class NeumannSolution:
    """Ground state of the radial Neumann problem on a disk of radius R,
    normalized to f(R) = 1: the interior profile inside the range, the
    exact J0/Y0 tail outside it.  ``zero``, the zero-energy solution it
    was shot from, gives its potential and a; for the free gas f == 1.
    ``f_at`` and ``w_at`` sum the f row of the interior series and J0/Y0
    alone; f' is computed only when read."""

    def __init__(self, lam: float, R: float, zero: ZeroEnergySolution,
                 panels: tuple | None = None,
                 c_bessel: tuple = (0.0, 0.0), scale: float = 1.0):
        self.lam, self.R, self.zero = lam, R, zero
        self.a, self.pot = zero.a, zero.pot
        # (edges, coef): the panel Chebyshev series (P, 2, M) of (f, f')
        # on [0, r0] at lam, before scaling; None for the free gas
        self._panels = panels
        # the tail c1 J0 + c2 Y0, and the scale that makes f(R) = 1
        self._c_bessel, self._scale = c_bessel, scale

    @property
    def lam_R2(self) -> float:
        """Dimensionless eigenvalue group lambda * R^2."""
        return float(self.lam * self.R ** 2)

    @cached_property
    def nodes(self) -> np.ndarray:
        """Radial nodes on which the profile is checked and exported: 64
        uniform steps out to min(r0, R) / 2, then 400 log-spaced ones out
        to R.  Computed once and read-only: every reader shares them."""
        r_core = min(self.pot.r0, self.R) / 2.0
        nodes = np.concatenate((np.linspace(0.0, r_core, 65),
                                np.geomspace(r_core, self.R, 401)[1:]))
        nodes.flags.writeable = False
        return nodes

    @cached_property
    def f_nodes(self) -> np.ndarray:
        """f on ``nodes``, evaluated once: the ground-state certificate,
        the range check of ``gp2d neumann`` and ``solution_csv`` read it."""
        f = self.f_at(self.nodes)
        f.flags.writeable = False
        return f

    def _at(self, r, rows: int = 2):
        """(f, f') at radii r, or (f,) for rows = 1."""
        r = np.asarray(r, float)
        if self.zero.is_free:                 # f == 1
            return (np.ones_like(r), np.zeros_like(r))[:rows]
        k = np.sqrt(self.lam)
        c1, c2 = self._c_bessel
        edges, coef = self._panels

        def tail(out):
            if rows == 1:
                j0k, y0k = jy(k * out, 0)
                return (self._scale * (c1 * j0k + c2 * y0k),)
            j0k, y0k, j1k, y1k = jy01(k * out)
            return (self._scale * (c1 * j0k + c2 * y0k),
                    -self._scale * k * (c1 * j1k + c2 * y1k))

        return _split_profile(
            r, self.pot.r0,
            lambda rin: self._scale * _panel_profile(edges, coef[:, :rows],
                                                     rin),
            tail)

    def f_at(self, r):
        return self._at(r, rows=1)[0]

    def f_prime_at(self, r):
        return self._at(r)[1]

    def w_at(self, r):
        return 1.0 - self.f_at(r)


class InteriorSeries:
    """Regular interior solution on [0, r0] as a power series in lambda.

    f(r; lambda) = sum_k lambda^k u_k(r), where
    -u_k'' - u_k'/r + V u_k / 2 = u_{k-1}, u_0(0) = 1 and u_k(0) = 0.
    The components are scaled, s_k = u_k / ((r0^2/4)^k / (k!)^2): dividing
    by the size of the free-space terms at r0 keeps every component of
    order one there.  Terms up to K are summed; term K+1 estimates the
    truncation error.

    Stored are the panel edges 0 = e_0 < ... < e_P = r0 and, per panel,
    the Chebyshev coefficients of s_k and s_k' (k = 0 .. K+1) in the
    panel's own variable x in [-1, 1], from collocation in s_k''
    (``_panel_series``).  The panel rule: panels are cut at the breaks
    of V, so V is smooth on each; they are at most 2 / kappa
    wide, kappa = max(sqrt(v0 / 2), 1 / r0), so s_0 grows by at most
    about e^2 across one; and a panel is bisected until the last three
    Chebyshev coefficients of s_0'', integrated once and twice over its
    half-width h (times h and h max(h, 1)), are below _PANEL_TAIL_REL of
    max(|s_0|, |s_0'|) on it.  The error argument: integrating an
    interpolant is exact, so the collocation error on a panel is that of
    interpolating s'', the size of the dropped tail the rule bounds; the
    integral form keeps each panel's matrix a bounded perturbation of I,
    so rounding is not amplified; and an error in the values handed to
    the next panel grows no faster than the solution, so relative errors
    add over the panels.  s_k for k >= 1 is driven by s_{k-1} through the
    same operator and is no rougher than s_0.
    """

    def __init__(self, pot: RadialPotential, edges: np.ndarray,
                 coef: np.ndarray):
        self.pot = pot
        self.edges = edges      # (P+1,)
        self.coef = coef        # (P, 2, K+2, n+2): s_k, s_k'

    def _weights(self, lam: float) -> np.ndarray:
        """(lambda r0^2 / 4)^k / (k!)^2 for k = 0 .. K+1."""
        out = np.empty(_SERIES_ORDER + 2)
        out[0] = 1.0
        np.cumprod(lam * self.pot.r0 ** 2 / 4.0 / _K_SQUARED, out=out[1:])
        return out

    @cached_property
    def at_r0(self) -> np.ndarray:
        """(2, K+2): s_k and s_k' at r0, the right end of the last panel,
        where every T_m is 1."""
        return self.coef[-1].sum(axis=-1)

    def boundary(self, lam: float):
        """(f(r0), f'(r0)) at lambda, or None where the first dropped term
        exceeds _SERIES_TRUNC_REL of either sum."""
        terms = self._weights(lam) * self.at_r0
        vals = terms[:, :-1].sum(axis=1)
        if any(abs(t) > _SERIES_TRUNC_REL * abs(v)
               for t, v in zip(terms[:, -1].tolist(), vals.tolist())):
            return None
        return vals

    def log_tail(self) -> tuple[float, float]:
        """(a, c) of the zero-energy solution c log(r/a) beyond r0.

        V = 0 there, so the log form is exact and matches the lambda = 0
        term at r0: c = r0 u_0'(r0), a = r0 exp(-u_0(r0) / c).  An a that
        underflows to 0 is refused: a weak potential is not the free gas.
        """
        r0 = self.pot.r0
        phi, dphi = self.at_r0[:, 0]          # s_0 = u_0
        c = r0 * dphi
        if not (phi > 0.0 and c > 0.0):
            raise ConsistencyError("zero-energy solution must be positive "
                                   "and rising at r0 (V >= 0)")
        a = float(r0 * np.exp(-phi / c))
        if a == 0.0:
            raise SolverError(f"scattering length r0 exp(-phi/c) underflows "
                              f"to 0 (r0 = {r0:.6g}, phi/c = {phi / c:.6g})")
        return a, float(c)

    def panels(self, lam: float) -> tuple:
        """(edges, coef): the Chebyshev series (P, 2, M) of (f, f') on
        the panels at lambda, the lambda-weighted sum of the terms."""
        return self.edges, self._weights(lam)[:-1] @ self.coef[:, :, :-1]

    def profile(self, lam: float, r) -> np.ndarray:
        """(f, f') at radii r <= r0: the lambda-weighted sum of the
        Chebyshev series on the panel that holds each r."""
        return _panel_profile(*self.panels(lam), r)


class TrialOracle(NamedTuple):
    """Bessel trial wavefunction with Neumann derivative root k(R)."""

    k: float
    R: float
    a: float
    bessel_ratio: float           # J0(k a) / Y0(k a)

    def psi(self, r):
        j0k, y0k = jy(self.k * np.asarray(r, float), 0)
        return j0k - self.bessel_ratio * y0k

    def psi_prime(self, r):
        j1k, y1k = jy(self.k * np.asarray(r, float), 1)
        return -self.k * (j1k - self.bessel_ratio * y1k)


class AsymptoticsReport(NamedTuple):
    """Scaled residuals of the Neumann large-R asymptotics."""

    e1: float   # eigenvalue vs 2/(R^2 L) (1 + 3/(4L)), scaled by R^2 L^3 / 2
    e2: float   # int V f vs 4 pi / L, scaled by L^2
    e3: float   # sup |w| log(a/R)/log(r/R) on [r0, R]
    e4: float   # sup |w'| (r+1) L
    L: float

    @property
    def all_finite(self) -> bool:
        return all(np.isfinite(v) for v in (self.e1, self.e2, self.e3,
                                            self.e4))


def solve_ivp(fun, t_span, y0, **options):
    """``scipy.integrate.solve_ivp``, imported on first call.  No gp2d
    function calls it: it stays only because the benchmark's tracer
    (``perfbench/spans.py``) rebinds this name and
    ``tests/test_bench_contract.py`` asserts that it exists, and it goes
    with the benchmark revision that stops rebinding it."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(fun, t_span, y0, **options)


def _chebvander(x: np.ndarray, deg: int) -> np.ndarray:
    """(len(x), deg + 1): T_0 .. T_deg at x, by the recurrence
    T_i = T_(i-1) 2x - T_(i-2), as numpy.polynomial's chebvander."""
    v = np.empty((deg + 1, len(x)))
    v[0] = x * 0 + 1
    v[1] = x
    x2 = 2 * x
    for i in range(2, deg + 1):
        v[i] = v[i - 1] * x2 - v[i - 2]
    return v.T


def _chebint(c: np.ndarray) -> np.ndarray:
    """The Chebyshev coefficients (rows) of the integral from -1 of each
    column of the series c, with numpy.polynomial's chebint(c, lbnd=-1)
    operations in its order: the term-wise integral, then minus its value
    at -1 by chebval's Clenshaw sum."""
    n = len(c)
    out = np.empty((n + 1,) + c.shape[1:])
    out[0] = c[0] * 0
    out[1] = c[0]
    out[2] = c[1] / 4
    for j in range(2, n):
        out[j + 1] = c[j] / (2 * (j + 1))
        out[j - 1] -= c[j] / (2 * (j - 1))
    c0, c1 = out[-2], out[-1]
    for i in range(3, n + 2):
        c0, c1 = out[-i] - c1, c0 + c1 * -2.0
    out[0] += 0 - (c0 + c1 * -1.0)
    return out


def _cheb_tables(n: int):
    """First-kind Chebyshev nodes x on [-1, 1] (ascending; neither end is
    a node), and the maps from values at x of a degree n-1 interpolant to
    the Chebyshev coefficients of its integrals from -1, once (n+1
    coefficients) and twice (n+2), and to their values at x."""
    x = -np.cos(np.pi * (np.arange(n) + 0.5) / n)
    to_coef = (2.0 / n) * _chebvander(x, n - 1).T
    to_coef[0] *= 0.5
    int1 = _chebint(to_coef)
    int2 = _chebint(int1)
    return (x, to_coef, int1, int2, _chebvander(x, n) @ int1,
            _chebvander(x, n + 1) @ int2)


_CHEB_X, _TO_COEF, _INT1, _INT2, _Q1, _Q2 = _cheb_tables(_PANEL_NODES)


def _clenshaw(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(D, n): each row of the Chebyshev coefficients coef (D, M) summed
    at the points x (n,) by Clenshaw's recurrence
    b_k = (2 x b_{k+1} - b_{k+2}) + c_k, the sum (x b_1 - b_2) + c_0.
    Every step acts point by point, so a point's bits do not depend on
    the other points, and the temporaries are of the size of x."""
    two_x = 2.0 * x
    out = np.empty((len(coef), len(x)))
    for row, res in zip(coef.tolist(), out):
        b1, b2, t = np.zeros(len(x)), np.zeros(len(x)), np.empty(len(x))
        for c in row[:0:-1]:
            np.multiply(two_x, b1, out=t)
            t -= b2
            t += c
            b1, b2, t = t, b1, b2
        np.multiply(x, b1, out=t)
        t -= b2
        np.add(t, row[0], out=res)
    return out


def _panel_profile(edges: np.ndarray, coef: np.ndarray, r) -> np.ndarray:
    """(D,) + r.shape: the Chebyshev series coef (P, D, M) of D rows, (f,
    f') or f alone, on the panels between ``edges``, each summed by
    ``_clenshaw`` on the points of the panel that holds them."""
    r = np.asarray(r, float)
    flat = r.ravel()
    p = np.clip(np.searchsorted(edges, flat) - 1, 0, len(edges) - 2)
    lo, hi = edges[p], edges[p + 1]
    x = (2.0 * flat - lo - hi) / (hi - lo)
    out = np.empty((coef.shape[1], len(x)))
    for k in np.flatnonzero(np.bincount(p, minlength=len(edges) - 1)):
        at = p == k
        out[:, at] = _clenshaw(coef[k], x[at])
    return out.reshape(out.shape[:1] + r.shape)


def _panel_series(pot: RadialPotential, lo: float, hi: float,
                  start: np.ndarray, coupling: np.ndarray, lam: float):
    """Chebyshev coefficients (2, K+2, n+2) of s_k and s_k' on [lo, hi],
    from their values ``start`` = (alpha_k, beta_k) at lo; None when the
    level-0 term is not resolved there.  V / 2 is shifted to V / 2 - lam:
    the series takes lam = 0, a single level at lam is the regular
    solution at that lambda.

    The unknowns are sigma_k = s_k'' at the nodes r = lo + h (x + 1).
    With Q1 and Q2 integrating an interpolant once and twice from x = -1,
    s_k' = beta_k + h Q1 sigma_k and
    s_k = alpha_k + beta_k (r - lo) + h^2 Q2 sigma_k, so level k solves

        (I + (h / r) Q1 - (V/2) h^2 Q2) sigma_k
            = -(4 k^2 / r0^2) s_{k-1} - beta_k / r
              + (V/2) (alpha_k + beta_k (r - lo)),

    one inverse (one LU) for all K+2 levels.  No node sits at r = 0.
    """
    h = 0.5 * (hi - lo)
    r = lo + h * (_CHEB_X + 1.0)
    half_v = 0.5 * pot(r) - lam
    inv = np.linalg.inv(np.eye(len(r)) + (h / r)[:, None] * _Q1
                        - (h * h * half_v)[:, None] * _Q2)
    sigma = np.empty((len(coupling), len(r)))
    s_prev = np.zeros(len(r))                 # coupling[0] is 0
    for k, (alpha, beta) in enumerate(start.T):
        line = alpha + beta * (r - lo)
        rhs = half_v * line - beta / r - coupling[k] * s_prev
        sigma[k] = inv @ rhs
        s_prev = line + h * h * (_Q2 @ sigma[k])
        if k == 0:
            tail = np.abs(_TO_COEF[-3:] @ sigma[0]).max()
            size = max(np.abs(s_prev).max(),
                       np.abs(beta + h * (_Q1 @ sigma[0])).max())
            if h * max(h, 1.0) * tail > _PANEL_TAIL_REL * size:
                return None
    coef = np.zeros((2, len(coupling), len(r) + 2))
    coef[0] = h * h * (sigma @ _INT2.T)
    coef[0, :, 0] += start[0] + h * start[1]      # alpha + beta h (x + 1)
    coef[0, :, 1] += h * start[1]
    coef[1, :, :-1] = h * (sigma @ _INT1.T)
    coef[1, :, 0] += start[1]
    return coef


def _march(pot: RadialPotential, coupling: np.ndarray, lam: float):
    """Panel edges (P+1,) and coefficients (P, 2, K+2, n+2) of
    ``_panel_series`` on [0, r0], marched panel by panel from
    s_k(0) = [k = 0], s_k'(0) = 0 under the panel rule of
    ``InteriorSeries``, with kappa = max(sqrt|v0 / 2 - lam|, 1 / r0)."""
    r0 = pot.r0
    width = _PANEL_KAPPA_WIDTH / max(np.sqrt(abs(0.5 * pot.v0 - lam)),
                                     1.0 / r0)
    todo = []
    for lo, hi in zip(pot.breaks[:-1], pot.breaks[1:]):
        cuts = np.linspace(lo, hi, int(np.ceil((hi - lo) / width)) + 1)
        todo.extend(zip(cuts[:-1], cuts[1:]))
    todo.reverse()                            # the next panel is last
    start = np.zeros((2, len(coupling)))
    start[0, 0] = 1.0
    edges, coefs = [0.0], []
    while todo:
        lo, hi = todo.pop()
        coef = _panel_series(pot, lo, hi, start, coupling, lam)
        if coef is None:
            if hi - lo < _PANEL_MIN_REL * r0:
                raise SolverError(f"interior solution unresolved on "
                                  f"[{lo!r}, {hi!r}]")
            mid = 0.5 * (lo + hi)
            todo += [(mid, hi), (lo, mid)]
            continue
        edges.append(hi)
        coefs.append(coef)
        start = coef.sum(axis=-1)             # values at x = 1
    return np.array(edges), np.array(coefs)


def interior_series(pot: RadialPotential) -> InteriorSeries:
    """Build the lambda-series of the regular interior solution once, by
    Chebyshev collocation in s_k'' (``_panel_series``, ``_march``)."""
    coupling = 4.0 * np.arange(_SERIES_ORDER + 2) ** 2 / pot.r0 ** 2
    return InteriorSeries(pot, *_march(pot, coupling, 0.0))


def _fixed_lambda_interior(pot: RadialPotential, lam: float):
    """(f, f')(r0) and the panels (edges, coef) of (f, f') on [0, r0] of
    the regular solution at one lambda, f(0) = 1: the level-0 collocation
    of the series with V / 2 shifted to V / 2 - lam, on the same panel
    rule."""
    edges, coef = _march(pot, np.zeros(1), lam)
    coef = coef[:, :, 0]                      # (P, 2, n+2)
    return coef[-1].sum(axis=-1), (edges, coef)


def scattering_length(pot: RadialPotential) -> ZeroEnergySolution:
    """Scattering length from the regular zero-energy solution, the
    lambda = 0 term of the interior series built here (see
    ``InteriorSeries.log_tail``); the free gas has no series and a = 0."""
    if pot.is_zero:
        return ZeroEnergySolution(0.0, 0.0, pot, None)
    series = interior_series(pot)
    return ZeroEnergySolution(*series.log_tail(), pot, series)


def _neumann_mismatch(zero: ZeroEnergySolution, R: float, lam: float):
    """Neumann derivative at R for given lambda, the tail coefficients and
    the interior panels (edges, coef) of (f, f'), or None where they are
    the series' own at lambda (``InteriorSeries.panels``).

    The values at r0 come from zero's series; where its truncation check
    fails (lambda r0^2 >> 1) the interior is solved at this lambda alone.
    """
    r0 = zero.pot.r0
    at_r0, panels = zero.series.boundary(lam), None
    if at_r0 is None:
        at_r0, panels = _fixed_lambda_interior(zero.pot, lam)
    k = math.sqrt(lam)
    j0k, y0k, j1k, y1k = jy01(k * r0)
    # (f, f')(r0) = (c1 J0 + c2 Y0, -k (c1 J1 + c2 Y1)) at k r0, by
    # Cramer's rule; the determinant is k times the Wronskian 2 / (pi k r0)
    f0, df0 = at_r0
    det = k * (j1k * y0k - j0k * y1k)
    c1 = (-k * y1k * f0 - y0k * df0) / det
    c2 = (k * j1k * f0 + j0k * df0) / det
    j1R, y1R = jy(k * R, 1)
    gprime_R = -k * (c1 * j1R + c2 * y1R)
    return gprime_R, (c1, c2), panels


def _brent(f, a: float, b: float, xtol: float, rtol: float,
           maxiter: int = 100) -> float:
    """Root of f in the sign-changing bracket [a, b] by Brent's method.

    Step for step the rules of scipy's ``brentq`` (its ``brentq.c``), so
    the root agrees with ``scipy.optimize.brentq`` to the bit: inverse
    quadratic or secant steps while they shrink the bracket fast enough,
    bisection otherwise, and convergence once half the bracket is below
    delta = (xtol + rtol |x|) / 2.  An exact zero at either end is
    returned as it is.
    """
    def value(x):
        y = float(f(x))
        if y != y:
            raise SolverError(f"root finder met NaN at {x!r}")
        return y

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    xblk = fblk = spre = scur = 0.0
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise SolverError(f"no sign change over [{xpre!r}, {xcur!r}]")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:                  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                             # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry       # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise SolverError(f"no convergence in {maxiter} Brent iterations")


def _bracket_root(g, lam_est: float) -> float:
    """The ground-state root of the Neumann mismatch g, by Brent's method
    on a bracket found by stepping outward from the estimate lam_est by
    _BRACKET_RATIO, within _BRACKET_WINDOW times lam_est.

    Below the ground state f'(R) > 0, as at lambda = 0 (V >= 0), and it
    changes sign at the ground state: the search steps up from lam_est
    while g > 0 and down while g <= 0, until the sign changes.
    """
    lo_end, hi_end = (w * lam_est for w in _BRACKET_WINDOW)
    lam, g_lam = lam_est, g(lam_est)
    up = g_lam > 0.0
    while True:
        step = (min(lam * _BRACKET_RATIO, hi_end) if up
                else max(lam / _BRACKET_RATIO, lo_end))
        g_step = g(step)
        if np.sign(g_step) != np.sign(g_lam):
            lo, hi = (lam, step) if up else (step, lam)
            return _brent(g, lo, hi, xtol=1e-280, rtol=8.9e-16)
        if step == (hi_end if up else lo_end):
            raise SolverError("no sign change of the Neumann mismatch in "
                              "the search window")
        lam, g_lam = step, g_step


def neumann_estimate(R: float, L: float) -> float:
    """The asymptotic Neumann lambda 2/(R^2 L) (1 + 3/(4 L)), L = log(R/a)."""
    return (2.0 / (R * R * L)) * (1.0 + 0.75 / L)


def neumann_ground_state(zero: ZeroEnergySolution,
                         R: float) -> NeumannSolution:
    """Lowest Neumann eigenpair on [0, R], normalized to f(R) = 1, of the
    potential of the zero-energy solution ``zero``; lambda = 0 and f == 1
    for the free gas.

    Shooting on lambda: the interior solution up to the potential range,
    read from zero's series, is matched onto the exact J0/Y0 tail, and
    the boundary derivative is driven to zero by bracketing + Brent from
    an estimate by zero's a.  The ground state is certified by the
    absence of interior sign changes.
    """
    if zero.is_free:
        return NeumannSolution(0.0, R, zero)
    r0 = zero.pot.r0
    if R <= r0:
        raise SolverError(f"Neumann radius {R} must exceed the range {r0}")
    L = np.log(R / zero.a)
    if L <= 0:
        raise SolverError("R must exceed the scattering length")
    lam_est = neumann_estimate(R, L)

    # one evaluation per distinct lambda: Brent starts at the bracket
    # ends of the search and the tail is read at its root
    mismatch = cache(partial(_neumann_mismatch, zero, R))
    lam = _bracket_root(lambda t: mismatch(t)[0], lam_est)

    _, (c1, c2), panels = mismatch(lam)
    if panels is None:
        panels = zero.series.panels(lam)
    j0R, y0R = jy(math.sqrt(lam) * R, 0)
    fR = c1 * j0R + c2 * y0R
    if fR == 0.0:
        raise SolverError("degenerate boundary value")
    scale = 1.0 / fR

    sol = NeumannSolution(float(lam), R, zero, panels, (c1, c2),
                          float(scale))
    f_vals = sol.f_nodes
    if np.any(np.diff(np.sign(f_vals[f_vals != 0.0])) != 0):
        raise SolverError("interior node detected: not the ground state")
    return sol


def rayleigh_quotient(sol: NeumannSolution) -> float:
    """int (f'^2 + V f^2 / 2) r dr / int f^2 r dr for the computed state."""
    bounds = geometric_bounds(0.0, sol.R, per_efold=16)
    bounds = merge_bounds(bounds, np.linspace(0, sol.pot.r0, 33))
    nodes, wts = gl_nodes_weights(bounds)
    f, fp = sol._at(nodes)
    num = np.dot(wts, (fp ** 2 + 0.5 * sol.pot(nodes) * f ** 2) * nodes)
    den = np.dot(wts, f ** 2 * nodes)
    return float(num / den)


def potential_integral(sol: NeumannSolution) -> float:
    """2 pi int_0^r0 V(r) f_R(r) r dr."""
    nodes, wts = support_rule(sol.pot.breaks)
    return float(2.0 * np.pi
                 * np.dot(wts, sol.pot(nodes) * sol.f_at(nodes) * nodes))


def trial_wavenumber(R: float, a: float) -> TrialOracle:
    """Smallest k > 0 where the Bessel trial function has f'(R) = 0."""
    if not R > a > 0:
        raise SolverError("need R > a > 0")
    L = np.log(R / a)
    k_est = math.sqrt(neumann_estimate(R, L))

    def h(k):
        j0a, y0a = jy(k * a, 0)
        j1R, y1R = jy(k * R, 1)
        return -j1R + (j0a / y0a) * y1R

    ks = k_est * np.geomspace(0.05, 5.0, 200)
    hk = h(ks)
    sign_change = np.nonzero(np.diff(np.sign(hk)) != 0)[0]
    if len(sign_change) == 0:
        raise SolverError("no root bracket for the trial wavenumber")
    i = sign_change[0]
    k = _brent(h, ks[i], ks[i + 1], xtol=1e-280, rtol=8.9e-16)
    j0a, y0a = jy(k * a, 0)
    return TrialOracle(float(k), R, a, float(j0a / y0a))


def trial_upper_bound(oracle: TrialOracle, zero_sol: ZeroEnergySolution) -> float:
    """Rayleigh quotient of the Neumann trial state built from the oracle.

    Inside the potential range the trial function composes the outer Bessel
    profile with the change of variable m(r) = a exp(phi(r)/c), which maps
    onto |x| outside the range; outside it equals the Bessel profile itself.
    """
    pot = zero_sol.pot
    r0, R, a = pot.r0, oracle.R, oracle.a
    c = zero_sol.log_slope

    def m(r):
        return a * np.exp(zero_sol.phi_at(r) / c)

    def m_prime(r):
        return m(r) * zero_sol.phi_prime_at(r) / c

    bounds_in = np.linspace(0.0, r0, 129)
    nodes, wts = gl_nodes_weights(bounds_in)
    psi_in = oracle.psi(m(nodes))
    dpsi_in = oracle.psi_prime(m(nodes)) * m_prime(nodes)
    num = np.dot(wts, (dpsi_in ** 2 + 0.5 * pot(nodes) * psi_in ** 2) * nodes)
    den = np.dot(wts, psi_in ** 2 * nodes)

    bounds_out = geometric_bounds(r0, R, per_efold=24)
    nodes, wts = gl_nodes_weights(bounds_out)
    psi_out = oracle.psi(nodes)
    dpsi_out = oracle.psi_prime(nodes)
    num += np.dot(wts, dpsi_out ** 2 * nodes)
    den += np.dot(wts, psi_out ** 2 * nodes)
    return float(num / den)


def validate_neumann_asymptotics(sol: NeumannSolution) -> AsymptoticsReport:
    if sol.zero.is_free:
        return AsymptoticsReport(0.0, 0.0, 0.0, 0.0, np.inf)
    R, a = sol.R, sol.a
    L = np.log(R / a)
    lam_ref = neumann_estimate(R, L)
    e1 = abs(sol.lam - lam_ref) * R * R * L ** 3 / 2.0
    e2 = abs(potential_integral(sol) - 4.0 * np.pi / L) * L * L

    r0 = sol.pot.r0
    rs = np.geomspace(r0, R, 400)
    w = sol.w_at(rs)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(w) * np.log(a / R) / np.log(rs / R)
    e3 = float(np.nanmax(ratio[np.isfinite(ratio)]))

    rs_all = np.concatenate((np.linspace(r0 * 1e-3, r0, 100), rs))
    wp = -sol.f_prime_at(rs_all)
    e4 = float(np.max(np.abs(wp) * (rs_all + 1.0) * L))
    return AsymptoticsReport(float(e1), float(e2), e3, e4, float(L))


def solution_csv(sol: NeumannSolution) -> str:
    """CSV text of (r, f, w, f') columns on the solution's nodes."""
    nodes, f = sol.nodes, sol.f_nodes
    f_prime = sol.f_prime_at(nodes)
    rows = zip(nodes.tolist(), f.tolist(), (1.0 - f).tolist(),
               f_prime.tolist())
    return "r,f,w,fprime\n" + "".join(
        f"{r:.17g},{f:.17g},{w:.17g},{fp:.17g}\n" for r, f, w, fp in rows)

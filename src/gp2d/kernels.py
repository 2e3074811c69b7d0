"""Correlation kernel eta_p and renormalized potential on the torus lattice.

Scale bookkeeping: the microscopic profile lives on a disk of radius
R = e^N * ell with ell = N^(-alpha).  All quantities exposed here are
dimensionless groups (lambda * R^2, g_N, eta_p); exponentials of N enter
only as exp(-N) damping factors or through R itself, and R is refused
above N = 300 where it would overflow.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bessel import hankel_j0, j1
from .errors import ConfigError, ConsistencyError, SizeError
from .lattice import MomentumLattice, TWO_PI
from .potentials import fourier_transform_radial
from .quadrature import (geometric_bounds, gl_nodes_weights, merge_bounds,
                         panel_bounds_hankel, support_rule)
from .scattering import NeumannSolution

_N_OVERFLOW = 300


class GPParameters:
    """Particle count and the interaction-range exponent.

    ell = ell_scale * N^(-alpha) is the correlation cutoff length on the
    unit torus; the microscopic disk radius is R = e^N * ell.
    """

    def __init__(self, N: int, alpha: float, ell_scale: float = 1.0):
        self.N, self.alpha, self.ell_scale = N, alpha, ell_scale
        if self.N < 2 or int(self.N) != self.N:
            raise ConfigError("N must be an integer >= 2")
        if self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if self.ell_scale <= 0:
            raise ConfigError("ell_scale must be positive")
        if self.ell >= 0.5:
            raise ConfigError(f"ell = {self.ell:.4g} must be < 1/2; "
                              f"increase alpha or N")
        # omega_hat smears over the disk of radius N^-alpha whatever
        # ell_scale is, and that disk must not overlap its periodic images
        if float(self.N) ** (-self.alpha) >= 0.5:
            raise ConfigError(f"N^-alpha = {float(self.N) ** -self.alpha:.4g}"
                              f" must be < 1/2; increase alpha or N")

    @property
    def ell(self) -> float:
        return self.ell_scale * float(self.N) ** (-self.alpha)

    @property
    def log_R(self) -> float:
        return self.N + math.log(self.ell)

    @property
    def R(self) -> float:
        if self.N > _N_OVERFLOW:
            raise SizeError(f"N = {self.N} exceeds the overflow guard "
                            f"({_N_OVERFLOW}) for direct exponentiation")
        return math.exp(self.N) * self.ell


def chi_hat(k):
    """Fourier transform of the unit-disk indicator, 2 pi J1(|k|)/|k|."""
    k = np.abs(np.asarray(k, float))
    out = np.full_like(k, np.pi)
    nz = k > 0
    out[nz] = TWO_PI * j1(k[nz]) / k[nz]
    return out


def _profile_rule(sol: NeumannSolution, params: GPParameters, freq: float,
                  per_efold: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on t in [0,1] for integrands w(t R) J0(freq t) t,
    cut also at the breaks of V, where w is not smooth."""
    return gl_nodes_weights(merge_bounds(
        panel_bounds_hankel(0.0, 1.0, freq, per_efold=per_efold),
        np.minimum(sol.pot.breaks / params.R, 1.0)))


def eta_profile(sol: NeumannSolution, params: GPParameters,
                p_norms, per_efold: int = 8) -> np.ndarray:
    """eta at each requested momentum magnitude.

    eta_p = -2 pi N ell^2 * int_0^1 w(t R) J0(|p| ell t) t dt, the scaled
    Fourier coefficient of the correlation profile on the torus.  The
    profile is evaluated once, on panels split at the J0 zeros of the
    largest requested frequency, and summed against J0 at every |p| by
    ``hankel_j0``.
    """
    freq = np.asarray(p_norms, float) * params.ell
    nodes, wts = _profile_rule(sol, params, float(freq.max(initial=0.0)),
                               per_efold)
    val = hankel_j0(freq, nodes, wts * sol.w_at(nodes * params.R) * nodes)
    return -TWO_PI * params.N * params.ell ** 2 * val


def w_squared_integral(sol: NeumannSolution, params: GPParameters,
                       per_efold: int = 8) -> float:
    """Position-space norm int |w(e^N x)|^2 dx over the torus."""
    nodes, wts = _profile_rule(sol, params, 0.0, per_efold)
    w = sol.w_at(nodes * params.R)
    return float(TWO_PI * params.ell ** 2 * np.dot(wts, w * w * nodes))


class KernelTable:
    """eta_p tabulated on a momentum lattice, with its zero mode eta0 and
    the Neumann profile ``sol`` it was made from (f == 1 for the free
    gas, whose eta is 0).

    norm2, the l2 norm of eta over the nonzero modes of the full
    lattice, is computed on first read from the position-space integral
    (Parseval) with the table's own per_efold, so it does not depend on
    the cutoff.  No command reads it.
    """

    def __init__(self, lattice: MomentumLattice, eta: np.ndarray,
                 eta0: float, params: GPParameters, sol: NeumannSolution,
                 per_efold: int = 8):
        self.lattice, self.eta, self.eta0 = lattice, eta, eta0
        self.params, self.sol, self.per_efold = params, sol, per_efold

    @property
    def lam_R2(self) -> float:
        return self.sol.lam_R2

    @cached_property
    def norm2(self) -> float:
        total = self.params.N ** 2 * w_squared_integral(
            self.sol, self.params, self.per_efold)
        return math.sqrt(max(total - self.eta0 ** 2, 0.0))


def eta_coefficients(sol: NeumannSolution, params: GPParameters,
                     lat: MomentumLattice, per_efold: int = 8) -> KernelTable:
    """Tabulate eta on the lattice: one Hankel quadrature over the zero
    mode and every distinct |p|.

    Points sharing |p| get the identical quadrature value, so the
    p -> -p symmetry holds bit for bit.
    """
    if sol.R != params.R:
        raise ConsistencyError("Neumann solution radius does not match "
                               "e^N * ell")
    if sol.zero.is_free:
        return KernelTable(lat, np.zeros(lat.size), 0.0, params, sol,
                           per_efold)
    freqs = np.concatenate(([0.0], lat.distinct_norms))
    eta_u = eta_profile(sol, params, freqs, per_efold)
    return KernelTable(lat, eta_u[1:][lat.inverse], float(eta_u[0]), params,
                       sol, per_efold)


def kernel_sup_product(sol: NeumannSolution, params: GPParameters,
                       p_max: float, n_grid: int = 400,
                       per_efold: int = 8) -> float:
    """sup over |p| in [2 pi, p_max] of |eta(|p|)| * |p|^2.

    Radial profile on a dense log grid; the lattice norms are a dense
    subset of this range, so the grid maximum tracks the lattice maximum.
    """
    ps = np.geomspace(TWO_PI, p_max, n_grid)
    vals = eta_profile(sol, params, ps, per_efold)
    return float(np.max(np.abs(vals) * ps ** 2))


class RenormPotential:
    """Soft effective interaction omega_hat(p) = g_N chi_hat(p / N^alpha)."""

    def __init__(self, g_N: float, lattice: MomentumLattice, omega0: float,
                 params: GPParameters):
        self.g_N, self.lattice = g_N, lattice
        self.omega0, self.params = omega0, params

    @property
    def scale(self) -> float:
        """N^(-alpha), the radius of the disk that omega_hat smears over."""
        return float(self.params.N) ** (-self.params.alpha)

    @cached_property
    def omega(self) -> np.ndarray:
        """omega_hat at every lattice mode, one chi_hat per distinct |p|."""
        lat = self.lattice
        omega = self.g_N * chi_hat(lat.norms[lat.first] * self.scale)
        return omega[lat.inverse]


def renormalized_potential(params: GPParameters, lam_R2: float,
                           lat: MomentumLattice) -> RenormPotential:
    """g_N = 2 N * (lambda R^2) and its disk-smeared lattice profile."""
    if lam_R2 < 0 or not np.isfinite(lam_R2):
        raise ConfigError(f"invalid eigenvalue group {lam_R2}")
    g = float(2.0 * params.N * lam_R2)
    return RenormPotential(g, lat, float(np.pi * g), params)


# rho1 * gap past which doubling rho1 moves S by less than 1e-12 relative:
# the cutoff's transform at the nearest dual frequency (measured for gaps
# 0.5 .. 1)
_RHO_TIMES_GAP = 40.0
# rho1 at which the algebraic (rho1^-7/2) aliasing left when the gap closes
# is below 1e-9 relative (measured for scales 0.5 .. 3)
_RHO_ALGEBRAIC = 160.0
# beyond this wavenumber the tail integral is its Hankel asymptotic,
# 1/(3 pi K^3) - cos(2K)/(2 pi K^4), which is exact to 1e-16 there
_K_ASYMPTOTIC = 1000.0


def _smooth_step(t):
    """C-infinity step: 1 for t <= 0, 0 for t >= 1, psi(t) + psi(1-t) = 1."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        rise = np.exp(-1.0 / t)
        fall = np.exp(-1.0 / (1.0 - t))
    return fall / (rise + fall)


def _split_radius(scale: float) -> float:
    """Inner radius rho1 of the cutoff band [rho1, 2 rho1] for this scale.

    rho1 = 40 / gap with gap = 1 - 2 * scale, capped at the radius that
    meets the algebraic error of a closed gap.
    """
    gap = 1.0 - 2.0 * scale
    return _RHO_TIMES_GAP / max(gap, _RHO_TIMES_GAP / _RHO_ALGEBRAIC)


def _chi2_lattice_sum(scale: float, rho1: float) -> float:
    """sum over n != 0 of chi_hat(2 pi scale |n|)^2 / |n|^2 by the split
    f = f psi + f (1 - psi) with the cutoff band [rho1, 2 rho1]."""
    rho2 = 2.0 * rho1
    # lattice part: the summand depends on q = |n|^2 only; the quadrant
    # {i >= 1, j >= 0} and its three rotations tile Z^2 minus the origin
    m = int(rho2)
    i = np.arange(m + 1)
    counts = np.bincount((i[1:, None] ** 2 + i[None, :] ** 2).ravel())
    q = np.flatnonzero(counts[:int(rho2 * rho2)])
    r = np.sqrt(q)
    inner = math.fsum(4.0 * counts[q] * chi_hat(TWO_PI * scale * r) ** 2 / q
                      * _smooth_step((r - rho1) / (rho2 - rho1)))

    # integral part: 2 pi int chi_hat(2 pi scale r)^2 (1 - psi(r)) dr / r
    # = 8 pi^3 int J1(k)^2 (1 - psi) dk / k^3 with k = 2 pi scale r, on
    # panels no wider than pi (half a period of J1^2), geometric near 0
    k1, k2 = TWO_PI * scale * rho1, TWO_PI * scale * rho2
    k_far = max(k2, _K_ASYMPTOTIC)
    n_band = max(8, math.ceil((k2 - k1) / np.pi))
    bounds = merge_bounds(
        np.linspace(k1, k2, n_band + 1), np.arange(k2, k_far, np.pi),
        geometric_bounds(k2, k_far) if k2 < k_far else [k_far])
    nodes, wts = gl_nodes_weights(bounds)
    outer = np.dot(wts, j1(nodes) ** 2 / nodes ** 3
                   * (1.0 - _smooth_step((nodes - k1) / (k2 - k1))))
    outer += (1.0 / (3.0 * k_far ** 3)
              - math.cos(2.0 * k_far) / (2.0 * k_far ** 4)) / np.pi
    return inner + 8.0 * np.pi ** 3 * outer


def omega_lattice_sum(renorm: RenormPotential) -> float:
    """S = 1/4 sum over nonzero lattice modes of |omega_hat(p)|^2 / p^2.

    With p = 2 pi n and s = renorm.scale, S = g_N^2 / (16 pi^2) times the
    lattice sum of f(n) = chi_hat(2 pi s |n|)^2 / |n|^2.  A C-infinity
    radial cutoff psi, 1 for |n| <= rho1 and 0 for |n| >= rho2 = 2 rho1,
    splits f = f psi + f (1 - psi).  f psi is summed exactly over the
    lattice points with 0 < |n| < rho2, once per distinct |n|^2 with its
    multiplicity.  The lattice sum of f (1 - psi) is replaced by its
    integral over the plane: a Gauss-Legendre band on [rho1, rho2] and the
    tail 8 pi^3 int J1(k)^2 / k^3 dk from k = 2 pi s rho2.

    Error: by Poisson summation the dropped terms are the transform of
    f (1 - psi) at the dual frequencies m != 0.  chi_hat(2 pi s .)^2 has
    its spectrum in |xi| <= 2 s, so that transform is the cutoff's smooth,
    rapidly decaying transform, of width 1 / rho1, seen a distance
    gap = 1 - 2 s away: the error falls off faster than any power of
    rho1 * gap, and rho1 = 40 / gap leaves S within 1e-12 of the converged
    value.  When the gap is small or closed (ell_scale < 1 admits
    s >= 1/2), the spectrum's edge, which vanishes like a 3/2 power, meets
    the dual lattice and the error only decays like rho1^(-7/2), so rho1
    stops at 160, where that error is below 1e-9.
    """
    if renorm.g_N == 0.0:
        return 0.0
    scale = renorm.scale
    pref = renorm.g_N ** 2 / (16.0 * np.pi ** 2)
    return pref * _chi2_lattice_sum(scale, _split_radius(scale))


class ResidualReport(NamedTuple):
    """Momentum-space consistency check of the correlation kernel.

    For each stored momentum magnitude, measures how well

      p^2 eta_p + (N/2) Vhat(p e^-N) + (convolution of Vhat with eta)

    balances the eigenvalue side N lam chi-hat + lam (chi * eta)-hat.
    Convolutions are evaluated exactly in position space.
    """

    p_norms: np.ndarray
    residual_rel: np.ndarray

    @property
    def max_rel(self) -> float:
        return float(np.max(np.abs(self.residual_rel)))


def scattering_residual(table: KernelTable) -> ResidualReport:
    """The residual of the table's own run, ``table.sol`` at its params."""
    lat, sol, params = table.lattice, table.sol, table.params
    if sol.pot.is_zero:                       # no V-hat to divide by
        return ResidualReport(lat.norms, np.zeros(lat.size))
    pot, ell, lam = sol.pot, params.ell, table.lam_R2
    damp = math.exp(-params.N)
    uniq = lat.distinct_norms

    # exact convolution (N/2) sum_q Vhat((p-q)/e^N) eta_q, via the product
    # V(s) w(s) in position space
    nodes, wts = support_rule(pot.breaks, float(uniq[-1] * damp))
    vw = wts * pot(nodes) * sol.w_at(nodes) * nodes
    conv_v_exact = -params.N * np.pi * hankel_j0(uniq * damp, nodes, vw)

    eta_u = table.eta[lat.first]
    vhat_p = fourier_transform_radial(pot, uniq * damp)
    lhs = uniq ** 2 * eta_u + 0.5 * params.N * vhat_p + conv_v_exact
    rhs = params.N * lam * chi_hat(uniq * ell) + (lam / ell ** 2) * eta_u
    resid_u = (lhs - rhs) / (0.5 * params.N * vhat_p)
    return ResidualReport(lat.norms, resid_u[lat.inverse])


def kernels_csv(table: KernelTable, renorm: RenormPotential) -> str:
    """CSV text of (n1, n2, |p|, eta_p, omega_p) under a JSON metadata
    header; the scattering length a is the table's profile's (0 for the
    free gas).  eta and omega_hat must be of one run's (N, alpha)."""
    if renorm.params is not table.params:
        raise ConsistencyError("eta table and omega_hat of different "
                               "(N, alpha)")
    meta = {
        "N": table.params.N,
        "alpha": table.params.alpha,
        "ell": table.params.ell,
        "g_N": renorm.g_N,
        "lambda_R2": table.lam_R2,
        "a": table.sol.a,
    }
    lat = table.lattice
    rows = zip(lat.ints.tolist(), lat.norms.tolist(),
               table.eta.tolist(), renorm.omega.tolist())
    return ("# " + json.dumps(meta, sort_keys=True) + "\n"
            + "n1,n2,p,eta_p,omega_p\n"
            + "".join(f"{n1},{n2},{p:.17g},{eta:.17g},{omega:.17g}\n"
                      for (n1, n2), p, eta, omega in rows))

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
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.special import j0, j1

from .errors import ConfigError, ConsistencyError, SizeError
from .lattice import MomentumLattice, TWO_PI
from .potentials import RadialPotential, fourier_transform_radial
from .quadrature import gl_nodes_weights, panel_bounds_hankel
from .scattering import NeumannSolution

_N_OVERFLOW = 300


@dataclass(frozen=True)
class GPParameters:
    """Particle count and the interaction-range exponent.

    ell = ell_scale * N^(-alpha) is the correlation cutoff length on the
    unit torus; the microscopic disk radius is R = e^N * ell.
    """

    N: int
    alpha: float
    ell_scale: float = 1.0

    def __post_init__(self):
        if self.N < 2 or int(self.N) != self.N:
            raise ConfigError("N must be an integer >= 2")
        if self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if self.ell_scale <= 0:
            raise ConfigError("ell_scale must be positive")
        if self.ell >= 0.5:
            raise ConfigError(f"ell = {self.ell:.4g} must be < 1/2; "
                              f"increase alpha or N")

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

    def check_range(self, pot: RadialPotential) -> None:
        """The microscopic disk must contain the potential support."""
        if not pot.is_zero and self.log_R <= math.log(pot.r0):
            raise ConfigError(
                f"e^N * ell = exp({self.log_R:.3f}) does not exceed the "
                f"potential range {pot.r0}")


def chi_hat(k):
    """Fourier transform of the unit-disk indicator, 2 pi J1(|k|)/|k|."""
    k = np.abs(np.asarray(k, float))
    out = np.full_like(k, np.pi)
    nz = k > 0
    out[nz] = TWO_PI * j1(k[nz]) / k[nz]
    return out if out.ndim else float(out)


def _profile_panels(sol: NeumannSolution, params: GPParameters, freq: float,
                    per_efold: int = 8) -> np.ndarray:
    """Panel boundaries on t in [0,1] for integrands w(t R) J0(freq t) t."""
    bounds = panel_bounds_hankel(0.0, 1.0, freq, per_efold=per_efold)
    kink = sol.pot.r0 / params.R
    if 0.0 < kink < 1.0:
        bounds = np.unique(np.concatenate((bounds, [kink])))
    return bounds


def eta_profile(sol: NeumannSolution, params: GPParameters,
                p_norms, per_efold: int = 8) -> np.ndarray:
    """eta at each requested momentum magnitude.

    eta_p = -2 pi N ell^2 * int_0^1 w(t R) J0(|p| ell t) t dt, the scaled
    Fourier coefficient of the correlation profile on the torus.  The
    profile is evaluated once, on panels split at the J0 zeros of the
    largest requested frequency, and contracted with every |p| at once.
    """
    freq = np.asarray(p_norms, float) * params.ell
    bounds = _profile_panels(sol, params, float(freq.max(initial=0.0)),
                             per_efold)
    nodes, wts = gl_nodes_weights(bounds)
    weighted = wts * sol.w_at(nodes * params.R) * nodes
    val = j0(np.multiply.outer(freq, nodes)) @ weighted
    return -TWO_PI * params.N * params.ell ** 2 * val


def eta_value(sol: NeumannSolution, params: GPParameters, p_norm: float,
              per_efold: int = 8) -> float:
    """eta at one momentum magnitude (see eta_profile)."""
    return float(eta_profile(sol, params, p_norm, per_efold))


def w_squared_integral(sol: NeumannSolution, params: GPParameters,
                       per_efold: int = 8) -> float:
    """Position-space norm int |w(e^N x)|^2 dx over the torus."""
    bounds = _profile_panels(sol, params, 0.0, per_efold)
    nodes, wts = gl_nodes_weights(bounds)
    w = sol.w_at(nodes * params.R)
    return float(TWO_PI * params.ell ** 2 * np.dot(wts, w * w * nodes))


@dataclass(frozen=True)
class KernelTable:
    """eta_p tabulated on a momentum lattice, with its scalar summaries.

    norm2 is the full-lattice l2 norm obtained from the position-space
    integral (Parseval), which is cutoff-independent; norm2_lattice is the
    truncated sum over the stored points.
    """

    lattice: MomentumLattice
    eta: np.ndarray
    w_hat: np.ndarray
    eta0: float
    norm2: float
    norm_inf: float
    norm2_lattice: float
    params: GPParameters = field(repr=False)
    lam_R2: float = 0.0

    def eta_at(self, n1: int, n2: int) -> float:
        return float(self.eta[self.lattice.index_of(n1, n2)])


def eta_coefficients(sol: NeumannSolution, params: GPParameters,
                     lat: MomentumLattice, per_efold: int = 8) -> KernelTable:
    """Tabulate eta on the lattice: one Hankel quadrature over the zero
    mode and every distinct |p|.

    Points sharing |p| get the identical quadrature value, so the
    p -> -p symmetry holds bit for bit.
    """
    params.check_range(sol.pot)
    if abs(sol.R - params.R) > 1e-9 * params.R:
        raise ConsistencyError("Neumann solution radius does not match "
                               "e^N * ell")
    if sol.pot.is_zero:
        zeros = np.zeros(lat.size)
        return KernelTable(lat, zeros, zeros.copy(), 0.0, 0.0, 0.0, 0.0,
                           params, 0.0)
    uniq, inv = lat.unique_norms()
    eta_u = eta_profile(sol, params, np.concatenate(([0.0], uniq)),
                        per_efold)
    eta0, eta = float(eta_u[0]), eta_u[1:][inv]
    total = params.N ** 2 * w_squared_integral(sol, params, per_efold)
    norm2 = math.sqrt(max(total - eta0 ** 2, 0.0))
    return KernelTable(lat, eta, -eta / params.N, eta0, norm2,
                       float(np.max(np.abs(eta))),
                       float(np.linalg.norm(eta)), params, sol.lam_R2)


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


@dataclass(frozen=True)
class RenormPotential:
    """Soft effective interaction omega_hat(p) = g_N chi_hat(p / N^alpha)."""

    g_N: float
    lattice: MomentumLattice
    omega: np.ndarray
    omega0: float
    params: GPParameters = field(repr=False)

    def omega_at(self, p_norm):
        scale = float(self.params.N) ** (-self.params.alpha)
        return self.g_N * chi_hat(np.asarray(p_norm, float) * scale)


def renormalized_potential(params: GPParameters, lam_R2: float,
                           lat: MomentumLattice) -> RenormPotential:
    """g_N = 2 N * (lambda R^2) and its disk-smeared lattice profile."""
    if lam_R2 < 0 or not np.isfinite(lam_R2):
        raise ConfigError(f"invalid eigenvalue group {lam_R2}")
    g = 2.0 * params.N * lam_R2
    scale = float(params.N) ** (-params.alpha)
    omega = g * chi_hat(np.sqrt(lat.norms2) * scale)
    return RenormPotential(float(g), lat, omega, float(np.pi * g), params)


def omega_lattice_sum(renorm: RenormPotential, params: GPParameters,
                      n_exact: int = 3000) -> float:
    """S = 1/4 sum over nonzero lattice modes of |omega_hat(p)|^2 / p^2.

    Exact octant-reduced summation out to |n| = n_exact, then an integral
    tail (the summand is smooth on the lattice scale out there).  Row sums
    are combined with compensated addition.
    """
    if renorm.g_N == 0.0:
        return 0.0
    scale = float(params.N) ** (-params.alpha)
    if TWO_PI * n_exact < TWO_PI / scale:
        import warnings
        warnings.warn("exact summation range below N^alpha; tail integral "
                      "carries most of the weight", stacklevel=2)
    pref = renorm.g_N ** 2 / (16.0 * np.pi ** 2)

    def chi2_over_n2(n2_int):
        k = TWO_PI * scale * np.sqrt(n2_int)
        return chi_hat(k) ** 2 / n2_int

    rows = []
    for i in range(0, n_exact + 1):
        j = np.arange(i, n_exact + 1)
        if i == 0:
            j = j[1:]
        s2 = (i * i + j * j).astype(float)
        keep = s2 <= n_exact * n_exact
        j = j[keep]
        s2 = s2[keep]
        if len(j) == 0:
            continue
        mult = np.where((j == i) | (i == 0), 4.0, 8.0)
        rows.append(float(np.sum(mult * chi2_over_n2(s2))))
    exact = math.fsum(rows)

    k1 = TWO_PI * scale * n_exact
    integrand = lambda k: j1(k) ** 2 / k ** 3
    k_big = max(200.0, 4.0 * k1)
    tail_int, _ = quad(integrand, k1, k_big, limit=500)
    tail_int += 1.0 / (3.0 * np.pi * k_big ** 3)
    tail = 8.0 * np.pi ** 3 * tail_int
    return pref * (exact + tail)


@dataclass(frozen=True)
class ResidualReport:
    """Momentum-space consistency check of the correlation kernel.

    For each stored momentum magnitude, measures how well

      p^2 eta_p + (N/2) Vhat(p e^-N) + (convolution of Vhat with eta)

    balances the eigenvalue side N lam chi-hat + lam (chi * eta)-hat.
    Convolutions are evaluated exactly in position space; tail_v and
    tail_chi are the parts the truncated lattice sums miss.
    """

    p_norms: np.ndarray
    residual_rel: np.ndarray
    tail_v: np.ndarray
    tail_chi: np.ndarray
    truncation_dominated: bool

    @property
    def max_rel(self) -> float:
        return float(np.max(np.abs(self.residual_rel)))


def scattering_residual(table: KernelTable, renorm: RenormPotential,
                        pot: RadialPotential, params: GPParameters,
                        sol: NeumannSolution,
                        per_efold: int = 8) -> ResidualReport:
    lat = table.lattice
    if pot.is_zero:
        z = np.zeros(lat.size)
        return ResidualReport(np.sqrt(lat.norms2), z, z.copy(), z.copy(),
                              False)
    params.check_range(pot)
    ell = params.ell
    lam = table.lam_R2
    damp = math.exp(-params.N)
    uniq, inv = lat.unique_norms()
    reps = np.unique(inv, return_index=True)[1]   # first mode per |p|

    # exact convolution (N/2) sum_q Vhat((p-q)/e^N) eta_q, via the product
    # V(s) w(s) in position space
    bounds = np.linspace(0.0, pot.r0, 65)
    nodes, wts = gl_nodes_weights(bounds)
    vw = wts * pot(nodes) * sol.w_at(nodes) * nodes
    conv_v_exact = -params.N * np.pi * (
        j0(np.multiply.outer(uniq * damp, nodes)) @ vw)

    eta_u = table.eta[reps]
    vhat_p = fourier_transform_radial(pot, uniq * damp)
    lhs = uniq ** 2 * eta_u + 0.5 * params.N * vhat_p + conv_v_exact
    rhs = params.N * lam * chi_hat(uniq * ell) + (lam / ell ** 2) * eta_u
    resid_u = (lhs - rhs) / (0.5 * params.N * vhat_p)

    # truncated lattice convolutions at a representative point per norm,
    # to size the part the finite lattice misses.  |p - q|^2 / (2 pi)^2 is
    # an integer, so Vhat and chi_hat are evaluated once per distinct value
    # and gathered through an index array.
    q_ints = np.vstack((lat.ints, [[0, 0]]))
    eta_all = np.concatenate((table.eta, [table.eta0]))
    diff = lat.ints[reps][:, None, :] - q_ints[None, :, :]
    s_u, s_inv = np.unique((diff ** 2).sum(axis=2), return_inverse=True)
    s_inv = s_inv.reshape(len(reps), len(q_ints))
    dn = TWO_PI * np.sqrt(s_u)
    trunc_v = 0.5 * (fourier_transform_radial(pot, dn * damp)[s_inv]
                     @ eta_all)
    trunc_chi = lam * (chi_hat(dn * ell)[s_inv] @ eta_all)
    tail_v_u = conv_v_exact - trunc_v
    tail_chi_u = (lam / ell ** 2) * eta_u - trunc_chi

    scale_u = 0.5 * params.N * vhat_p
    dominated = bool(np.any((np.abs(tail_v_u) + np.abs(tail_chi_u))
                            > np.abs(resid_u * scale_u) + 1e-3
                            * np.abs(scale_u)))
    return ResidualReport(np.sqrt(lat.norms2), resid_u[inv], tail_v_u[inv],
                          tail_chi_u[inv], dominated)


def export_kernels_csv(table: KernelTable, renorm: RenormPotential,
                       a: float, path) -> None:
    """CSV of (n1, n2, |p|, eta_p, omega_p) under a JSON metadata header."""
    meta = {
        "N": table.params.N,
        "alpha": table.params.alpha,
        "ell": table.params.ell,
        "g_N": renorm.g_N,
        "lambda_R2": table.lam_R2,
        "a": a,
    }
    lat = table.lattice
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write("n1,n2,p,eta_p,omega_p\n")
        norms = np.sqrt(lat.norms2)
        for i in range(lat.size):
            fh.write(f"{lat.ints[i, 0]},{lat.ints[i, 1]},"
                     f"{norms[i]:.17g},{table.eta[i]:.17g},"
                     f"{renorm.omega[i]:.17g}\n")

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j0, j1

from gp2d.errors import ConfigError, SizeError
from gp2d.kernels import (GPParameters, _chi2_lattice_sum, _split_radius,
                          chi_hat, eta_coefficients, eta_value,
                          export_kernels_csv, kernel_sup_product,
                          omega_lattice_sum, renormalized_potential,
                          scattering_residual, w_squared_integral)
from gp2d.lattice import TWO_PI, build_lattice
from gp2d.potentials import step
from gp2d.scattering import neumann_ground_state


@pytest.fixture(scope="module")
def kernel_setup(step_pot):
    params = GPParameters(8, 3.0)
    sol = neumann_ground_state(step_pot, params.R)
    lat = build_lattice(TWO_PI * 8)
    table = eta_coefficients(sol, params, lat)
    renorm = renormalized_potential(params, sol.lam_R2, lat)
    return params, sol, lat, table, renorm


def test_parameter_validation():
    with pytest.raises(ConfigError):
        GPParameters(1, 3.0)
    with pytest.raises(ConfigError):
        GPParameters(10, 0.0)
    with pytest.raises(SizeError):
        GPParameters(400, 3.0).R
    # ell = 0.354 < 1/2, but omega_hat's disk of radius N^-alpha = 0.707
    # would overlap its periodic images
    with pytest.raises(ConfigError):
        GPParameters(2, 0.5, 0.5)
    p = GPParameters(10, 2.0)
    assert p.ell == pytest.approx(10.0 ** -2.0)
    assert p.R == pytest.approx(math.exp(10) * 10.0 ** -2.0)


def test_range_check(step_pot):
    # N=2, alpha=3: disk radius e^2/8 < 1 collides with the potential range
    with pytest.raises(ConfigError):
        GPParameters(2, 3.0).check_range(step_pot)
    GPParameters(8, 3.0).check_range(step_pot)


def test_chi_hat_closed_form_and_quadrature():
    assert chi_hat(0.0) == pytest.approx(math.pi, rel=1e-14)
    for k in (0.4, 2.0, 9.0):
        want, _ = quad(lambda t: j0(k * t) * t, 0.0, 1.0, epsabs=1e-14)
        want *= 2.0 * math.pi
        assert chi_hat(k) == pytest.approx(want, rel=1e-10)


def test_eta_zero_mode_quadrature_oracle(kernel_setup):
    params, sol, lat, table, _ = kernel_setup

    def oracle(p_norm):
        freq = p_norm * params.ell
        val, _ = quad(lambda t: (1.0 - sol.f_at(t * params.R))
                      * j0(freq * t) * t, 0.0, 1.0, limit=400, epsabs=1e-13)
        return -2.0 * math.pi * params.N * params.ell ** 2 * val

    want = oracle(0.0)
    assert table.eta0 == pytest.approx(want, rel=1e-8)
    assert eta_value(sol, params, 0.0) == pytest.approx(want, rel=1e-8)
    # nonzero modes |p| = 2 pi, 2 pi sqrt(5) and 2 pi 8 (the lattice edge)
    for n1, n2 in ((1, 0), (2, 1), (8, 0)):
        p_norm = TWO_PI * math.hypot(n1, n2)
        want = oracle(p_norm)
        assert table.eta_at(n1, n2) == pytest.approx(want, rel=1e-8)
        assert eta_value(sol, params, p_norm) == pytest.approx(want,
                                                               rel=1e-8)


def test_eta_sign_and_decay(kernel_setup):
    params, sol, lat, table, _ = kernel_setup
    # eta is negative at small momentum and decays at large momentum
    assert table.eta0 < 0
    lo = abs(table.eta_at(1, 0))
    hi = abs(eta_value(sol, params, TWO_PI * 50))
    assert hi < lo


def test_eta_symmetry_is_exact(kernel_setup):
    _, _, lat, table, _ = kernel_setup
    neg = lat.negation_index()
    np.testing.assert_array_equal(table.eta, table.eta[neg])
    assert table.eta_at(2, 1) == table.eta_at(-2, -1)
    assert table.eta_at(2, 1) == table.eta_at(1, 2)


def test_parseval_norm_saturates(step_pot):
    # at a generous cutoff the lattice sum approaches the position-space norm
    params = GPParameters(3, 2.5)
    sol = neumann_ground_state(step_pot, params.R)
    lat = build_lattice(TWO_PI * 24)
    table = eta_coefficients(sol, params, lat)
    assert table.norm2_lattice == pytest.approx(table.norm2, rel=2e-3)
    assert table.norm2_lattice <= table.norm2 * (1 + 1e-12)


def test_norm_inf_dominated_by_norm2(kernel_setup):
    _, _, _, table, _ = kernel_setup
    assert table.norm_inf <= table.norm2 * (1 + 1e-12)
    assert table.norm_inf == np.max(np.abs(table.eta))


def test_w_hat_relation(kernel_setup):
    params, _, _, table, _ = kernel_setup
    np.testing.assert_allclose(table.w_hat, -table.eta / params.N,
                               rtol=0, atol=0)


def test_w_squared_integral_positive(kernel_setup):
    params, sol, _, _, _ = kernel_setup
    val = w_squared_integral(sol, params)
    assert val > 0
    # Parseval: N^2 * integral = eta0^2 + lattice tail >= eta0^2
    assert params.N ** 2 * val >= eta_value(sol, params, 0.0) ** 2


def test_kernel_sup_product_saturates(kernel_setup):
    params, sol, _, _, _ = kernel_setup
    # the sup over a wider momentum window can only grow, and repeated
    # evaluation is deterministic
    k1 = kernel_sup_product(sol, params, TWO_PI * 30)
    k2 = kernel_sup_product(sol, params, TWO_PI * 60)
    assert 0 < k1 <= k2 * (1 + 1e-12)
    assert kernel_sup_product(sol, params, TWO_PI * 30) == k1


def test_renormalized_potential_values(kernel_setup):
    params, sol, lat, _, renorm = kernel_setup
    assert renorm.g_N == pytest.approx(2 * params.N * sol.lam_R2, rel=1e-14)
    assert renorm.omega0 == pytest.approx(renorm.g_N * math.pi, rel=1e-14)
    # profile follows the rescaled disk transform
    i = lat.index_of(3, 0)
    p = TWO_PI * 3
    want = renorm.g_N * chi_hat(p * params.N ** -params.alpha)
    assert renorm.omega[i] == pytest.approx(want, rel=1e-12)
    assert renorm.omega_at(p) == pytest.approx(want, rel=1e-12)


def test_omega_zero_mode_near_coupling_asymptote(step_pot):
    # omega0 approaches 4*pi*(1 + alpha*log N / N) as N grows
    devs = []
    for n in (10, 30):
        params = GPParameters(n, 1.0)
        sol = neumann_ground_state(step_pot, params.R)
        ren = renormalized_potential(params, sol.lam_R2,
                                     build_lattice(TWO_PI * 2))
        target = 4 * math.pi * (1 + math.log(n) / n)
        devs.append(abs(ren.omega0 - target))
    assert devs[1] < devs[0]


def _brute_chi2_sum(scale, n_exact=3000):
    """sum over n != 0 of chi_hat(2 pi scale |n|)^2 / |n|^2: every octant
    lattice point out to |n| = n_exact, row by row, then the integral tail
    8 pi^3 int J1^2 / k^3 from 2 pi scale n_exact."""
    rows = []
    for i in range(n_exact + 1):
        j = np.arange(max(i, 1), n_exact + 1)
        s2 = (i * i + j * j).astype(float)
        j, s2 = j[s2 <= n_exact ** 2], s2[s2 <= n_exact ** 2]
        mult = np.where((j == i) | (i == 0), 4.0, 8.0)
        rows.append(float(np.sum(mult * chi_hat(TWO_PI * scale
                                                * np.sqrt(s2)) ** 2 / s2)))
    k1 = TWO_PI * scale * n_exact
    k_far = max(1000.0, 4.0 * k1)
    edges = np.linspace(k1, k_far, int((k_far - k1) / 50.0) + 2)
    tail = math.fsum(quad(lambda k: j1(k) ** 2 / k ** 3, a, b, limit=200,
                          epsabs=0.0, epsrel=1e-12)[0]
                     for a, b in zip(edges[:-1], edges[1:]))
    tail += 1.0 / (3.0 * math.pi * k_far ** 3)
    return math.fsum(rows) + 8.0 * math.pi ** 3 * tail


# (N, alpha, ell_scale): gaps 1 - 2 N^-alpha from 1.0 down to 0.07
# (N = 3, alpha = 0.7), and one near-closed gap, 0.0069 (N = 2,
# alpha = 1.01); a closed gap is rejected by GPParameters
ORACLE_GRID = [(3, 2.5, 1.0), (4, 2.5, 1.0), (10, 1.5, 1.0), (40, 1.5, 1.0),
               (60, 1.5, 1.0), (4, 1.0, 1.0), (3, 0.7, 1.0), (2, 1.01, 1.0)]


@pytest.mark.parametrize("n, alpha, ell_scale", ORACLE_GRID)
def test_omega_lattice_sum_matches_brute_force(n, alpha, ell_scale):
    params = GPParameters(n, alpha, ell_scale)
    renorm = renormalized_potential(params, 0.7, build_lattice(TWO_PI * 2))
    assert 3000 >= n ** alpha          # the exact range covers N^alpha
    want = renorm.g_N ** 2 / (16.0 * math.pi ** 2) \
        * _brute_chi2_sum(renorm.scale)
    assert omega_lattice_sum(renorm) == pytest.approx(want, rel=1e-8)


def test_omega_lattice_sum_cutoff_independent(kernel_setup):
    # doubling the cutoff band from the chosen radius leaves S in place
    # wherever the spectral gap 1 - 2 scale is at least 1/2
    _, _, _, _, renorm = kernel_setup
    scales = [renorm.scale] + [float(n) ** -a for n, a, e in ORACLE_GRID
                               if e == 1.0 and float(n) ** -a <= 0.25]
    assert len(scales) == 7
    for s in scales:
        rho = _split_radius(s)
        base = _chi2_lattice_sum(s, rho)
        assert base > 0
        assert _chi2_lattice_sum(s, 2.0 * rho) == pytest.approx(base,
                                                               rel=1e-10)


def test_scattering_residual_small(kernel_setup, step_pot):
    params, sol, lat, table, renorm = kernel_setup
    rep = scattering_residual(table, step_pot, params, sol)
    assert rep.max_rel <= 1e-8
    assert len(rep.p_norms) == len(rep.residual_rel)


def test_export_kernels_csv(kernel_setup, step_a, tmp_path):
    params, sol, lat, table, renorm = kernel_setup
    path = tmp_path / "kernels.csv"
    export_kernels_csv(table, renorm, step_a, path)
    lines = path.read_text().strip().splitlines()
    meta = json.loads(lines[0].lstrip("# "))
    assert meta["N"] == params.N
    assert lines[1].split(",") == ["n1", "n2", "p", "eta_p", "omega_p"]
    assert len(lines) == 2 + lat.size

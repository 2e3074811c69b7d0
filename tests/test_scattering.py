import math

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebvander
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq
from scipy.special import i0, i0e, i1, i1e, j0, j1, y0, y1

from gp2d import bessel, scattering
from gp2d.config import RunConfig
from gp2d.energy import Pipeline
from gp2d.errors import ConfigError, Gp2dError, SolverError
from gp2d.potentials import free, gaussian_bump, step, tabulated
from gp2d.scattering import (InteriorSeries, interior_series,
                             neumann_ground_state, potential_integral,
                             rayleigh_quotient, scattering_length,
                             solution_csv, trial_upper_bound,
                             trial_wavenumber, validate_neumann_asymptotics)

# Reference values frozen from 30-digit arbitrary-precision evaluation.
BESSEL_REFERENCE = [
    (j0, 2.0, 0.223890779141236),
    (j1, 3.5, 0.137377527362327),
    (y0, 2.0, 0.510375672649745),
    (y1, 1.5, -0.412308626973911),
    (i0, 1.0, 1.26606587775201),
    (i1, 1.0, 0.565159103992485),
]

# Frozen from an independent high-order series integration of the
# zero-energy radial equation for the compact bump V0=3, r0=1.
BUMP_SCATTERING_LENGTH = 0.020799491905208

# Frozen from exact Bessel matching of the disk problem with a Neumann
# boundary at R=50 for the step potential V0=2, b=1 (30-digit root find).
NEUMANN_R50_LAM_R2 = 0.3683442763106091


def step_scattering_length(v0, b):
    kappa = math.sqrt(v0 / 2.0)
    return b * math.exp(-i0(kappa * b) / (kappa * b * i1(kappa * b)))


def step_neumann_lambda(v0, b, R, lo, hi):
    """Neumann ground-state lambda of the step from exact matching: I0(kappa
    r) inside b, J0/Y0 outside, f'(R) = 0; the root is sought in [lo, hi]."""
    def mismatch(lam):
        kappa, k = math.sqrt(v0 / 2.0 - lam), math.sqrt(lam)
        dlog = kappa * i1e(kappa * b) / i0e(kappa * b)
        mat = np.array([[j0(k * b), y0(k * b)],
                        [-k * j1(k * b), -k * y1(k * b)]])
        c1, c2 = np.linalg.solve(mat, [1.0, dlog])
        return c1 * j1(k * R) + c2 * y1(k * R)
    return brentq(mismatch, lo, hi, rtol=8.9e-16, xtol=1e-280)


def direct_shooting(zero, R, monkeypatch):
    """The Neumann solution with the series' truncation check failed at
    every lambda, which forces the fixed-lambda path: the interior is
    solved at each lambda alone, the fallback taken everywhere."""
    with monkeypatch.context() as m:
        m.setattr(InteriorSeries, "boundary", lambda self, lam: None)
        return neumann_ground_state(zero, R)


SERIES_POTENTIALS = {"step 2/1": step(2.0, 1.0),
                     "bump 3/1": gaussian_bump(3.0, 1.0),
                     "step 50/0.3": step(50.0, 0.3)}


@pytest.fixture(scope="module")
def series_cases():
    return {name: scattering_length(pot)
            for name, pot in SERIES_POTENTIALS.items()}


def test_bessel_library_reference_values():
    for fn, x, want in BESSEL_REFERENCE:
        assert fn(x) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("v0,b", [(0.5, 1.0), (2.0, 1.0), (50.0, 0.3)])
def test_step_scattering_length_closed_form(v0, b):
    sol = scattering_length(step(v0, b))
    assert sol.a == pytest.approx(step_scattering_length(v0, b), rel=1e-12)


def test_bump_scattering_length_frozen_oracle():
    sol = scattering_length(gaussian_bump(3.0, 1.0))
    assert sol.a == pytest.approx(BUMP_SCATTERING_LENGTH, rel=1e-9)


def test_free_scattering_length_is_zero():
    sol = scattering_length(free())
    assert sol.a == 0.0


@pytest.mark.parametrize("v0", [3e-3, 1e-4])
def test_scattering_length_that_underflows_is_refused(v0):
    # a = r0 exp(-phi/c) is below the smallest double: the weak step is
    # refused, not reported as the free gas with a = 0
    with pytest.raises(Gp2dError, match=r"underflows .*r0 = 1, phi/c = "):
        scattering_length(step(v0, 1.0))


def test_neumann_of_the_free_gas(step_zero):
    # the free gas is flagged by its missing series alone: lambda = 0 and
    # f == 1 on the whole disk
    zero = scattering_length(free())
    assert zero.is_free and zero.series is None
    assert not step_zero.is_free
    sol = neumann_ground_state(zero, 50.0)
    assert sol.zero is zero and sol.pot is zero.pot and sol.a == 0.0
    assert sol.lam == 0.0 and sol.lam_R2 == 0.0
    r = np.concatenate((np.linspace(0.0, 1.0, 11), np.geomspace(1.0, 50, 11)))
    assert np.all(sol.f_at(r) == 1.0) and np.all(sol.w_at(r) == 0.0)
    assert np.all(sol.f_prime_at(r) == 0.0)
    assert validate_neumann_asymptotics(sol).L == math.inf


def test_zero_energy_profile_log_tail(step_pot):
    sol = scattering_length(step_pot)
    # outside the range the profile is exactly c*log(r/a)
    for r in (1.5, 3.0, 10.0):
        assert sol.phi_at(r) == pytest.approx(
            sol.log_slope * math.log(r / sol.a), rel=1e-10)
        assert sol.phi_prime_at(r) == pytest.approx(
            sol.log_slope / r, rel=1e-10)


def test_zero_energy_profile_monotone_inside(step_pot):
    sol = scattering_length(step_pot)
    r = np.linspace(1e-6, 1.0, 200)
    phi = np.array([sol.phi_at(x) for x in r])
    assert np.all(np.diff(phi) > 0)


def test_neumann_eigenvalue_frozen_oracle(neumann_r50):
    assert neumann_r50.lam_R2 == pytest.approx(NEUMANN_R50_LAM_R2, rel=1e-10)


def test_neumann_boundary_conditions(neumann_r50):
    assert neumann_r50.f_at(50.0) == pytest.approx(1.0, abs=1e-12)
    assert abs(neumann_r50.f_prime_at(50.0)) < 1e-12


def test_neumann_profile_positive_and_monotone(neumann_r50):
    r = np.geomspace(1e-4, 50.0, 400)
    f = np.array([neumann_r50.f_at(x) for x in r])
    assert np.all(f > 0)
    assert np.all(np.diff(f) > -1e-14)
    w = 1.0 - f
    assert np.all(w >= -1e-14)


def test_rayleigh_quotient_consistency(neumann_r50):
    q = rayleigh_quotient(neumann_r50)
    assert q == pytest.approx(neumann_r50.lam, rel=1e-9)


def test_potential_integral_quadrature_oracle(step_pot, neumann_r50):
    want, _ = quad(lambda r: step_pot(r) * neumann_r50.f_at(r) * r,
                   0.0, 1.0, limit=200, epsabs=1e-13)
    want *= 2.0 * math.pi
    assert potential_integral(neumann_r50) == pytest.approx(want, rel=1e-9)


def test_trial_wavenumber_matches_eigenvalue(step_zero, step_a):
    R = 1.0e3
    sol = neumann_ground_state(step_zero, R)
    oracle = trial_wavenumber(R, step_a)
    # outside the interaction range the true mode is the Bessel trial mode
    assert oracle.k ** 2 == pytest.approx(sol.lam, rel=1e-6)


def test_trial_upper_bound_sits_above_eigenvalue(step_pot, step_a):
    zero_sol = scattering_length(step_pot)
    for R in (1.0e3, 1.0e4):
        sol = neumann_ground_state(zero_sol, R)
        ub = trial_upper_bound(trial_wavenumber(R, step_a), zero_sol)
        assert ub >= sol.lam * (1.0 - 1e-12)
        assert ub <= sol.lam * (1.0 + 1e-6)


def test_oracles_hold_at_every_radius_of_the_default_sweep():
    # the R = e^N N^-alpha of every default trajectory point, N = 10..60,
    # at alpha = 1.5 and at the Fock exponent 2.5: past R ~ 1e12 the
    # geometric panels must start at r0 itself, or one panel spans
    # decades of f' ~ 1/r
    cfg = RunConfig()
    pipe = Pipeline(cfg)
    for alpha in (cfg.alpha, cfg.fock_alpha):
        for N in range(cfg.n_min, cfg.n_max + 1, cfg.n_step):
            sol = pipe.neumann(N, alpha)
            ub = trial_upper_bound(trial_wavenumber(sol.R, sol.a), pipe.zero)
            assert ub >= sol.lam * (1.0 - 1e-12), (N, alpha)
            assert abs(rayleigh_quotient(sol) / sol.lam - 1.0) <= 1e-12, \
                (N, alpha)


def test_asymptotics_report_finite(step_zero, step_a):
    sol = neumann_ground_state(step_zero, 1.0e3)
    rep = validate_neumann_asymptotics(sol)
    for val in (rep.e1, rep.e2, rep.e3, rep.e4):
        assert math.isfinite(val) and val > 0
    assert rep.L == pytest.approx(math.log(1.0e3 / step_a), rel=1e-12)


# e^3 3^-2.5 = 1.29 is R at N = 3 and fock_alpha = 2.5, the smallest disk
# a default run reads
@pytest.mark.parametrize("R", [math.exp(3) * 3 ** -2.5, 50.0, 3.9e3, 1.0e6])
def test_e3_e4_are_read_on_the_exported_nodes(step_zero, R):
    sol = neumann_ground_state(step_zero, R)
    assert "f_prime_nodes" not in vars(sol)    # the solve does not read f'
    rep = validate_neumann_asymptotics(sol)
    assert not sol.f_prime_nodes.flags.writeable
    rows = solution_csv(sol).strip().splitlines()[1:]
    r, _, w, fp = np.loadtxt(rows, delimiter=",").T
    a, L = sol.a, np.log(R / sol.a)
    assert rep.L == L
    out = r >= sol.pot.r0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(w[out]) * np.log(a / R) / np.log(r[out] / R)
    assert rep.e3 == np.max(ratio[np.isfinite(ratio)])
    assert rep.e4 == np.max(np.abs(fp) * (r + 1.0) * L)
    for val in (rep.e3, rep.e4):
        assert math.isfinite(val) and val > 0


def test_e3_is_zero_without_a_node_inside_the_annulus(step_zero):
    # a disk barely wider than the potential exports no node in [r0, R)
    sol = neumann_ground_state(step_zero, 1.001)
    assert np.count_nonzero(sol.nodes >= sol.pot.r0) == 1
    rep = validate_neumann_asymptotics(sol)
    assert rep.e3 == 0.0 and rep.all_finite


def test_export_solution_csv(neumann_r50):
    rows = solution_csv(neumann_r50).strip().splitlines()
    assert rows[0].startswith("r,")
    data = np.loadtxt(rows[1:], delimiter=",")
    assert data.shape[1] == 4
    # f column ends at the boundary value 1
    assert data[-1, 1] == pytest.approx(1.0, abs=1e-12)


def test_neumann_requires_radius_beyond_range(step_zero):
    with pytest.raises(ConfigError):
        neumann_ground_state(step_zero, 0.5)


@pytest.mark.parametrize("name", sorted(SERIES_POTENTIALS))
@pytest.mark.parametrize("R", [1.3, 4.0, 1.0e3, 1.0e15])
def test_series_matches_direct_shooting(series_cases, name, R, monkeypatch):
    zero = series_cases[name]
    pot = zero.pot
    sol = neumann_ground_state(zero, R)
    ref = direct_shooting(zero, R, monkeypatch)
    assert sol.lam == pytest.approx(ref.lam, rel=1e-10)
    r = np.concatenate((np.linspace(0.0, pot.r0, 41),
                        np.geomspace(pot.r0, R, 41)))
    for got, want, tol in ((sol.f_at(r), ref.f_at(r), 1e-10),
                           (sol.f_prime_at(r), ref.f_prime_at(r), 1e-9)):
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= tol * scale


@pytest.mark.parametrize("v0,b,R", [(2.0, 1.0, 1.3), (2.0, 1.0, 50.0),
                                    (2.0, 1.0, 1.0e15), (50.0, 0.3, 2.0)])
def test_series_step_interior_is_i0(v0, b, R):
    # inside the step, f is proportional to I0(kappa r), kappa^2 = v0/2 - lam
    pot = step(v0, b)
    sol = neumann_ground_state(scattering_length(pot), R)
    kappa = math.sqrt(v0 / 2.0 - sol.lam)
    r = np.linspace(0.0, b, 51)
    fb = sol.f_at(np.array([b]))[0]
    shape = i0e(kappa * r) * np.exp(kappa * (r - b)) / i0e(kappa * b)
    slope = kappa * i1e(kappa * r) * np.exp(kappa * (r - b)) / i0e(kappa * b)
    np.testing.assert_allclose(sol.f_at(r) / fb, shape, rtol=1e-11)
    np.testing.assert_allclose(sol.f_prime_at(r) / fb, slope, rtol=1e-11,
                               atol=1e-11 * slope[-1])
    want = step_neumann_lambda(v0, b, R, 0.9 * sol.lam, 1.1 * sol.lam)
    assert sol.lam == pytest.approx(want, rel=1e-10)


def test_series_falls_back_to_direct_shooting(monkeypatch):
    # lambda r0^2 ~ 77 at the root: the truncated series fails its check,
    # so the values at r0 and the interior profile are solved at lam alone
    pot, R = step(200.0, 1.0), 1.05
    zero = scattering_length(pot)
    series = zero.series
    shots = []
    original = scattering._fixed_lambda_interior

    def counted(*args):
        shots.append(args[1])
        return original(*args)

    monkeypatch.setattr(scattering, "_fixed_lambda_interior", counted)
    sol = neumann_ground_state(zero, R)
    assert series.boundary(sol.lam) is None
    assert shots and sol.lam * pot.r0 ** 2 > 50.0
    want = step_neumann_lambda(200.0, 1.0, R, 0.9 * sol.lam, 1.1 * sol.lam)
    assert sol.lam == pytest.approx(want, rel=1e-10)
    kappa = math.sqrt(100.0 - sol.lam)
    r = np.linspace(0.0, 1.0, 51)
    shape = i0e(kappa * r) * np.exp(kappa * (r - 1.0)) / i0e(kappa)
    np.testing.assert_allclose(sol.f_at(r) / sol.f_at(np.array([1.0]))[0],
                               shape, rtol=1e-10)
    assert sol.f_at(np.array([R]))[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(sol.f_prime_at(np.array([R]))[0]) < 1e-10


def test_neumann_solves_each_lambda_once(monkeypatch):
    # lambda r0^2 ~ 340: every mismatch solves the interior at its lambda.
    # The scan, Brent (which starts at the scan's bracket ends) and the
    # tail at the root share one solve per distinct lambda.
    pot, R = step(2000.0, 1.0), 1.05
    zero = scattering_length(pot)
    lams = []
    original = scattering._fixed_lambda_interior

    def counted(pot, lam):
        lams.append(lam)
        return original(pot, lam)

    monkeypatch.setattr(scattering, "_fixed_lambda_interior", counted)
    sol = neumann_ground_state(zero, R)
    assert len(lams) > 10 and len(lams) == len(set(lams))
    assert sol.lam in lams
    # the root is bitwise that of one solve per evaluation
    monkeypatch.setattr(scattering, "cache", lambda f: f)
    lams.clear()
    assert neumann_ground_state(zero, R).lam == sol.lam
    assert len(lams) > len(set(lams))


@pytest.mark.parametrize("v0,lam", [(2000.0, 10.0), (2000.0, 3000.0),
                                    (2000.0, 20000.0), (2.0, 10000.0),
                                    (50.0, 5000.0)])
def test_fixed_lambda_interior_step_is_bessel(v0, lam):
    # inside a step of range 1, f = I0(kappa r), kappa^2 = v0/2 - lam, for
    # lam < v0/2 and f = J0(k r), k^2 = lam - v0/2, for lam > v0/2; lam r0^2
    # up to 2e4, far beyond what the truncated series covers
    pot = step(v0, 1.0)
    (f, df), panels = scattering._fixed_lambda_interior(pot, lam)
    r = np.linspace(0.0, 1.0, 41)
    if lam < v0 / 2.0:
        kappa = math.sqrt(v0 / 2.0 - lam)
        grow = np.exp(kappa * r)
        want = np.array([i0e(kappa * r) * grow,
                         kappa * i1e(kappa * r) * grow])
    else:
        k = math.sqrt(lam - v0 / 2.0)
        want = np.array([j0(k * r), -k * j1(k * r)])
    scale = np.abs(want[:, -1]).max()
    assert np.abs(np.array([f, df]) - want[:, -1]).max() <= 1e-12 * scale
    # the profile, at each r relative to the larger of |f|, |f'| there
    err = np.abs(scattering._panel_profile(*panels, r) - want).max(axis=0)
    assert np.all(err <= 1e-12 * np.abs(want).max(axis=0))


# V is piecewise linear on 8 pieces, with a kink at every inner node
KINK_NODES = np.linspace(0.0, 1.0, 9)
KINKED = tabulated(KINK_NODES,
                   np.array([3, 2.5, 4, 1, 2, 0.5, 1.5, 0.7, 0.0]))


def node_to_node(pot, lam, nodes=KINK_NODES, rtol=1e-13):
    """(f, f') at r0 of the regular solution, integrated node to node at
    tight tolerance, so that no step sees a kink."""
    h = 1e-7
    c = (0.5 * pot(0.0) - lam) / 4.0
    y = np.array([1.0 + c * h * h, 2.0 * c * h])
    for lo, hi in zip(np.r_[h, nodes[1:-1]], nodes[1:]):
        y = solve_ivp(lambda r, u: [u[1], (0.5 * pot(r) - lam) * u[0]
                                    - u[1] / r], (lo, hi), y,
                      method="DOP853", rtol=rtol, atol=1e-16).y[:, -1]
    return y


def test_series_restarts_at_table_kinks():
    series = interior_series(KINKED)
    for lam in (1e-6, 0.1, 0.5):
        np.testing.assert_allclose(series.boundary(lam),
                                   node_to_node(KINKED, lam), rtol=1e-11)


def test_direct_shooting_restarts_at_table_kinks():
    # the lambda r0^2 >> 1 fallback solves the interior at one lambda and
    # the scattering length reads the series; both restart at the nodes
    for lam in (1e-6, 0.1, 0.5):
        got, _ = scattering._fixed_lambda_interior(KINKED, lam)
        np.testing.assert_allclose(got, node_to_node(KINKED, lam),
                                   rtol=1e-11)
    zero = scattering_length(KINKED)
    r0 = np.array([KINKED.r0])
    np.testing.assert_allclose(
        [zero.phi_at(r0)[0], zero.phi_prime_at(r0)[0]],
        node_to_node(KINKED, 0.0), rtol=1e-11)


def test_neumann_without_sign_change_raises(step_zero, monkeypatch):
    # a mismatch of one sign over the whole scan has no root to report
    monkeypatch.setattr(scattering, "_neumann_mismatch",
                        lambda zero, R, lam: (1.0, (1.0, 0.0), None))
    with pytest.raises(SolverError, match="no sign change"):
        neumann_ground_state(step_zero, 50.0)


# lambda r0^2 from 0 to 30; the truncation check declines only above 25
SERIES_LAM_R2 = np.linspace(0.0, 30.0, 61)


def step_boundary(v0, b, lam):
    """(f(b), f'(b)) of the step, f(0) = 1: I0 inside where v0/2 > lam,
    J0 where lam > v0/2."""
    q = 0.5 * v0 - lam
    k = math.sqrt(abs(q))
    if q >= 0.0:
        return np.array([i0(k * b), k * i1(k * b)])
    return np.array([j0(k * b), -k * j1(k * b)])


def assert_boundary_close(series, exact, lam_r2s=SERIES_LAM_R2, tol=1e-12):
    """series.boundary within tol of max(|f|, |f'|) wherever it accepts
    lambda, and it accepts every lambda r0^2 <= 25."""
    r0 = series.pot.r0
    for lam_r2 in lam_r2s:
        lam = lam_r2 / r0 ** 2
        got = series.boundary(lam)
        if got is None:
            assert lam_r2 > 25.0
            continue
        want = exact(lam)
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)), \
            lam_r2


@pytest.mark.parametrize("v0,b", [(2.0, 1.0), (50.0, 0.3), (1.0e3, 1.0),
                                  (1.0e4, 1.0)])
def test_series_boundary_is_step_bessel(v0, b):
    series = interior_series(step(v0, b))
    assert_boundary_close(series, lambda lam: step_boundary(v0, b, lam))


@pytest.mark.parametrize("v0,b", [(2.0, 1.0), (50.0, 0.3), (1.0e3, 1.0)])
def test_series_coefficients_are_binomial_sums(v0, b):
    # I0(sqrt(kappa0^2 - lam) r) = sum_m (kappa0^2 - lam)^m (r^2/4)^m/(m!)^2;
    # expanding the power binomially, the lambda^k coefficient at b is
    # (-1)^k sum_{m>=k} C(m,k) kappa0^(2(m-k)) (b^2/4)^m / (m!)^2, a sum
    # of positive terms; scaled by (b^2/4)^k/(k!)^2 its term m = k + j is
    # z^j k! / (j! (k+j)!), z = kappa0^2 b^2 / 4
    series = interior_series(step(v0, b))
    z = 0.5 * v0 * b * b / 4.0
    for k in range(9):
        terms, t, j = [], 1.0, 0
        while t > 1e-18 * sum(terms, 1.0):
            terms.append(t)
            t *= z / ((j + 1) * (k + j + 1))
            j += 1
        s_k = (-1) ** k * math.fsum(terms)
        ds_k = (-1) ** k * math.fsum(2.0 * (k + i) / b * t
                                     for i, t in enumerate(terms))
        got = series.at_r0[:, k]
        assert got[0] == pytest.approx(s_k, rel=1e-12, abs=0.0)
        assert got[1] == pytest.approx(ds_k, rel=1e-12, abs=0.0)


def test_series_bump_panels_match_node_to_node():
    # V's non-analytic edge at r0 takes several bisected panels; the
    # reference integrates DOP853 node to node, 32 pieces
    pot = gaussian_bump(3.0, 1.0)
    series = interior_series(pot)
    assert len(series.edges) > 2
    assert_boundary_close(
        series, lambda lam: node_to_node(pot, lam, np.linspace(0, 1, 33),
                                         rtol=3e-14),
        lam_r2s=np.linspace(0.0, 30.0, 16))


def test_series_unresolved_panel_raises(monkeypatch):
    # a resolution bound no panel can meet bisects down to the narrowest
    # panel and stops there with an error, not an endless split
    monkeypatch.setattr(scattering, "_PANEL_TAIL_REL", 0.0)
    with pytest.raises(SolverError, match="unresolved"):
        interior_series(step(2.0, 1.0))


# scipy's default brentq tolerances, and the ones gp2d's root finds use
BRENT_TOLERANCES = [(2e-12, 4 * np.finfo(float).eps), (1e-280, 8.9e-16)]
COEF = st.floats(-10.0, 10.0)


@pytest.mark.parametrize("xtol,rtol", BRENT_TOLERANCES)
@given(c=st.tuples(COEF, COEF, COEF, COEF), amp=COEF,
       freq=st.floats(0.1, 20.0), growth=st.floats(-2.0, 2.0),
       lo=st.floats(-5.0, 5.0), width=st.floats(1e-6, 10.0),
       at=st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_brent_matches_scipy_brentq(xtol, rtol, c, amp, freq, growth, lo,
                                    width, at):
    # a cubic plus sin and exp terms, shifted to vanish inside [lo, hi]
    def g(x):
        return (((c[3] * x + c[2]) * x + c[1]) * x + c[0]
                + amp * math.sin(freq * x) + math.exp(growth * x))

    hi, root = lo + width, lo + at * width
    g_root = g(root)

    def f(x):
        return g(x) - g_root

    f_lo, f_hi = f(lo), f(hi)
    assume(f_lo != 0.0 and f_hi != 0.0 and (f_lo < 0.0) != (f_hi < 0.0))
    got = scattering._brent(f, lo, hi, xtol=xtol, rtol=rtol)
    want = brentq(f, lo, hi, xtol=xtol, rtol=rtol)
    assert got.hex() == float(want).hex()


def test_root_finds_match_scipy_brentq(step_zero, step_a, monkeypatch):
    # both of the module's root finds, with brentq in place of _brent
    sol = neumann_ground_state(step_zero, 50.0)
    oracle = trial_wavenumber(1.0e3, step_a)
    monkeypatch.setattr(
        scattering, "_brent",
        lambda f, a, b, xtol, rtol: brentq(f, a, b, xtol=xtol, rtol=rtol))
    assert neumann_ground_state(step_zero, 50.0).lam == sol.lam
    assert trial_wavenumber(1.0e3, step_a).k == oracle.k


def test_brent_same_sign_bracket_raises():
    with pytest.raises(SolverError, match="no sign change"):
        scattering._brent(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 1e-15)


def test_brent_out_of_iterations_raises():
    with pytest.raises(SolverError, match="no convergence"):
        scattering._brent(math.atan, -1.0, 3.0, 1e-280, 8.9e-16, maxiter=3)


def test_brent_nan_raises():
    with pytest.raises(SolverError, match="NaN"):
        scattering._brent(lambda x: math.nan if x > 0.0 else -1.0,
                          -1.0, 1.0, 1e-12, 1e-15)


@pytest.mark.parametrize("lo,hi", [(0.0, 2.0), (-2.0, 0.0)])
def test_brent_exact_zero_at_an_end(lo, hi):
    calls = []

    def f(x):
        calls.append(x)
        return x

    root = 0.0 if lo == 0.0 else hi
    assert scattering._brent(f, lo, hi, 1e-12, 1e-15) == root
    assert calls == [lo, hi]


def neumann_at_reference(sol, r):
    """(f, f') with the interior profile evaluated at min(r, r0) for
    every radius, and np.where picking the branch.  The tail calls gp2d's
    own J0/Y0/J1/Y1 one by one: this pins the evaluation order, not the
    Bessel values."""
    r = np.asarray(r, float)
    r0 = sol.pot.r0
    f_in, fp_in = scattering._panel_profile(*sol._panels, np.minimum(r, r0))
    k = np.sqrt(sol.lam)
    c1, c2 = sol._c_bessel
    kr = k * np.maximum(r, r0)
    f_out = sol._scale * (c1 * bessel.j0(kr) + c2 * bessel.y0(kr))
    fp_out = -sol._scale * k * (c1 * bessel.j1(kr) + c2 * bessel.y1(kr))
    return (np.where(r <= r0, sol._scale * f_in, f_out),
            np.where(r <= r0, sol._scale * fp_in, fp_out))


def zero_at_reference(zero, r):
    r = np.asarray(r, float)
    r0 = zero.pot.r0
    phi, dphi = zero.series.profile(0.0, np.minimum(r, r0))
    out = np.maximum(r, r0)
    return (np.where(r <= r0, phi, zero.log_slope * np.log(out / zero.a)),
            np.where(r <= r0, dphi, zero.log_slope / out))


def same_bits(got, want):
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


def probe_radii(r0, R):
    """Array and scalar probes, among them r = 0, r0 and radii past r0."""
    nodes = np.concatenate((np.linspace(0.0, r0, 17),
                            np.geomspace(r0, R, 17)))
    return [nodes, 0.0, 0.5 * r0, r0, np.nextafter(r0, np.inf), 2.0 * r0, R]


@pytest.fixture(scope="module")
def fallback_sol():
    # the lambda r0^2 >> 1 case: the interior profile is solved at lambda
    pot = step(200.0, 1.0)
    return neumann_ground_state(scattering_length(pot), 1.05)


@pytest.mark.parametrize("which", ["series", "ode"])
def test_neumann_profile_bitwise_as_before(which, neumann_r50, fallback_sol):
    sol = neumann_r50 if which == "series" else fallback_sol
    for r in [sol.nodes] + probe_radii(sol.pot.r0, sol.R):
        f, fp = neumann_at_reference(sol, r)
        assert same_bits(sol.f_at(r), f)
        assert same_bits(sol.f_prime_at(r), fp)


@pytest.mark.parametrize("which", ["series", "fallback"])
def test_f_alone_bitwise_as_with_f_prime(which, neumann_r50, fallback_2000):
    # f_at and w_at sum the f row and J0/Y0 alone; their values are the
    # bits of the f row of the (f, f') evaluation
    sol = neumann_r50 if which == "series" else fallback_2000
    if which == "fallback":
        assert sol.lam * sol.pot.r0 ** 2 > 100.0
    for r in [sol.nodes] + probe_radii(sol.pot.r0, sol.R):
        f = sol._at(r)[0]
        assert same_bits(sol.f_at(r), f)
        assert same_bits(sol.w_at(r), 1.0 - f)


def test_profile_on_the_nodes_is_kept_read_only(step_zero):
    # the ground-state certificate evaluates f on the nodes once; every
    # reader shares the two arrays, so neither can be written through
    sol = neumann_ground_state(step_zero, 50.0)
    assert {"nodes", "f_nodes"} <= set(vars(sol))
    assert sol.nodes is sol.nodes and sol.f_nodes is sol.f_nodes
    assert not sol.nodes.flags.writeable
    assert not sol.f_nodes.flags.writeable
    assert same_bits(sol.f_nodes, sol.f_at(sol.nodes))


def test_zero_energy_profile_bitwise_as_before(step_pot, neumann_r50):
    zero = scattering_length(step_pot)
    for r in [neumann_r50.nodes] + probe_radii(step_pot.r0, 50.0):
        phi, dphi = zero_at_reference(zero, r)
        assert same_bits(zero.phi_at(r), phi)
        assert same_bits(zero.phi_prime_at(r), dphi)


class CountingSeries:
    """An interior series that records the radii its profile is read at."""

    def __init__(self, series):
        self.series, self.radii = series, []

    def profile(self, lam, r):
        self.radii.append(np.ravel(r))
        return self.series.profile(lam, r)


def test_interior_profile_read_only_inside(step_pot, neumann_r50,
                                          monkeypatch):
    r0 = step_pot.r0
    in_zero = CountingSeries(interior_series(step_pot))
    zero = scattering_length(step_pot)._replace(series=in_zero)
    probes = [neumann_r50.nodes] + probe_radii(r0, neumann_r50.R)
    for r in probes:
        zero.phi_prime_at(r)
    # the Neumann profile sums its own panels: count the radii summed
    in_sol = []
    original = scattering._panel_profile

    def counted(edges, coef, r):
        in_sol.append(np.ravel(r))
        return original(edges, coef, r)

    monkeypatch.setattr(scattering, "_panel_profile", counted)
    for r in probes:
        neumann_r50.f_at(r)
    inside = np.concatenate([np.ravel(r) for r in probes])
    inside = inside[inside <= r0]
    for radii in (in_sol, in_zero.radii):
        np.testing.assert_array_equal(np.concatenate(radii), inside)


# --- Clenshaw panel sums against the chebvander sum they replaced ---------

def chebvander_profile(edges, coef, r):
    """The panel sum by the Chebyshev-Vandermonde matrix of the points and
    each point's gathered panel coefficients."""
    r = np.asarray(r, float)
    p = np.clip(np.searchsorted(edges, r) - 1, 0, len(edges) - 2)
    lo, hi = edges[p], edges[p + 1]
    x = (2.0 * r - lo - hi) / (hi - lo)
    t = chebvander(x, coef.shape[-1] - 1)
    return np.einsum("...m,...dm->d...", t, coef[p]), p


@pytest.fixture(scope="module")
def fallback_2000():
    # lambda r0^2 ~ 340: the interior at the root is solved at lambda alone
    # on several panels
    pot = step(2000.0, 1.0)
    return neumann_ground_state(scattering_length(pot), 1.05)


def panel_sums(pot, lam):
    """(edges, coef) of the lambda-weighted series that
    ``InteriorSeries.profile`` sums."""
    series = interior_series(pot)
    return series.edges, series._weights(lam)[:-1] @ series.coef[:, :, :-1]


@pytest.mark.parametrize("which", ["series", "bump", "fallback"])
def test_clenshaw_matches_chebvander_sum(which, neumann_r50, fallback_2000):
    # a one-panel series, a bisected one (the bump's edge at r0) and the
    # multi-panel fixed-lambda interior
    edges, coef = {
        "series": lambda: panel_sums(step(2.0, 1.0), neumann_r50.lam),
        "bump": lambda: panel_sums(gaussian_bump(3.0, 1.0), 0.3),
        "fallback": lambda: fallback_2000._panels}[which]()
    if which != "series":
        assert len(edges) > 2
    r = np.concatenate((np.linspace(0.0, edges[-1], 2001), edges))
    want, p = chebvander_profile(edges, coef, r)
    got = scattering._panel_profile(edges, coef, r)
    scale = np.abs(coef).sum(axis=-1)[p].T          # sum |c| per point
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - want) <= 4.0 * eps * scale)


def test_clenshaw_bits_do_not_depend_on_the_batch(fallback_2000):
    # each point's value is the same bits whichever points share the call
    edges, coef = fallback_2000._panels
    assert len(edges) > 2
    r = np.random.default_rng(5).uniform(0.0, edges[-1], 1500)
    full = scattering._panel_profile(edges, coef, r)
    order = np.random.default_rng(6).permutation(len(r))
    assert same_bits(scattering._panel_profile(edges, coef, r[order]),
                     full[:, order])
    for part in (slice(0, 1), slice(3, 40), slice(700, None, 7)):
        assert same_bits(scattering._panel_profile(edges, coef, r[part]),
                         full[:, part])
    for i in (0, 17, 1499):
        assert same_bits(scattering._panel_profile(edges, coef, r[i]),
                         full[:, i])
    assert scattering._panel_profile(edges, coef, r[:0]).shape == (2, 0)


# --- the outward bracket against the scan up from 1e-3 lam_est ------------

def scan_root(zero, R):
    """lambda from the earlier bracket, a 72-point scan up from 1e-3 times
    the estimate, and the number of mismatches it evaluates."""
    L = math.log(R / zero.a)
    lam_est = (2.0 / (R * R * L)) * (1.0 + 0.75 / L)
    seen = {}

    def g(lam):
        if lam not in seen:
            seen[lam] = scattering._neumann_mismatch(zero, R, lam)[0]
        return seen[lam]

    scan = lam_est * np.concatenate((np.geomspace(1e-3, 0.5, 12),
                                     np.linspace(0.55, 10.0, 60)))
    for lo, hi in zip(scan[:-1], scan[1:]):
        if np.sign(g(hi)) != np.sign(g(lo)):
            return scattering._brent(g, lo, hi, xtol=1e-280,
                                     rtol=8.9e-16), len(seen)
    raise AssertionError("no bracket in the scan")


BRACKET_RADII = [1.05, 1.3, 10.0, 1.0e3, 1.0e6, 1.0e15, 1.0e30]


@pytest.mark.parametrize("v0", [2000.0, 200.0, 10.0, 1.0])
def test_outward_bracket_matches_scan(v0, monkeypatch):
    zero = scattering_length(step(v0, 1.0))
    calls = []
    original = scattering._neumann_mismatch

    def counted(zero, R, lam):
        calls.append(lam)
        return original(zero, R, lam)

    for R in BRACKET_RADII:
        want, scanned = scan_root(zero, R)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(scattering, "_neumann_mismatch", counted)
            got = neumann_ground_state(zero, R).lam
        assert abs(got - want) <= 4.0 * np.finfo(float).eps * want, R
        assert len(calls) == len(set(calls)) <= min(16, scanned), R


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_outward_bracket_stays_in_its_window(sign, step_zero, monkeypatch):
    # a mismatch of one sign: the search walks to the end of the window on
    # the side the sign points to, by the fixed ratio, and raises there
    seen = []

    def one_sign(zero, R, lam):
        seen.append(lam)
        return sign, (1.0, 0.0), None

    monkeypatch.setattr(scattering, "_neumann_mismatch", one_sign)
    with pytest.raises(SolverError, match="no sign change"):
        neumann_ground_state(step_zero, 50.0)
    lo, hi = (w * seen[0] for w in scattering._BRACKET_WINDOW)
    assert seen[-1] == (hi if sign > 0 else lo)
    walk = np.array(seen[:-1])                # from the estimate, unclipped
    want = scattering._BRACKET_RATIO ** (1 if sign > 0 else -1)
    assert len(walk) > 5
    np.testing.assert_allclose(walk[1:] / walk[:-1], want, rtol=1e-15)


def test_export_solution_csv_bytes_as_per_row(neumann_r50, fallback_2000):
    # the text is character for character the one the row-by-row writer
    # of numpy scalars made
    for sol in (neumann_r50, fallback_2000):
        f, f_prime = sol._at(sol.nodes)
        want = "r,f,w,fprime\n" + "".join(
            f"{r:.17g},{f:.17g},{w:.17g},{fp:.17g}\n"
            for r, f, w, fp in zip(sol.nodes, f, 1.0 - f, f_prime))
        assert solution_csv(sol) == want

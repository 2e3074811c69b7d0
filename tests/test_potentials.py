import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import j0, j1

from gp2d.errors import ConfigError
from gp2d.quadrature import support_rule
from gp2d.potentials import (TABLE_HEADER, RadialPotential,
                             fourier_transform_radial, free, gaussian_bump,
                             load_table, save_table, step, tabulated)
from gp2d.scattering import scattering_length


def test_step_evaluation():
    pot = step(2.0, 1.0)
    assert pot(0.0) == 2.0
    assert pot(1.0) == 2.0
    assert pot(1.0000001) == 0.0
    r = np.array([0.2, 0.9, 1.5])
    np.testing.assert_array_equal(pot(r), [2.0, 2.0, 0.0])


def test_bump_support_and_smoothness():
    pot = gaussian_bump(3.0, 1.0)
    assert pot(0.0) == 3.0
    assert pot(1.0) == 0.0
    assert pot(2.0) == 0.0
    # value decays smoothly toward the edge of the support
    assert pot(0.999) < 1e-100


def test_negative_strength_rejected():
    with pytest.raises(ConfigError):
        step(-1.0, 1.0)
    with pytest.raises(ConfigError):
        step(1.0, 0.0)


def test_free_is_zero():
    pot = free()
    assert pot.is_zero
    assert pot(0.5) == 0.0
    assert not step(2.0, 1.0).is_zero


def test_step_transform_matches_closed_form():
    # 2*pi * integral_0^b V0 J0(kr) r dr = 2*pi*V0*b*J1(kb)/k
    pot = step(2.0, 1.0)
    for k in (0.3, 1.0, 4.7, 20.0):
        want = 2.0 * math.pi * 2.0 * j1(k) / k
        got = fourier_transform_radial(pot, k)
        assert got == pytest.approx(want, rel=1e-10)


def test_step_transform_to_rounding_up_to_k_100():
    # the rule: summed with scipy's J0 it gives the closed form to 5e-16
    # of max |Vhat| = pi v0 r0^2; through hankel_j0, whose moment series
    # cancels terms of up to about 10 times the sum for 5 < k r0 <= 6.45,
    # to 2.5e-15 of it
    v0, r0 = 2.0, 0.8
    pot = step(v0, r0)
    ks = np.linspace(0.05, 100.0, 1999)
    want = 2.0 * math.pi * v0 * r0 * j1(ks * r0) / ks
    size = math.pi * v0 * r0 * r0
    rule = []
    for k in ks:
        nodes, wts = support_rule(pot.breaks, k)
        rule.append(2.0 * math.pi * np.dot(wts * v0 * nodes, j0(k * nodes)))
    assert np.abs(np.array(rule) - want).max() <= 1e-15 * size
    got = fourier_transform_radial(pot, ks)
    assert np.abs(got - want).max() <= 4e-15 * size


def _piecewise_linear_transform(r, v, k):
    """2 pi int V J0(k r) r dr for V linear between the nodes (r, v), to
    30 digits, piece by piece."""
    mp.mp.dps = 30
    k = mp.mpf(k)
    total = mp.mpf(0)
    for ra, rb, va, vb in zip(*(map(mp.mpf, x) for x in
                                (r[:-1], r[1:], v[:-1], v[1:]))):
        slope = (vb - va) / (rb - ra)
        total += mp.quad(lambda x: (va + slope * (x - ra))
                         * mp.besselj(0, k * x) * x, [ra, rb])
    return 2 * mp.pi * total


def test_table_transform_exact_between_kinks():
    # a random 25-node table: its kinks are breaks of the support rule,
    # so the rule integrates the piecewise-linear V to rounding
    rng = np.random.default_rng(25)
    r = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 23)), [1.0]))
    v = np.concatenate((rng.uniform(0.2, 3.0, 24), [0.0]))
    pot = tabulated(r, v)
    np.testing.assert_array_equal(pot.breaks, r)
    for k in (0.0, 3.0, 30.0):
        want = float(_piecewise_linear_transform(r, v, k))
        assert abs(fourier_transform_radial(pot, k) - want) <= \
            1e-13 * abs(want)


def test_breaks_are_the_kinks_inside_the_support():
    assert step(2.0, 0.7).breaks.tolist() == [0.0, 0.7]
    assert gaussian_bump(2.0, 0.7).breaks.tolist() == [0.0, 0.7]
    # a node at 0 or past r0 is no break
    pot = tabulated(np.array([0.0, 0.2, 0.5, 0.9, 1.3]),
                    np.array([1.0, 2.0, 0.5, 0.0, 0.0]))
    assert pot.breaks.tolist() == [0.0, 0.2, 0.5, 0.9]


def test_transform_at_zero_is_area_integral():
    pot = step(1.5, 0.7)
    assert fourier_transform_radial(pot, 0.0) == pytest.approx(
        math.pi * 1.5 * 0.7 ** 2, rel=1e-12)


def test_transform_vectorized_matches_scalar():
    pot = gaussian_bump(3.0, 1.0)
    ks = np.array([0.0, 0.5, 2.0, 11.0])
    vec = fourier_transform_radial(pot, ks)
    for k, v in zip(ks, vec):
        assert v == pytest.approx(fourier_transform_radial(pot, float(k)),
                                  rel=1e-12)


def test_bump_transform_against_adaptive_quadrature():
    pot = gaussian_bump(3.0, 1.0)
    for k in (0.9, 6.0):
        want, _ = quad(lambda r: pot(r) * j0(k * r) * r, 0.0, 1.0,
                       limit=200, epsabs=1e-13)
        want *= 2.0 * math.pi
        assert fourier_transform_radial(pot, k) == pytest.approx(
            want, rel=1e-9, abs=1e-12)


def test_tabulated_roundtrip(tmp_path):
    r = np.linspace(0.0, 1.0, 50)
    v = np.clip(1.0 - r, 0.0, None)
    pot = tabulated(r, v)
    path = tmp_path / "pot.txt"
    save_table(pot, path)
    back = load_table(path)
    np.testing.assert_allclose(back(r), pot(r), rtol=0, atol=1e-15)
    assert back(2.0) == 0.0


def test_load_table_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.0 1.0\n1.0 0.0\n")
    with pytest.raises(ConfigError):
        load_table(path)


def test_one_row_table_is_a_step(tmp_path):
    # the row (0.5, 1) is a step of height 1 on [0, 0.5]
    path = tmp_path / "one.txt"
    path.write_text(TABLE_HEADER + "\n0.5 1\n")
    pot, ref = load_table(path), step(1.0, 0.5)
    assert fourier_transform_radial(pot, 1.0) == \
        fourier_transform_radial(ref, 1.0)
    assert scattering_length(pot).a == scattering_length(ref).a


@pytest.mark.parametrize("body", ["", "# no data\n\n"])
def test_load_table_refuses_a_table_without_rows(tmp_path, body):
    path = tmp_path / "empty.txt"
    path.write_text(TABLE_HEADER + "\n" + body)
    with pytest.raises(ConfigError, match="no rows"):
        load_table(path)


@given(v0=st.floats(0.1, 50.0), b=st.floats(0.1, 2.0))
@settings(max_examples=25, deadline=None)
def test_step_zero_mode_property(v0, b):
    pot = step(v0, b)
    assert fourier_transform_radial(pot, 0.0) == pytest.approx(
        math.pi * v0 * b * b, rel=1e-10)


@given(k=st.floats(0.01, 30.0))
@settings(max_examples=25, deadline=None)
def test_transform_bounded_by_zero_mode(k):
    pot = step(2.0, 1.0)
    assert abs(fourier_transform_radial(pot, k)) <= \
        fourier_transform_radial(pot, 0.0) * (1 + 1e-12)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import j0, j1

from gp2d.errors import ConfigError
from gp2d.potentials import (RadialPotential, fourier_transform_radial, free,
                             gaussian_bump, load_table, save_table, step,
                             tabulated)


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

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import j0, j1

from gp2d.errors import QuadratureError
from gp2d.quadrature import (geometric_bounds, gl_nodes_weights,
                             merge_bounds, panel_bounds_hankel)


def test_polynomial_exactness():
    # 16-node Gauss-Legendre is exact through degree 31 on each panel
    bounds = np.array([0.0, 0.3, 1.0, 2.5])
    nodes, wts = gl_nodes_weights(bounds)
    for deg in (0, 5, 17, 31):
        got = float(np.sum(wts * nodes ** deg))
        want = 2.5 ** (deg + 1) / (deg + 1)
        assert got == pytest.approx(want, rel=1e-13)


def test_integrate_panels_matches_weights():
    nodes, wts = gl_nodes_weights(geometric_bounds(0.0, 1.0))
    val = np.dot(wts, np.exp(-nodes))
    assert val == pytest.approx(1.0 - math.exp(-1.0), rel=1e-13)


def test_logarithmic_integrand():
    # log-singular profiles are the normal case near the origin
    nodes, wts = gl_nodes_weights(geometric_bounds(0.0, 1.0))
    val = np.dot(wts, np.log(nodes) * nodes)
    assert val == pytest.approx(-0.25, rel=1e-12)


def test_hankel_bounds_split_at_bessel_zeros():
    k = 40.0
    bounds = panel_bounds_hankel(0.0, 1.0, k)
    vals = j0(k * bounds[1:-1])
    # every interior Bessel zero below k is a panel boundary
    zero_count = np.count_nonzero(np.abs(vals) < 1e-9)
    assert zero_count >= int(k / math.pi) - 2


def test_oscillatory_integral_closed_form():
    # integral_0^1 J0(k r) r dr = J1(k)/k
    for k in (7.0, 55.0):
        bounds = panel_bounds_hankel(0.0, 1.0, k)
        nodes, wts = gl_nodes_weights(bounds)
        got = float(np.sum(wts * j0(k * nodes) * nodes))
        assert got == pytest.approx(j1(k) / k, rel=1e-12, abs=1e-15)


def test_empty_interval_rejected():
    with pytest.raises(QuadratureError):
        geometric_bounds(1.0, 1.0)
    with pytest.raises(QuadratureError):
        geometric_bounds(2.0, 1.0)


@given(k=st.floats(0.5, 200.0))
@settings(max_examples=25, deadline=None)
def test_oscillatory_property(k):
    bounds = panel_bounds_hankel(0.0, 1.0, k)
    nodes, wts = gl_nodes_weights(bounds)
    got = float(np.sum(wts * j0(k * nodes) * nodes))
    assert got == pytest.approx(j1(k) / k, rel=1e-9, abs=1e-13)


def test_bounds_are_increasing_and_cover():
    bounds = panel_bounds_hankel(0.0, 2.0, 13.0)
    assert bounds[0] == 0.0
    assert bounds[-1] == 2.0
    assert np.all(np.diff(bounds) > 0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.sampled_from([0.0, 0.25, 1.0, 1e-12, 3.5, 7.0]),
                         max_size=6), min_size=1, max_size=4))
def test_merge_bounds_is_sorted_union(parts):
    got = merge_bounds(*[np.array(p, float) for p in parts])
    want = np.unique(np.concatenate([np.array(p, float) for p in parts]))
    assert got.tobytes() == want.tobytes()

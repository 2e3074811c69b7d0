"""gp2d's own Bessel functions against scipy.special, the oracle here."""
import math

import numpy as np
import pytest
from scipy import special

from gp2d import bessel
from gp2d.quadrature import geometric_bounds, gl_nodes_weights

FUNCTIONS = ("j0", "j1", "y0", "y1")
# a log grid over the whole axis, plus both sides of the regime edge x = 5
GRID = np.concatenate((np.geomspace(1e-10, 1e5, 20001),
                       np.linspace(4.9, 5.1, 2001),
                       [np.nextafter(5.0, 0.0), 5.0, np.nextafter(5.0, 6.0)]))


@pytest.mark.parametrize("name", FUNCTIONS)
def test_matches_scipy_on_log_grid(name):
    got = getattr(bessel, name)(GRID)
    want = getattr(special, name)(GRID)
    # relative where |f| is of the size of its envelope, absolute near zeros
    scale = np.maximum(np.abs(want),
                       np.minimum(1.0, np.sqrt(2.0 / (np.pi * GRID))))
    assert np.max(np.abs(got - want) / scale) <= 3e-14


@pytest.mark.parametrize("name", FUNCTIONS)
def test_scalar_path_is_array_path_bitwise(name):
    fn = getattr(bessel, name)
    xs = GRID[::7]
    scalars = [fn(float(x)) for x in xs]
    assert all(type(v) is float for v in scalars)
    assert np.array(scalars).tobytes() == fn(xs).tobytes()
    # numpy float64 scalars take the scalar path, and short arrays give
    # the values of long ones
    assert fn(np.float64(xs[100])) == scalars[100]
    assert fn(xs[95:105]).tobytes() == fn(xs)[95:105].tobytes()


def test_fused_values_are_the_single_ones_bitwise():
    xs = GRID[::5]
    fused = bessel.jy01(xs)
    for got, name in zip(fused, ("j0", "y0", "j1", "y1")):
        assert got.tobytes() == getattr(bessel, name)(xs).tobytes()
    for n in (0, 1):
        j, y = bessel.jy(xs, n)
        assert j.tobytes() == getattr(bessel, f"j{n}")(xs).tobytes()
        assert y.tobytes() == getattr(bessel, f"y{n}")(xs).tobytes()
    for x in (0.3, 4.0, 7.5, 2.0e4):
        assert bessel.jy01(x) == tuple(float(v[()]) for v in
                                       bessel.jy01(np.array(x)))


def test_parity_and_special_points():
    x = GRID[::3]
    assert np.array_equal(bessel.j0(-x), bessel.j0(x))
    assert np.array_equal(bessel.j1(-x), -bessel.j1(x))
    assert bessel.j1(-2.5) == -bessel.j1(2.5)
    assert np.all(np.isnan(bessel.y0(-x))) and math.isnan(bessel.y1(-1.0))
    assert (bessel.j0(0.0), bessel.j1(0.0)) == (1.0, 0.0)
    assert bessel.y0(0.0) == bessel.y1(0.0) == -math.inf
    assert bessel.jy01(math.inf) == (0.0, 0.0, 0.0, 0.0)
    assert math.isnan(bessel.j0(math.nan))
    got = bessel.y1(np.array([[0.0, 1.0], [6.0, np.inf]]))
    assert got.shape == (2, 2) and got[0, 0] == -np.inf and got[1, 1] == 0.0
    assert got[1, 0] == bessel.y1(6.0)


def test_j0_zeros_match_scipy():
    got = bessel.j0_zeros(4096)
    want = special.jn_zeros(0, 4096)
    assert np.max(np.abs(got - want) / want) <= 7e-16


@pytest.mark.parametrize("scale", [1.0, 37.0])
def test_hankel_sum_matches_j0_matrix(scale):
    rng = np.random.default_rng(5)
    nodes, wts = gl_nodes_weights(geometric_bounds(0.0, scale, 8))
    edge = bessel._X_MOMENT / nodes.max()
    k = np.concatenate((np.geomspace(1e-9 * edge, edge, 300),
                        np.linspace(edge, 40.0 * edge, 60), [0.0]))
    for w in (wts * nodes, wts * rng.standard_normal(len(nodes))):
        want = special.j0(np.multiply.outer(k, nodes)) @ w
        got = bessel.hankel_j0(k, nodes, w)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.abs(w).sum()


def test_hankel_sum_rows_are_independent():
    # each wavenumber's value is the same whatever else is asked with it
    nodes, wts = gl_nodes_weights(geometric_bounds(0.0, 1.0, 8))
    w = wts * np.cos(3.0 * nodes)
    k = np.array([0.0, 1e-4, 0.5, 6.0, 6.45, 6.5, 30.0, 400.0])
    together = bessel.hankel_j0(k, nodes, w)
    alone = [bessel.hankel_j0(kk, nodes, w) for kk in k]
    assert np.array(alone).tobytes() == together.tobytes()
    assert bessel.hankel_j0(k.reshape(2, 4), nodes, w).shape == (2, 4)
    assert bessel.hankel_j0(0.0, nodes, w) == pytest.approx(w.sum(),
                                                            rel=1e-15)

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gp2d.errors import ConfigError
from gp2d.lattice import TWO_PI, build_lattice


def brute_force_points(cutoff):
    nmax = int(cutoff / TWO_PI) + 1
    pts = []
    for n1, n2 in itertools.product(range(-nmax, nmax + 1), repeat=2):
        if (n1, n2) == (0, 0):
            continue
        if TWO_PI * math.hypot(n1, n2) <= cutoff:
            pts.append((n1, n2))
    return set(pts)


@pytest.mark.parametrize("mult", [1, 2, 3, 5])
def test_point_set_matches_brute_force(mult):
    lat = build_lattice(TWO_PI * mult)
    got = {tuple(p) for p in lat.ints}
    assert got == brute_force_points(TWO_PI * mult)


def test_ordering_graded_then_lexicographic():
    lat = build_lattice(TWO_PI * 4)
    keys = [(round(n, 9), tuple(p)) for n, p in zip(lat.norms2, lat.ints)]
    assert keys == sorted(keys)


def test_norms_match_points():
    lat = build_lattice(TWO_PI * 3)
    want = TWO_PI ** 2 * (lat.ints[:, 0] ** 2 + lat.ints[:, 1] ** 2)
    np.testing.assert_allclose(lat.norms2, want, rtol=1e-14)


@pytest.mark.parametrize("mult", [1, 3, 16])
def test_radial_structure(mult):
    lat = build_lattice(TWO_PI * mult)
    assert np.array_equal(lat.norms, np.sqrt(lat.norms2))
    rounded = np.round(lat.norms, 12)
    assert np.all(np.diff(lat.distinct_norms) > 0)
    assert np.array_equal(lat.distinct_norms[lat.inverse], rounded)
    # first holds the lowest index of each distinct |p|
    assert np.array_equal(rounded[lat.first], lat.distinct_norms)
    for k, i in enumerate(lat.first):
        assert np.flatnonzero(lat.inverse == k)[0] == i
    # modes of one |n|^2 share |p| bit for bit, and no two |n|^2 share it
    n2 = lat.ints[:, 0] ** 2 + lat.ints[:, 1] ** 2
    assert np.array_equal(lat.norms, lat.norms[lat.first][lat.inverse])
    assert len(lat.first) == len(np.unique(n2))


def test_negation_is_involution():
    lat = build_lattice(TWO_PI * 3)
    neg = np.array([lat.index_of(-a, -b) for a, b in lat.ints.tolist()])
    assert np.array_equal(neg[neg], np.arange(lat.size))
    np.testing.assert_array_equal(lat.ints[neg], -lat.ints)


def test_index_of_roundtrip():
    lat = build_lattice(TWO_PI * 2)
    for i, (n1, n2) in enumerate(lat.ints):
        assert lat.index_of(int(n1), int(n2)) == i


def test_zero_mode_excluded():
    lat = build_lattice(TWO_PI * 2)
    assert not np.any(np.all(lat.ints == 0, axis=1))
    assert np.all(lat.norms2 > 0)


def test_small_cutoff_rejected():
    with pytest.raises(ConfigError):
        build_lattice(TWO_PI * 0.5)


@given(mult=st.integers(1, 12))
@settings(max_examples=12, deadline=None)
def test_size_grows_like_disk_area(mult):
    lat = build_lattice(TWO_PI * mult)
    area = math.pi * mult ** 2
    assert abs(lat.size - area) <= 4 * mult + 4

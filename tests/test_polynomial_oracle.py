"""gp2d's own Gauss-Legendre rule, Chebyshev tables and line fit against
numpy.polynomial, bit for bit.

The package computes these three without importing numpy.polynomial (see
``tests/test_cli.py``), so each must repeat numpy.polynomial's result to
the last bit: every Neumann profile, eta table and sweep slope is built on
them.
"""
import math

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebvander
from numpy.polynomial.legendre import leggauss
from numpy.polynomial.polynomial import polyfit

from gp2d import quadrature, scattering
from gp2d.config import RunConfig
from gp2d.energy import (EnergyRecord, Pipeline, SweepDataset, sweep,
                         vacuum_slope_fit)


def test_gauss_legendre_literals_equal_leggauss():
    nodes, weights = leggauss(16)
    assert quadrature._GL_NODES.tobytes() == nodes.tobytes()
    assert quadrature._GL_WEIGHTS.tobytes() == weights.tobytes()


def test_cheb_tables_equal_numpy_polynomial():
    n = scattering._PANEL_NODES
    x = -np.cos(np.pi * (np.arange(n) + 0.5) / n)
    to_coef = (2.0 / n) * chebvander(x, n - 1).T
    to_coef[0] *= 0.5
    int1 = chebint(to_coef, lbnd=-1.0)
    int2 = chebint(to_coef, m=2, lbnd=-1.0)
    want = (x, to_coef, int1, int2, chebvander(x, n) @ int1,
            chebvander(x, n + 1) @ int2)
    got = scattering._cheb_tables(n)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    # the module's tables are these
    for g, table in zip(got, (scattering._CHEB_X, scattering._TO_COEF,
                              scattering._INT1, scattering._INT2,
                              scattering._Q1, scattering._Q2)):
        assert g.tobytes() == table.tobytes()


def _polyfit_slope(ds: SweepDataset) -> float:
    pts = [(r.N, r.E_vac) for r in ds.sorted_records() if not r.dim]
    x = np.log([float(n) for n, _ in pts])
    y = np.array([ev - 2.0 * np.pi * n for n, ev in pts])
    return float(polyfit(x, y, 1)[1])


def test_slope_fit_equals_polyfit():
    ds = sweep(Pipeline(RunConfig(fock_n_max=3)))
    assert sum(not r.dim for r in ds.records) == 26
    assert vacuum_slope_fit(ds).hex() == _polyfit_slope(ds).hex()
    # and on noisy trajectories of other lengths
    rng = np.random.default_rng(7)
    for count in (3, 4, 11, 40):
        ns = 2 + np.sort(rng.choice(300, count, replace=False))
        records = [EnergyRecord(int(n), 1.0, 1.0, 0,
                                2 * math.pi * n + 9.4 * math.log(n)
                                + rng.normal(), math.nan, math.nan, 0.0,
                                0.0, 0.0) for n in ns]
        ds = SweepDataset(records, "")
        assert vacuum_slope_fit(ds).hex() == _polyfit_slope(ds).hex()

import dataclasses
import math

import numpy as np
import pytest

from gp2d import fock
from gp2d.config import RunConfig, fingerprint
from gp2d.energy import (EnergyRecord, Pipeline, SweepDataset, compute_record,
                         depletion_products, ground_state, load_dataset,
                         sweep, sweep_grid, vacuum_slope_fit,
                         vacuum_upper_bound, write_dataset)
from gp2d.fock import (LinearOperator, build_basis, effective_hamiltonians,
                       shell_modes)
from gp2d.kernels import GPParameters, renormalized_potential
from gp2d.lattice import TWO_PI, build_lattice

SMALL = RunConfig(n_min=10, n_max=14, n_step=2, fock_n_max=4,
                  cutoff=TWO_PI * 4)


def test_vacuum_upper_bound_formula(step_pot, neumann_r50):
    params = GPParameters(10, 1.5)
    renorm = renormalized_potential(params, neumann_r50.lam_R2,
                                    build_lattice(TWO_PI * 2))
    assert vacuum_upper_bound(params, renorm) == pytest.approx(
        0.5 * renorm.omega0 * 9, rel=1e-14)


def test_ground_state_diagonal_oracle():
    basis = build_basis(shell_modes(4), 2)
    diag = np.arange(basis.dim, dtype=float)[::-1] + 0.25
    op = LinearOperator(np.diag(diag.astype(complex)), "D", hermitian=True)
    e0, vec, depletion = ground_state(op, basis)
    assert e0 == pytest.approx(diag.min(), rel=1e-14)
    i = int(np.argmax(np.abs(vec)))
    assert diag[i] == diag.min()


def test_ground_state_depletion_range(step_pot):
    basis = build_basis(shell_modes(4), 3)
    rng = np.random.default_rng(3)
    m = rng.normal(size=(basis.dim, basis.dim))
    op = LinearOperator((m + m.T).astype(complex), "rand", hermitian=True)
    _, _, depletion = ground_state(op, basis)
    assert 0.0 <= depletion <= 1.0


def test_ground_state_blockwise_matches_dense(step_pot):
    # the lowest eigenpair over the momentum sectors is the lowest of the
    # whole matrix
    from gp2d.scattering import neumann_ground_state
    params = GPParameters(3, 2.5)
    sol = neumann_ground_state(step_pot, params.R)
    renorm = renormalized_potential(params, sol.lam_R2,
                                    build_lattice(TWO_PI * 8))
    basis = build_basis(shell_modes(8), 3)
    R = effective_hamiltonians(basis, renorm, step_pot, params)["R_eff"]
    assert R.part is basis.sectors
    e0, vec, depletion = ground_state(R, basis)
    dense = LinearOperator(R.mat, "R dense", hermitian=True)
    e0_d, vec_d, depletion_d = ground_state(dense, basis)
    assert e0 == pytest.approx(e0_d, rel=1e-13)
    assert depletion == pytest.approx(depletion_d, rel=1e-10)
    assert abs(vec @ vec_d) == pytest.approx(1.0, rel=1e-12)
    assert R.expectation(vec) == pytest.approx(e0, rel=1e-12)


def test_record_csv_row_format():
    rec = EnergyRecord(10, 1.5, TWO_PI * 4, 0, 70.2, math.nan, math.nan,
                       0.25, 15.6, 12.3456)
    row = rec.csv_row()
    parts = row.split(",")
    assert parts[0] == "10"
    assert parts[3] == "0"
    assert parts[5] == "nan"
    assert parts[-1] == "12.346"


def test_compute_record_free_gas():
    pipe = Pipeline(dataclasses.replace(SMALL, potential="free"))
    rec = compute_record(pipe, 4, 2.5, True)
    assert rec.E_vac == 0.0
    assert rec.omega0 == 0.0
    assert rec.lambda_group == 0.0
    # free ground state is the vacuum at zero energy
    assert rec.E0 == pytest.approx(0.0, abs=1e-12)
    assert rec.depletion == pytest.approx(0.0, abs=1e-12)


def test_compute_record_builds_r_eff_alone(monkeypatch):
    # one operator build per Fock record, R_eff's: no H_N is assembled
    # for a ground state that does not read it
    pipe = Pipeline(SMALL)
    built = []
    build = fock.build_operator
    monkeypatch.setattr(fock, "build_operator", lambda *args, **kw:
                        built.append(args[2]) or build(*args, **kw))
    rec = compute_record(pipe, 3, SMALL.fock_alpha, True)
    assert built == ["R_eff"]
    # the same R_eff as the one effective_hamiltonians builds with H_N
    basis, ops = pipe.hamiltonians(3, SMALL.fock_alpha)
    E0, _, depletion = ground_state(ops["R_eff"], basis)
    assert (rec.dim, rec.E0, rec.depletion) == (basis.dim, E0, depletion)


def test_sweep_grid_composition():
    grid = sweep_grid(SMALL)
    fock = [g for g in grid if g[2]]
    scalar = [g for g in grid if not g[2]]
    assert [g[0] for g in fock] == [3, 4]
    assert all(g[1] == SMALL.fock_alpha for g in fock)
    assert [g[0] for g in scalar] == [10, 12, 14]
    assert all(g[1] == SMALL.alpha for g in scalar)


def test_sweep_roundtrip_and_resume(tmp_path):
    path = tmp_path / "sweep.csv"
    ds1 = sweep(SMALL, path)
    assert ds1.skipped == 0
    assert len(ds1.records) == 5
    back = load_dataset(path)
    assert back.fingerprint == fingerprint(SMALL)
    assert [r.key() for r in back.sorted_records()] == \
        [r.key() for r in ds1.sorted_records()]
    # a second run resumes every record without recomputing
    ds2 = sweep(SMALL, path)
    assert ds2.skipped == 5
    for a, b in zip(ds1.sorted_records(), ds2.sorted_records()):
        assert a.csv_row().rsplit(",", 1)[0] == \
            b.csv_row().rsplit(",", 1)[0]


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    """Text of the complete persisted sweep of SMALL."""
    path = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    sweep(SMALL, path)
    return path.read_text()


def _without_wall(text):
    return [ln.rsplit(",", 1)[0] for ln in text.splitlines()]


def test_truncated_dataset_resumes_whole_rows(tmp_path, small_csv):
    # a write cut off inside the last row: that row is rejected and
    # recomputed, the others resume
    path = tmp_path / "sweep.csv"
    path.write_text(small_csv[:-20])
    back = load_dataset(path)
    assert (len(back.records), back.rejected) == (4, 1)
    ds = sweep(SMALL, path)
    assert (ds.skipped, ds.rejected) == (4, 1)
    assert _without_wall(path.read_text()) == _without_wall(small_csv)


def test_truncated_header_is_no_dataset(tmp_path, small_csv):
    path = tmp_path / "sweep.csv"
    path.write_text(small_csv[:12])
    assert load_dataset(path) is None


@pytest.mark.parametrize("where", ["header", "cell", "bytes"])
def test_corrupted_dataset(tmp_path, small_csv, where):
    lines = small_csv.encode().splitlines(keepends=True)
    if where == "header":
        # a header token without '=': the file counts as no dataset
        lines[0] = lines[0].replace(b"fingerprint=", b"fingerprint ")
    else:
        cells = lines[3].split(b",")
        cells[4] = b"1.2.3" if where == "cell" else b"\xff\xfe"
        lines[3] = b",".join(cells)
    path = tmp_path / "sweep.csv"
    path.write_bytes(b"".join(lines))
    back = load_dataset(path)
    if where == "header":
        assert back is None
    else:
        assert (len(back.records), back.rejected) == (4, 1)
        ds = sweep(SMALL, path)
        assert (ds.skipped, ds.rejected) == (4, 1)
        assert _without_wall(path.read_text()) == _without_wall(small_csv)


def test_schema_mismatch_recomputes(tmp_path, small_csv):
    path = tmp_path / "sweep.csv"
    path.write_text(small_csv.replace("schema=gp2d-sweep-v1",
                                      "schema=gp2d-sweep-v0", 1))
    ds = sweep(SMALL, path)
    assert ds.skipped == 0
    assert load_dataset(path).schema == "gp2d-sweep-v1"


def test_interrupted_write_keeps_previous_file(tmp_path, small_csv):
    class Unwritable:
        def key(self):
            return (0, 0.0, 0.0)

        def csv_row(self):
            raise OSError("device full")

    path = tmp_path / "sweep.csv"
    path.write_text(small_csv)
    with pytest.raises(OSError):
        write_dataset(SweepDataset([Unwritable()], "fp"), path)
    assert path.read_text() == small_csv


def test_fingerprint_mismatch_recomputes(tmp_path):
    path = tmp_path / "sweep.csv"
    sweep(SMALL, path)
    other = RunConfig(n_min=10, n_max=14, n_step=2, fock_n_max=4,
                      cutoff=TWO_PI * 4, alpha=2.0)
    ds = sweep(other, path)
    assert ds.skipped == 0
    assert load_dataset(path).fingerprint == fingerprint(other)


def test_vacuum_slope_fit_recovers_synthetic_slope():
    slope = 7.5
    records = [
        EnergyRecord(n, 1.0, 1.0, 0, 2 * math.pi * n + slope * math.log(n),
                     math.nan, math.nan, 0.0, 0.0, 0.0)
        for n in range(10, 61, 5)
    ]
    ds = SweepDataset(records, "", "gp2d-sweep-v1", 0)
    assert vacuum_slope_fit(ds) == pytest.approx(slope, rel=1e-12)


def test_depletion_products(tmp_path):
    ds = sweep(SMALL, tmp_path / "s.csv")
    prods = depletion_products(ds)
    assert len(prods) == 2
    assert all(p >= 0 for p in prods)

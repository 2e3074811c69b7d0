"""Energy trajectories, ground states, and persisted parameter sweeps."""

from __future__ import annotations

import math
import os
import time
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.linalg import eigh, eigvalsh, lstsq

from .audits import square_completion_mu
from .config import FOCK_N_MIN, RunConfig, fingerprint
from .errors import ConfigError, ConsistencyError, Gp2dError, SolverError
from .fock import (FockBasis, LinearOperator, build_basis, check_dim,
                   r_effective_hamiltonian, shell_modes)
from .kernels import (GPParameters, KernelTable, RenormPotential,
                      eta_coefficients, renormalized_potential)
from .lattice import MomentumLattice, build_lattice
from .potentials import RadialPotential
from .scattering import (NeumannSolution, ZeroEnergySolution, check_disk,
                         neumann_ground_state, scattering_length)

SCHEMA = "gp2d-sweep-v1"
CSV_COLUMNS = ("N", "alpha", "cutoff", "dim", "E_vac", "E0", "depletion",
               "lambda_group", "omega0", "wall_ms")
# the fewest trajectory points the vacuum slope fit takes
SLOPE_FIT_POINTS = 3


class Pipeline:
    """The chain of one run, each link computed on first use and kept.

    potential -> zero-energy solution (scattering length a), which
    carries the interior lambda-series whose lambda = 0 term it is ->
    Neumann profile on the disk of radius R = e^N ell -> eta table and
    omega_hat, on the run's one momentum lattice.  Each link, a refusal
    too, is kept in one memo (``_once``): a and the lattice per run, the
    last three per (N, alpha) from its one GPParameters, the basis per
    particle cap N.  Every command of a run reads from one Pipeline.

    Making the Pipeline checks the config by the rules of the layers that
    read it, so that a run they would refuse fails before any command
    runs: the potential is read; every mode of the shell must lie on the
    lattice; the basis at fock_n_max must fit the size cap (``check_dim``,
    without enumerating states); c_lower must pass
    ``square_completion_mu`` at ``lower_bound_n``; every (N, alpha) a
    command reads, (n_value, alpha) and each point of ``sweep_grid``, must
    make ``GPParameters`` whose disk holds the potential (``check_disk`` at
    log R) and whose R = e^N ell is representable; unless V = 0, the grid
    must hold ``SLOPE_FIT_POINTS`` trajectory points.  The grid is walked
    point by point, so a range that overflows is refused at its first bad
    point.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.pot: RadialPotential = cfg.make_potential()
        self._memo = {}
        # the one N of lower-bound's certificate
        self.lower_bound_n = min(4, cfg.fock_n_max)
        modes = shell_modes(cfg.shell)
        for m in modes:
            self.lattice.index_of(*m)
        check_dim(len(modes), cfg.fock_n_max)
        square_completion_mu(cfg.c_lower, self.lower_bound_n)
        points = 0
        # (n_value, alpha) is no grid point, so its None is not counted
        for N, alpha, with_fock in chain([(cfg.n_value, cfg.alpha, None)],
                                         sweep_grid(cfg)):
            params = self.params(N, alpha)
            check_disk(self.pot, params.log_R)
            params.R                     # refuses e^N beyond the guard
            points += with_fock is False
        if points < SLOPE_FIT_POINTS and not self.pot.is_zero:
            raise ConfigError(f"N_min..N_max by N_step gives {points} "
                              f"trajectory points; the slope fit needs at "
                              f"least {SLOPE_FIT_POINTS}")

    def _once(self, key: tuple, make):
        """The link at key, made on first read and kept; a Gp2dError from
        make is kept too and raised again, each time with a new traceback."""
        if key not in self._memo:
            try:
                self._memo[key] = make()
            except Gp2dError as exc:
                self._memo[key] = exc
        link = self._memo[key]
        if isinstance(link, Gp2dError):
            raise link.with_traceback(None)
        return link

    @property
    def zero(self) -> ZeroEnergySolution:
        return self._once(("zero",), lambda: scattering_length(self.pot))

    @property
    def lattice(self) -> MomentumLattice:
        return self._once(("lattice",), lambda: build_lattice(self.cfg.cutoff))

    def params(self, N: int, alpha: float) -> GPParameters:
        """The run's one GPParameters of (N, alpha)."""
        return self._once(("params", N, alpha), lambda: GPParameters(
            N, alpha, self.cfg.ell_scale))

    def neumann(self, N: int, alpha: float) -> NeumannSolution:
        return self._once(("neumann", N, alpha), lambda: neumann_ground_state(
            self.zero, self.params(N, alpha).R))

    def renorm(self, N: int, alpha: float) -> RenormPotential:
        return self._once(("renorm", N, alpha), lambda: renormalized_potential(
            self.params(N, alpha), self.neumann(N, alpha).lam_R2,
            self.lattice))

    def table(self, N: int, alpha: float) -> KernelTable:
        return self._once(("table", N, alpha), lambda: eta_coefficients(
            self.neumann(N, alpha), self.params(N, alpha), self.lattice))

    def basis(self, N: int) -> FockBasis:
        """Excitation basis of the run's mode shell at particle cap N,
        with the ladder table it builds on first use, kept per cap."""
        return self._once(("basis", N), lambda: build_basis(
            shell_modes(self.cfg.shell), N))


def vacuum_upper_bound(renorm: RenormPotential) -> float:
    """Vacuum expectation of the renormalized family at renorm's N."""
    return 0.5 * renorm.omega0 * (renorm.params.N - 1)


def eigsh(A, **options):
    """``scipy.sparse.linalg.eigsh``, imported on first call.  No gp2d
    function calls it: it stays only because the benchmark's tracer
    (``perfbench/spans.py``) rebinds this name and
    ``tests/test_bench_contract.py`` asserts that it exists, and it goes
    with the benchmark revision that stops rebinding it."""
    from scipy.sparse.linalg import eigsh as scipy_eigsh
    return scipy_eigsh(A, **options)


def ground_state(op: LinearOperator,
                 basis: FockBasis) -> tuple[float, np.ndarray, float]:
    """Smallest eigenpair over the blocks of op (``LinearOperator.lowest``:
    the values of every block, the vector of the lowest block alone), and
    the occupation fraction of its eigenvector.  On an orbit partition the
    vector lies in the stored sector of its orbit; a symmetry maps it to
    the other sectors' and keeps every occupation total, so the fraction
    is the same there."""
    e0, vec = op.lowest(eigvalsh, eigh)
    if not np.all(np.isfinite(vec)):
        raise ConsistencyError("non-finite amplitudes")
    depletion = float(basis.totals() @ np.abs(vec) ** 2) / basis.cap
    return e0, vec, depletion


class EnergyRecord(NamedTuple):
    N: int
    alpha: float
    cutoff: float
    dim: int
    E_vac: float
    E0: float
    depletion: float
    lambda_group: float
    omega0: float
    wall_ms: float

    def key(self):
        return _grid_key(self.N, self.alpha, self.cutoff)

    def csv_row(self) -> str:
        return ",".join([
            str(self.N), f"{self.alpha:.17g}", f"{self.cutoff:.17g}",
            str(self.dim), f"{self.E_vac:.17g}", f"{self.E0:.17g}",
            f"{self.depletion:.17g}", f"{self.lambda_group:.17g}",
            f"{self.omega0:.17g}", f"{self.wall_ms:.3f}",
        ])


class SweepDataset(NamedTuple):
    records: list
    fingerprint: str
    schema: str = SCHEMA
    skipped: int = 0
    rejected: int = 0     # persisted rows that did not parse or fit the grid

    def sorted_records(self):
        return sorted(self.records, key=lambda r: r.key())


def compute_record(pipe: Pipeline, N: int, alpha: float,
                   with_fock: bool) -> EnergyRecord:
    """One grid point of the pipeline: scattering through (optionally)
    the assembled effective Hamiltonian's ground state."""
    t0 = time.perf_counter()
    lam_group = pipe.neumann(N, alpha).lam_R2
    renorm = pipe.renorm(N, alpha)
    E_vac = vacuum_upper_bound(renorm)
    E0, depletion, dim = math.nan, math.nan, 0
    if with_fock:
        # R_eff alone: no H_N is alive during the eigensolve
        basis = pipe.basis(N)
        R_eff = r_effective_hamiltonian(basis, renorm, pipe.pot)
        dim = basis.dim
        E0, _, depletion = ground_state(R_eff, basis)
    wall = (time.perf_counter() - t0) * 1000.0
    return EnergyRecord(N, alpha, pipe.cfg.cutoff, dim, E_vac, E0, depletion,
                        lam_group, renorm.omega0, wall)


def _grid_key(N: int, alpha: float, cutoff: float) -> tuple:
    """(N, alpha, cutoff) with alpha rounded to 12 places, cutoff to 9."""
    return N, round(alpha, 12), round(cutoff, 9)


def sweep_grid(cfg: RunConfig):
    """The (N, alpha, with_fock) grid, point by point: small-N Fock builds
    plus the scalar trajectory."""
    for n in range(FOCK_N_MIN, cfg.fock_n_max + 1):
        yield n, cfg.fock_alpha, True
    for n in range(cfg.n_min, cfg.n_max + 1, cfg.n_step):
        yield n, cfg.alpha, False


def _grid_point(rec: EnergyRecord) -> tuple | None:
    """The grid point a persisted record is, its ``_grid_key`` plus
    with_fock, or None when it has the shape of no point: a Fock point
    has dim > 0 and finite E0 and depletion, a scalar point dim == 0."""
    if (rec.dim > 0 and math.isfinite(rec.E0)
            and math.isfinite(rec.depletion)):
        return rec.key() + (True,)
    return rec.key() + (False,) if rec.dim == 0 else None


def sweep(pipe: Pipeline, csv_path=None) -> SweepDataset:
    """Run the grid of pipe.cfg, skipping records persisted for it.

    A persisted row counts as done only when it is a point of the grid
    with that point's shape (``_grid_point``); every other row is dropped
    and counted in ``rejected``.  Records are computed one after another
    from ``pipe``.  When a record fails or the run is interrupted, the
    records loaded and computed so far are written before the exception
    goes on.
    """
    cfg = pipe.cfg
    fp = fingerprint(cfg)
    grid = {_grid_key(n, al, cfg.cutoff) + (wf,): (n, al, wf)
            for n, al, wf in sweep_grid(cfg)}
    done, rejected = {}, 0
    if csv_path is not None:
        loaded = load_dataset(csv_path)
        if (loaded is not None and loaded.schema == SCHEMA
                and loaded.fingerprint == fp):
            done = {at: rec for rec in loaded.records
                    if (at := _grid_point(rec)) in grid}
            rejected = loaded.rejected + len(loaded.records) - len(done)

    records = list(done.values())
    try:
        for key, point in grid.items():
            if key not in done:
                records.append(compute_record(pipe, *point))
    except BaseException:
        # keep what was computed, so that a rerun resumes after it
        if csv_path is not None and len(records) > len(done):
            write_dataset(SweepDataset(records, fp), csv_path)
        raise
    ds = SweepDataset(records, fp, skipped=len(done), rejected=rejected)
    if csv_path is not None:
        write_dataset(ds, csv_path)
    return ds


def write_atomic(path, text: str) -> None:
    """Write text to a temporary file beside path, then rename it over
    path, so an interrupted write leaves the previous file whole; the
    temporary file goes when the write fails."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_dataset(ds: SweepDataset, path) -> None:
    """Persist the sweep by ``write_atomic``: the header line, the column
    names, then one row per record."""
    write_atomic(path, f"# schema={ds.schema} fingerprint={ds.fingerprint}\n"
                 + ",".join(CSV_COLUMNS) + "\n"
                 + "".join(rec.csv_row() + "\n"
                           for rec in ds.sorted_records()))


def _parse_record(line: str) -> EnergyRecord:
    cells = line.strip().split(",")
    if len(cells) != len(CSV_COLUMNS):
        raise ValueError(f"{len(cells)} cells, want {len(CSV_COLUMNS)}")
    return EnergyRecord(
        int(cells[0]), float(cells[1]), float(cells[2]), int(cells[3]),
        float(cells[4]), float(cells[5]), float(cells[6]), float(cells[7]),
        float(cells[8]), float(cells[9]))


def load_dataset(path) -> SweepDataset | None:
    """The persisted sweep at path, or None when the file is missing or its
    header line does not parse.  Rows that do not parse are left out and
    counted in ``rejected``.  A path that exists but cannot be read as a
    file raises Gp2dError."""
    try:
        # undecodable bytes become U+FFFD, so a damaged row fails to parse
        fh = open(path, "r", encoding="utf-8", errors="replace")
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise Gp2dError(f"cannot read {path}: {exc.strerror}") from exc
    with fh:
        header = fh.readline()
        tokens = header[2:].split()
        if not header.startswith("# ") or not all("=" in t for t in tokens):
            return None
        parts = dict(t.split("=", 1) for t in tokens)
        if set(parts) != {"schema", "fingerprint"}:
            return None
        fh.readline()
        records, rejected = [], 0
        for line in fh:
            try:
                records.append(_parse_record(line))
            except ValueError:
                rejected += 1
    return SweepDataset(records, parts["fingerprint"], parts["schema"],
                        rejected=rejected)


def vacuum_slope_fit(ds: SweepDataset) -> float:
    """Least-squares slope of (E_vac - 2 pi N) against log N over the
    scalar-trajectory records."""
    pts = [(r.N, r.E_vac) for r in ds.sorted_records()
           if not r.dim and np.isfinite(r.E_vac)]
    if len(pts) < SLOPE_FIT_POINTS:
        raise SolverError("not enough trajectory records for a slope fit")
    x = np.log([float(n) for n, _ in pts])
    y = np.array([ev - 2.0 * np.pi * n for n, ev in pts])
    # numpy.polynomial's polyfit(x, y, 1), step for step: the columns 1
    # and x scaled to unit norm, lstsq at rcond = len(x) * eps, the
    # scaling undone
    lhs = np.array([np.ones_like(x), x])
    scl = np.sqrt(np.square(lhs).sum(1))
    coef = lstsq(lhs.T / scl, y, len(x) * np.finfo(float).eps)[0]
    return float(coef[1] / scl[1])


def depletion_products(ds: SweepDataset) -> list:
    """depletion * N over the Fock-built records."""
    return [r.depletion * r.N for r in ds.sorted_records()
            if r.dim and np.isfinite(r.depletion)]

"""Energy trajectories, ground states, and persisted parameter sweeps."""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.linalg import eigh

from .config import RunConfig, fingerprint
from .errors import ConsistencyError, Gp2dError, SolverError
from .fock import (FockBasis, LinearOperator, build_basis,
                   effective_hamiltonians, r_effective_hamiltonian,
                   shell_modes)
from .kernels import (GPParameters, KernelTable, RenormPotential,
                      eta_coefficients, renormalized_potential)
from .lattice import MomentumLattice, build_lattice
from .potentials import RadialPotential
from .scattering import (InteriorSeries, NeumannSolution, ZeroEnergySolution,
                         interior_series, neumann_ground_state,
                         scattering_length)

SCHEMA = "gp2d-sweep-v1"
CSV_COLUMNS = ("N", "alpha", "cutoff", "dim", "E_vac", "E0", "depletion",
               "lambda_group", "omega0", "wall_ms")


class Pipeline:
    """The chain of one run, each link computed on first use and kept.

    potential -> interior lambda-series, whose lambda = 0 term is the
    zero-energy solution (scattering length a) -> Neumann profile on the
    disk of radius R = e^N ell -> eta table and omega_hat, all on the
    run's single momentum lattice.  The last three are kept per
    (N, alpha).  Every command of a run reads from one Pipeline.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._memo = {}

    @cached_property
    def pot(self) -> RadialPotential:
        return self.cfg.make_potential()

    @cached_property
    def zero(self) -> ZeroEnergySolution:
        return scattering_length(self.pot, self.series)

    @cached_property
    def series(self) -> InteriorSeries | None:
        """The interior lambda-series; the free potential has none."""
        return None if self.pot.is_zero else interior_series(self.pot)

    @cached_property
    def lattice(self) -> MomentumLattice:
        return build_lattice(self.cfg.cutoff)

    def params(self, N: int, alpha: float) -> GPParameters:
        return GPParameters(N, alpha, self.cfg.ell_scale)

    def _once(self, kind: str, N: int, alpha: float, make):
        key = (kind, N, alpha)
        if key not in self._memo:
            self._memo[key] = make(self.params(N, alpha))
        return self._memo[key]

    def neumann(self, N: int, alpha: float) -> NeumannSolution:
        return self._once("neumann", N, alpha, lambda p: neumann_ground_state(
            self.pot, p.R, series=self.series))

    def renorm(self, N: int, alpha: float) -> RenormPotential:
        return self._once("renorm", N, alpha, lambda p: renormalized_potential(
            p, self.neumann(N, alpha).lam_R2, self.lattice))

    def table(self, N: int, alpha: float) -> KernelTable:
        return self._once("table", N, alpha, lambda p: eta_coefficients(
            self.neumann(N, alpha), p, self.lattice,
            per_efold=self.cfg.quad_per_efold))

    def basis(self, N: int) -> FockBasis:
        """Excitation basis of the run's mode shell at particle cap N."""
        return build_basis(shell_modes(self.cfg.shell), N)

    def hamiltonians(self, N: int, alpha: float) -> tuple[FockBasis, dict]:
        """The basis at cap N and the two operators lower-bound and
        fock-audit read, {"R_eff", "H_N"} (``effective_hamiltonians``);
        built afresh on every call, not kept."""
        basis = self.basis(N)
        return basis, effective_hamiltonians(
            basis, self.renorm(N, alpha), self.pot, self.params(N, alpha))


def vacuum_upper_bound(params: GPParameters, renorm) -> float:
    """Vacuum expectation of the renormalized Hamiltonian family."""
    return 0.5 * renorm.omega0 * (params.N - 1)


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
    """Smallest eigenpair over the blocks of op, one batched dense
    eigensolve per size class, and the occupation fraction of its
    eigenvector."""
    e0, vec = op.lowest(eigh)
    if not np.all(np.isfinite(vec)):
        raise ConsistencyError("non-finite amplitudes")
    depletion = float(basis.totals() @ np.abs(vec) ** 2) / basis.cap
    return e0, vec, depletion


@dataclass(frozen=True)
class EnergyRecord:
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
        return (self.N, round(self.alpha, 12), round(self.cutoff, 9))

    def csv_row(self) -> str:
        return ",".join([
            str(self.N), f"{self.alpha:.17g}", f"{self.cutoff:.17g}",
            str(self.dim), f"{self.E_vac:.17g}", f"{self.E0:.17g}",
            f"{self.depletion:.17g}", f"{self.lambda_group:.17g}",
            f"{self.omega0:.17g}", f"{self.wall_ms:.3f}",
        ])


@dataclass
class SweepDataset:
    records: list
    fingerprint: str
    schema: str = SCHEMA
    skipped: int = 0
    rejected: int = 0     # rows of the persisted file that did not parse

    def sorted_records(self):
        return sorted(self.records, key=lambda r: r.key())


def compute_record(pipe: Pipeline, N: int, alpha: float,
                   with_fock: bool) -> EnergyRecord:
    """One grid point of the pipeline: scattering through (optionally)
    the assembled effective Hamiltonian's ground state."""
    t0 = time.perf_counter()
    lam_group = pipe.neumann(N, alpha).lam_R2
    params, renorm = pipe.params(N, alpha), pipe.renorm(N, alpha)
    E_vac = vacuum_upper_bound(params, renorm)
    E0, depletion, dim = math.nan, math.nan, 0
    if with_fock:
        # R_eff alone: no H_N is alive during the eigensolve
        basis = pipe.basis(N)
        R_eff = r_effective_hamiltonian(basis, renorm, pipe.pot, params)
        dim = basis.dim
        E0, _, depletion = ground_state(R_eff, basis)
    wall = (time.perf_counter() - t0) * 1000.0
    return EnergyRecord(N, alpha, pipe.cfg.cutoff, dim, E_vac, E0, depletion,
                        lam_group, renorm.omega0, wall)


def sweep_grid(cfg: RunConfig) -> list:
    """(N, alpha, with_fock) grid: small-N Fock builds plus the scalar
    trajectory."""
    grid = []
    for n in range(3, cfg.fock_n_max + 1):
        grid.append((n, cfg.fock_alpha, True))
    for n in range(cfg.n_min, cfg.n_max + 1, cfg.n_step):
        grid.append((n, cfg.alpha, False))
    return grid


def sweep(cfg: RunConfig, csv_path=None,
          pipe: Pipeline | None = None) -> SweepDataset:
    """Run the grid, skipping records already persisted for this config.

    Records are computed one after another from ``pipe``, the run's
    Pipeline built from cfg (a fresh one when not given).
    """
    fp = fingerprint(cfg)
    done, rejected = {}, 0
    if csv_path is not None:
        loaded = load_dataset(csv_path)
        if (loaded is not None and loaded.schema == SCHEMA
                and loaded.fingerprint == fp):
            done = {r.key(): r for r in loaded.records}
            rejected = loaded.rejected

    if pipe is None:
        pipe = Pipeline(cfg)
    fresh = [compute_record(pipe, n, al, wf)
             for (n, al, wf) in sweep_grid(cfg)
             if (n, round(al, 12), round(cfg.cutoff, 9)) not in done]

    records = list(done.values()) + fresh
    ds = SweepDataset(records, fp, skipped=len(done), rejected=rejected)
    if csv_path is not None:
        write_dataset(ds, csv_path)
    return ds


def write_dataset(ds: SweepDataset, path) -> None:
    """Write to a temporary file beside path, then rename it over path, so
    an interrupted write leaves the previous file whole."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(f"# schema={ds.schema} fingerprint={ds.fingerprint}\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rec in ds.sorted_records():
            fh.write(rec.csv_row() + "\n")
    os.replace(tmp, path)


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
    if len(pts) < 3:
        raise SolverError("not enough trajectory records for a slope fit")
    x = np.log([float(n) for n, _ in pts])
    y = np.array([ev - 2.0 * np.pi * n for n, ev in pts])
    coef = np.polynomial.polynomial.polyfit(x, y, 1)
    return float(coef[1])


def depletion_products(ds: SweepDataset) -> list:
    """depletion * N over the Fock-built records."""
    return [r.depletion * r.N for r in ds.sorted_records()
            if r.dim and np.isfinite(r.depletion)]

"""Command-line driver: configuration, dispatch, reports."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .audits import (condensation_lower_bound, localization_check,
                     square_completion_check)
from .config import RunConfig, fingerprint, load_config
from .energy import Pipeline, sweep, vacuum_slope_fit, depletion_products
from .errors import Gp2dError
from .fock import (generators, ladder, number_operator, shell_modes,
                   unitary_excitation_map)
from .kernels import export_kernels_csv, scattering_residual
from .potentials import fourier_transform_radial
from .scattering import export_solution_csv, validate_neumann_asymptotics

COMMANDS = ("scatter", "neumann", "kernels", "fock-audit", "lower-bound",
            "energy-sweep", "all")


def _regime_note(alpha: float) -> None:
    if alpha <= 2:
        print(f"note: alpha = {alpha:g} is below the asymptotic regime "
              f"(alpha > 2) where the renormalization guarantees hold; "
              f"desk-scale bands are still meaningful, proceeding")


def cmd_scatter(pipe: Pipeline, out: Path) -> tuple[bool, list]:
    zsol = pipe.zero
    print(f"scattering length a = {zsol.a:.9g}  "
          f"(log slope {zsol.log_slope:.9g})")
    path = out / "scatter.json"
    path.write_text(json.dumps({
        "a": zsol.a, "log_slope": zsol.log_slope,
        "vhat0": fourier_transform_radial(pipe.pot, 0.0)},
        sort_keys=True) + "\n")
    return True, [path]


def cmd_neumann(pipe: Pipeline, out: Path) -> tuple[bool, list]:
    sol = pipe.neumann(pipe.cfg.n_value, pipe.cfg.alpha)
    rep = validate_neumann_asymptotics(sol)
    f = sol.f_at(sol.nodes)
    ok = (np.min(f) >= -1e-10 and np.max(f) <= 1 + 1e-10
          and rep.all_finite)
    print(f"neumann R={sol.R:.6g} lambda*R^2={sol.lam_R2:.9g} "
          f"e1={rep.e1:.3g} e2={rep.e2:.3g} e3={rep.e3:.3g} "
          f"e4={rep.e4:.3g} [{'ok' if ok else 'FAIL'}]")
    path = out / "neumann.csv"
    export_solution_csv(sol, path)
    return ok, [path]


def cmd_kernels(pipe: Pipeline, out: Path) -> tuple[bool, list]:
    cfg = pipe.cfg
    N, alpha = cfg.n_value, cfg.alpha
    params = pipe.params(N, alpha)
    if pipe.pot.is_zero:
        print("free potential: eta identically zero, residual 0")
        return True, []
    table = pipe.table(N, alpha)
    renorm = pipe.renorm(N, alpha)
    rep = scattering_residual(table, pipe.pot, params, pipe.neumann(N, alpha))
    ok = rep.max_rel <= 1e-3
    print(f"kernels N={params.N} |eta0|={abs(table.eta0):.3e} "
          f"(10*ell^2={10 * params.ell ** 2:.3e}) "
          f"max-rel-residual={rep.max_rel:.3e} "
          f"[{'ok' if ok else 'FAIL'}]")
    path = out / "kernels.csv"
    export_kernels_csv(table, renorm, pipe.zero.a, path)
    return ok, [path]


def cmd_fock_audit(pipe: Pipeline, out: Path) -> tuple[bool, list]:
    cfg = pipe.cfg
    n = 3
    params = pipe.params(n, cfg.fock_alpha)
    basis, ops = pipe.hamiltonians(n, cfg.fock_alpha)
    tol = 1e-10
    residuals = {}

    depleted = np.eye(basis.dim) - number_operator(basis).mat / n
    a = {p: ladder(basis, p, "a").mat for p in basis.modes}
    b = {p: ladder(basis, p, "b").mat for p in basis.modes}
    worst_comm = 0.0
    for p in basis.modes:
        bp, ap = b[p], a[p]
        for q in basis.modes:
            bq, aq = b[q], a[q]
            bqd = bq.conj().T
            lhs = bp @ bqd - bqd @ bp
            delta = 1.0 if p == q else 0.0
            rhs = delta * depleted - aq.conj().T @ ap / n
            worst_comm = max(worst_comm, float(np.max(np.abs(lhs - rhs))))
            worst_comm = max(worst_comm,
                             float(np.max(np.abs(bp @ bq - bq @ bp))))
    residuals["commutators"] = worst_comm

    # the explicit map is defined on at most 4 modes: audit it on the
    # first shell, which every larger shell contains
    map_modes = shell_modes(4)
    urep = unitary_excitation_map(map_modes, n)
    residuals["unitary_map"] = max(v for k, v in urep.items() if k != "pass")

    gens = generators(basis, pipe.table(n, cfg.fock_alpha), params)
    residuals["antihermitian"] = max(g.residual(-1.0)
                                     for g in gens.values())
    loc = localization_check(ops["R_eff"], basis, max(1.0, n ** 0.8),
                             ops["H_N"], params)
    residuals["localization"] = loc.identity_residual

    ok = all(v <= tol for v in residuals.values())
    for name, v in sorted(residuals.items()):
        print(f"fock-audit {name}: residual {v:.3e} "
              f"[{'ok' if v <= tol else 'FAIL'}]")
    report = {"residuals": residuals, "pass": ok, "tolerance": tol}
    if map_modes != basis.modes:
        report["unitary_map_modes"] = [list(m) for m in map_modes]
    path = out / "fock_audit.json"
    path.write_text(json.dumps(report, sort_keys=True) + "\n")
    return ok, [path]


def cmd_lower_bound(pipe: Pipeline, out: Path) -> tuple[bool, list]:
    cfg = pipe.cfg
    n = min(4, cfg.fock_n_max)
    params = pipe.params(n, cfg.fock_alpha)
    renorm = pipe.renorm(n, cfg.fock_alpha)
    basis, ops = pipe.hamiltonians(n, cfg.fock_alpha)
    rep = condensation_lower_bound(ops["R_eff"], ops["H_N"], basis, renorm,
                                   params, c=cfg.c_lower)
    scal = square_completion_check(renorm, params, c=cfg.c_lower)
    ok = rep.passed and scal["scalar_pass"]
    print(f"lower-bound N={n} C={rep.constant:.4g} "
          f"min-eig={rep.min_eigenvalue:.3e} "
          f"scalar-margin={scal['scalar_margin']:.3e} "
          f"lattice-sum-gap={scal['lattice_sum_minus_log']:.3f} "
          f"[{'ok' if ok else 'FAIL'}]")
    path = out / "lower_bound.json"
    path.write_text(rep.to_json() + "\n"
                    + json.dumps(scal, sort_keys=True) + "\n")
    return ok, [path]


def cmd_energy_sweep(pipe: Pipeline, out: Path) -> tuple[bool, list]:
    cfg = pipe.cfg
    csv_path = out / "sweep.csv"
    ds = sweep(cfg, csv_path, pipe)
    if ds.skipped:
        print(f"skipped: {ds.skipped} records (already complete)")
    if ds.rejected:
        print(f"rejected: {ds.rejected} malformed rows of {csv_path.name}")
    slope = vacuum_slope_fit(ds)
    target = 2.0 * math.pi * cfg.alpha
    if cfg.potential == "free":
        # the coupling vanishes, so the vacuum curve is identically zero
        slope_ok = abs(slope) <= 1e-12
    else:
        slope_ok = abs(slope - target) <= 0.15 * target
    sandwich_ok = all(r.E0 <= r.E_vac + 1e-8 * max(abs(r.E_vac), 1.0)
                      for r in ds.records if np.isfinite(r.E0))
    prods = depletion_products(ds)
    print(f"energy-sweep: {len(ds.records)} records, slope={slope:.4f} "
          f"(target {target:.4f}) depletion*N range "
          f"[{min(prods):.3g},{max(prods):.3g}] "
          f"[{'ok' if slope_ok and sandwich_ok else 'FAIL'}]")
    return slope_ok and sandwich_ok, [csv_path]


_DISPATCH = {
    "scatter": cmd_scatter,
    "neumann": cmd_neumann,
    "kernels": cmd_kernels,
    "fock-audit": cmd_fock_audit,
    "lower-bound": cmd_lower_bound,
    "energy-sweep": cmd_energy_sweep,
}

PLOT_SCRIPT = """\
# gnuplot script generated by gp2d
set datafile separator ','
set key left top
set xlabel 'log N'
set ylabel 'E_vac - 2 pi N'
plot '{csv}' every ::1 using (log($1)):($5 - 2*pi*$1) \\
    with linespoints title 'vacuum trajectory'
"""


def emit_plots_script(out: Path) -> Path:
    path = out / "plots.gp"
    path.write_text(PLOT_SCRIPT.format(csv="sweep.csv"))
    return path


def write_manifest(manifest: dict, path: Path) -> None:
    """Write to a temporary file beside path, then rename it over path, so
    an interrupted write leaves the previous manifest whole."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gp2d",
        description="Numerical laboratory for the dilute 2D Bose gas: "
                    "scattering profiles, correlation kernels, and "
                    "truncated Fock-space operator audits.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", type=str, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility and ignored")
    parser.add_argument("--seed", type=int, default=None,
                        help="accepted for compatibility and ignored")
    parser.add_argument("--emit-plots-script", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        out_dir = args.out or os.environ.get("GP2D_OUT") or cfg.out_dir
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)

        _regime_note(cfg.alpha)
        pipe = Pipeline(cfg)
        names = list(_DISPATCH) if args.command == "all" else [args.command]
        statuses = {}
        artifacts = []
        all_ok = True
        for name in names:
            try:
                ok, paths = _DISPATCH[name](pipe, out)
            except Gp2dError as exc:
                print(f"{name}: error: {exc}", file=sys.stderr)
                ok, paths = False, []
            statuses[name] = "pass" if ok else "fail"
            artifacts.extend(str(p) for p in paths)
            all_ok = all_ok and ok

        if args.emit_plots_script:
            artifacts.append(str(emit_plots_script(out)))

        manifest = {
            "fingerprint": fingerprint(cfg),
            "version": __version__,
            "commands": statuses,
            "artifacts": artifacts,
        }
        write_manifest(manifest, out / "manifest.json")
        return 0 if all_ok else 1
    except Gp2dError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line driver: configuration, dispatch, reports."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .audits import (commutator_residual, condensation_lower_bound,
                     localization_identity, square_completion_check,
                     unitary_excitation_map)
from .config import FOCK_N_MIN, RunConfig, fingerprint, load_config
from .energy import (Pipeline, depletion_products, sweep, vacuum_slope_fit,
                     write_atomic)
from .errors import Gp2dError
from .fock import (HERMITIAN_TOL, effective_hamiltonians, generators,
                   r_effective_hamiltonian)
from .kernels import kernels_csv, scattering_residual
from .potentials import fourier_transform_radial
from .scattering import solution_csv, validate_neumann_asymptotics


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
    write_atomic(path, json.dumps({
        "a": zsol.a, "log_slope": zsol.log_slope,
        "vhat0": fourier_transform_radial(pipe.pot, 0.0)},
        sort_keys=True) + "\n")
    return True, [path]


def cmd_neumann(pipe: Pipeline, out: Path) -> tuple[bool, list]:
    sol = pipe.neumann(pipe.cfg.n_value, pipe.cfg.alpha)
    rep = validate_neumann_asymptotics(sol)
    f = sol.f_nodes
    ok = (np.min(f) >= -1e-10 and np.max(f) <= 1 + 1e-10
          and rep.all_finite)
    print(f"neumann R={sol.R:.6g} lambda*R^2={sol.lam_R2:.9g} "
          f"e1={rep.e1:.3g} e2={rep.e2:.3g} e3={rep.e3:.3g} "
          f"e4={rep.e4:.3g} [{'ok' if ok else 'FAIL'}]")
    path = out / "neumann.csv"
    write_atomic(path, solution_csv(sol))
    return ok, [path]


def cmd_kernels(pipe: Pipeline, out: Path) -> tuple[bool, list]:
    N, alpha = pipe.cfg.n_value, pipe.cfg.alpha
    table = pipe.table(N, alpha)
    params = table.params
    rep = scattering_residual(table)
    ok = rep.max_rel <= 1e-3
    print(f"kernels N={params.N} |eta0|={abs(table.eta0):.3e} "
          f"(10*ell^2={10 * params.ell ** 2:.3e}) "
          f"max-rel-residual={rep.max_rel:.3e} "
          f"[{'ok' if ok else 'FAIL'}]")
    path = out / "kernels.csv"
    write_atomic(path, kernels_csv(table, pipe.renorm(N, alpha)))
    return ok, [path]


def cmd_fock_audit(pipe: Pipeline, out: Path) -> tuple[bool, list]:
    n, alpha = FOCK_N_MIN, pipe.cfg.fock_alpha
    basis = pipe.basis(n)
    residuals = {"commutators": commutator_residual(basis)}
    residuals["unitary_map"] = max(unitary_excitation_map(basis).values())

    gens = generators(basis, pipe.table(n, alpha))
    residuals["antihermitian"] = max(g.residual(-1.0)
                                     for g in gens.values())
    R_eff = r_effective_hamiltonian(basis, pipe.renorm(n, alpha), pipe.pot)
    residuals["localization"], _ = localization_identity(
        R_eff, basis, max(1.0, n ** 0.8))

    # the generators are held to the operators' own hermiticity tolerance
    tolerances = {name: HERMITIAN_TOL if name == "antihermitian" else 1e-10
                  for name in residuals}
    passed = {name: v <= tolerances[name] for name, v in residuals.items()}
    ok = all(passed.values())
    for name, v in sorted(residuals.items()):
        print(f"fock-audit {name}: residual {v:.3e} "
              f"[{'ok' if passed[name] else 'FAIL'}]")
    path = out / "fock_audit.json"
    write_atomic(path, json.dumps({"residuals": residuals, "pass": ok,
                                   "tolerances": tolerances},
                                  sort_keys=True) + "\n")
    return ok, [path]


def cmd_lower_bound(pipe: Pipeline, out: Path) -> tuple[bool, list]:
    cfg = pipe.cfg
    n = pipe.lower_bound_n
    renorm = pipe.renorm(n, cfg.fock_alpha)
    scal = square_completion_check(renorm, c=cfg.c_lower)
    basis = pipe.basis(n)
    ops = effective_hamiltonians(basis, renorm, pipe.pot)
    rep = condensation_lower_bound(ops["R_eff"], ops["H_N"], basis, renorm,
                                   c=cfg.c_lower)
    ok = rep.passed and scal["scalar_pass"]
    print(f"lower-bound N={n} C={rep.constant:.4g} "
          f"min-eig={rep.min_eigenvalue:.3e} "
          f"scalar-margin={scal['scalar_margin']:.3e} "
          f"lattice-sum-gap={scal['lattice_sum_minus_log']:.3f} "
          f"[{'ok' if ok else 'FAIL'}]")
    path = out / "lower_bound.json"
    write_atomic(path, rep.to_json() + "\n"
                 + json.dumps(scal, sort_keys=True) + "\n")
    return ok, [path]


def cmd_energy_sweep(pipe: Pipeline, out: Path) -> tuple[bool, list]:
    cfg = pipe.cfg
    csv_path = out / "sweep.csv"
    ds = sweep(pipe, csv_path)
    if ds.skipped:
        print(f"skipped: {ds.skipped} records (already complete)")
    if ds.rejected:
        print(f"rejected: {ds.rejected} malformed rows of {csv_path.name}")
    if pipe.pot.is_zero:
        # the coupling vanishes, so the vacuum curve is identically zero
        slope_ok = all(r.E_vac == 0.0 for r in ds.records)
        trend = "E_vac identically 0"
    else:
        slope = vacuum_slope_fit(ds)
        target = 2.0 * math.pi * cfg.alpha
        slope_ok = abs(slope - target) <= 0.15 * target
        trend = f"slope={slope:.4f} (target {target:.4f})"
    sandwich_ok = all(r.E0 <= r.E_vac + 1e-8 * max(abs(r.E_vac), 1.0)
                      for r in ds.records if np.isfinite(r.E0))
    prods = depletion_products(ds)
    print(f"energy-sweep: {len(ds.records)} records, {trend} "
          f"depletion*N range [{min(prods):.3g},{max(prods):.3g}] "
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
    write_atomic(path, PLOT_SCRIPT.format(csv="sweep.csv"))
    return path


def write_manifest(manifest: dict, path: Path) -> None:
    write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gp2d",
        description="Numerical laboratory for the dilute 2D Bose gas: "
                    "scattering profiles, correlation kernels, and "
                    "truncated Fock-space operator audits.")
    parser.add_argument("command", choices=[*_DISPATCH, "all"])
    parser.add_argument("--config", type=str, default=None)
    parser.add_argument("--out", type=str, default="out")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility and ignored")
    parser.add_argument("--seed", type=int, default=None,
                        help="accepted for compatibility and ignored")
    parser.add_argument("--emit-plots-script", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        pipe = Pipeline(cfg)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)

        _regime_note(cfg.alpha)
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
    except OSError as exc:
        # the output directory could not be made or an artifact written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

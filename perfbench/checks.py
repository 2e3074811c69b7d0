"""Reference checks on the artifacts of one benchmark pass.

Every value is compared with the tolerance its method already promises,
never a tighter one, so an exact replacement method still passes:

- scattering length a: 1e-6 relative, the closed-form oracle bound of
  acceptance 3 and the CLI test.
- lambda*R^2: 1e-10 relative, the frozen-oracle bound of the Neumann
  solver tests; 1e-8 for the value printed with 9 significant digits.
- kernels max-rel residual <= 1e-3 and fock-audit residuals <= 1e-10: the
  bounds the commands themselves apply.
- lower-bound constant C: inside the 1e-3 relative bisection bracket of
  ``min_constant`` (absolute 1e-3 where the frozen C is 0).
- sweep: E_vac 1e-10 relative (linear in lambda*R^2), E0 1e-8 relative
  (it inherits the 1e-8 quadrature bound of eta), and the CLI's own 15%
  slope band around 2*pi*alpha.

``wall_ms`` is never compared, except on resume, where the rows must be
the seeded rows byte for byte because nothing may be recomputed.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "reference.json").read_text())

A_REL = 1e-6
LAMBDA_REL = 1e-10
LAMBDA_PRINTED_REL = 1e-8
KERNEL_RESIDUAL_MAX = 1e-3
AUDIT_RESIDUAL_MAX = 1e-10
BISECTION_REL = 1e-3
E_VAC_REL = 1e-10
E0_REL = 1e-8
SLOPE_BAND = 0.15


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


def _scatter(out: Path, stdout: str, ctx: dict) -> list:
    a = json.loads((out / "scatter.json").read_text())["a"]
    if not _close(a, REFERENCE["a"], A_REL):
        return [f"a={a!r}, reference {REFERENCE['a']!r}"]
    return []


def _neumann(out: Path, stdout: str, ctx: dict) -> list:
    m = re.search(r"^neumann R=\S+ lambda\*R\^2=(\S+)", stdout, re.M)
    if m is None:
        return ["no neumann report line"]
    lam = float(m.group(1))
    problems = []
    if not _close(lam, REFERENCE["lambda_R2"], LAMBDA_PRINTED_REL):
        problems.append(f"lambda*R^2={lam!r}, "
                        f"reference {REFERENCE['lambda_R2']!r}")
    if not (out / "neumann.csv").is_file():
        problems.append("neumann.csv missing")
    return problems


def _kernels(out: Path, stdout: str, ctx: dict) -> list:
    m = re.search(r"^kernels .*max-rel-residual=(\S+)", stdout, re.M)
    if m is None:
        return ["no kernels report line"]
    problems = []
    if not float(m.group(1)) <= KERNEL_RESIDUAL_MAX:
        problems.append(f"max-rel residual {m.group(1)}")
    with open(out / "kernels.csv", encoding="utf-8") as fh:
        header = json.loads(fh.readline()[1:])
    if not _close(header["lambda_R2"], REFERENCE["lambda_R2"], LAMBDA_REL):
        problems.append(f"kernels.csv lambda_R2={header['lambda_R2']!r}")
    if not _close(header["a"], REFERENCE["a"], A_REL):
        problems.append(f"kernels.csv a={header['a']!r}")
    return problems


def _fock_audit(out: Path, stdout: str, ctx: dict) -> list:
    rep = json.loads((out / "fock_audit.json").read_text())
    problems = [f"{k} residual {v!r}" for k, v in rep["residuals"].items()
                if not v <= AUDIT_RESIDUAL_MAX]
    if rep["pass"] is not True:
        problems.append("fock_audit.json pass is not true")
    return problems


def _lower_bound(out: Path, stdout: str, ctx: dict) -> list:
    rep, scal = (json.loads(line) for line in
                 (out / "lower_bound.json").read_text().splitlines())
    want = ctx["ref"]["lower_bound_C"]
    problems = []
    if rep["passed"] is not True or scal["scalar_pass"] is not True:
        problems.append("lower bound not certified")
    if not abs(rep["constant"] - want) <= BISECTION_REL * max(want, 1.0):
        problems.append(f"C={rep['constant']!r}, reference {want!r}")
    return problems


def _slope(records: dict) -> float:
    """Least-squares slope of E_vac - 2 pi N against log N over the scalar
    trajectory (dim 0), as ``energy.vacuum_slope_fit`` fits it."""
    pts = [(math.log(n), e_vac - 2.0 * math.pi * n)
           for (n, _), (dim, e_vac, _) in records.items() if dim == 0]
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))


def sweep_rows(path: Path) -> list:
    return path.read_text().splitlines()[2:]


def _energy_sweep(out: Path, stdout: str, ctx: dict) -> list:
    rows = sweep_rows(out / "sweep.csv")
    records = {}
    for row in rows:
        c = row.split(",")
        records[(int(c[0]), float(c[1]))] = (int(c[3]), float(c[4]),
                                             float(c[5]))
    ref = ctx["ref"]
    want = {(n, al): (dim, e_vac, e0)
            for n, al, dim, e_vac, e0 in ref["records"]}
    if set(records) != set(want):
        return [f"sweep grid {sorted(records)} differs from the reference"]
    problems = []
    for key, (dim, e_vac, e0) in sorted(records.items()):
        w_dim, w_vac, w_e0 = want[key]
        if dim != w_dim or not _close(e_vac, w_vac, E_VAC_REL):
            problems.append(f"record {key}: dim {dim}, E_vac {e_vac!r}")
        if (w_e0 is None) != math.isnan(e0) or (
                w_e0 is not None and not _close(e0, w_e0, E0_REL)):
            problems.append(f"record {key}: E0 {e0!r}, reference {w_e0!r}")
    target = 2.0 * math.pi * ref["alpha"]
    slope = _slope(records)
    if not abs(slope - target) <= SLOPE_BAND * target:
        problems.append(f"slope {slope!r} outside 15% of {target!r}")

    m = re.search(r"^skipped: (\d+) records", stdout, re.M)
    skipped = int(m.group(1)) if m else 0
    seeded = ctx["seeded_rows"]
    if seeded is None and skipped != 0:
        problems.append(f"{skipped} records skipped in an empty directory")
    if seeded is not None:
        if skipped != len(seeded):
            problems.append(f"resume skipped {skipped} of {len(seeded)}")
        if rows != seeded:
            problems.append("resume recomputed or rewrote seeded records")
    return problems


CHECKS = {
    "scatter": _scatter,
    "neumann": _neumann,
    "kernels": _kernels,
    "fock-audit": _fock_audit,
    "lower-bound": _lower_bound,
    "energy-sweep": _energy_sweep,
}
ALL_COMMANDS = tuple(CHECKS)


def check_pass(out: Path, stdout: str, calls: list, ref_name: str,
               seeded_rows: list | None) -> dict:
    """Problems found per op (one op is one gp2d command); an op passes
    when its list is empty."""
    ctx = {"ref": REFERENCE["configs"][ref_name], "seeded_rows": seeded_rows}
    problems = {}
    for call in calls:
        ops = ALL_COMMANDS if call["command"] == "all" else (call["command"],)
        manifest = out / f"manifest-{call['command']}.json"
        if call["error"] is not None or not manifest.is_file():
            reason = (call["error"] or "no manifest.json").strip()
            for op in ops:
                problems[op] = [reason.splitlines()[-1]]
            continue
        statuses = json.loads(manifest.read_text())["commands"]
        for op in ops:
            found = []
            if statuses.get(op) != "pass":
                found.append(f"manifest status {statuses.get(op)!r}")
            try:
                found += CHECKS[op](out, stdout, ctx)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                found.append(f"unreadable artifact: {exc!r}")
            problems[op] = found
    return problems

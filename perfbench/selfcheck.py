"""Quick self-check of the benchmark itself, about two minutes.

Usage, from the root of a gp2d source checkout:

    python3 perfbench/selfcheck.py

1. Every workload BENCHMARK.json lists exists in run.py, and one short run
   per mode prints exactly the metric names and units that BENCHMARK.json
   declares, and a correct result.
2. On every workload, two traced passes agree exactly on the counters
   that do not depend on timing, and every op passes its reference check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

DETERMINISTIC = ("scattering.ode_solves", "scattering.rhs_evals",
                 "fock.build_operator.calls", "audits.eigvalsh_calls",
                 "fock.max_dim")


def check_names(spec: dict) -> list:
    errors = [f"workload {w['name']} is not in run.WORKLOADS"
              for w in spec["workloads"] if w["name"] not in run.WORKLOADS]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload",
             "resume-all", "--seed", "0", "--seconds", "1", "--trace",
             str(trace)], cwd=run.ROOT, capture_output=True, text=True,
            timeout=170)
        if proc.returncode != 0:
            errors.append(f"trace {trace}: exit {proc.returncode}: "
                          f"{proc.stderr.strip()[-300:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        if got != want:
            errors.append(f"trace {trace}: metrics {sorted(got.items())} "
                          f"differ from BENCHMARK.json {key}")
        if set(result) != {"correct", "attempted", "failed", "metrics"} \
                or result["correct"] is not True:
            errors.append(f"trace {trace}: result {result}")
    return errors


def check_counters(name: str) -> list:
    work = run.ROOT / ".perfbench_work" / f"selfcheck-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cfg, seeded = run.prepare(name, 0, work)
        passes = [run.run_pass(run.WORKLOADS[name], work, cfg, 0, True, i,
                               seeded, run.PASS_TIMEOUT_S) for i in (0, 1)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    errors = [f"{name} pass {p['pass']} {op}: {found}" for p in passes
              for op, found in p["problems"].items() if found]
    if errors:
        return errors
    for counter in DETERMINISTIC:
        a, b = (p["layers"][counter] for p in passes)
        print(f"  {name:18s} {counter:28s} {a} {b}")
        if a != b:
            errors.append(f"{name}: {counter} differs: {a} != {b}")
    return errors


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = check_names(spec)
    for name in run.WORKLOADS:
        errors += check_counters(name)
    for e in errors:
        print("FAIL", e)
    print("selfcheck", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

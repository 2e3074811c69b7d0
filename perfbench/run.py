"""gp2d benchmark: times the ``gp2d`` CLI the way users run it.

Usage, from the root of a gp2d source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs ``gp2d.cli.main`` in a fresh child interpreter, one child at
a time, because a user pays the imports and lazy set-up on every CLI call.
Passes repeat until the next one would end after ``--seconds``.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and it
holds the per-layer metrics of the traced ones.  Every pass is checked
against frozen reference outputs (see checks.py); a failed check is a
failed op.  A full record of the run goes to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import ALL_COMMANDS, check_pass, sweep_rows

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0   # a run must end within 180 s
PASS_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    commands: tuple   # gp2d commands of one pass, one cli.main call each
    config: str       # config file text
    reference: str    # key into reference.json
    resume: bool      # start from a seeded, complete sweep.csv


SHELL8 = "shell = 8\nfock_n_max = 5\nN_step = 10\n"

# Why each workload is here: see NOTES.md.
WORKLOADS = {
    "pipeline-default": Workload(("all",), "", "default", False),
    "resume-all": Workload(("all",), "", "default", True),
    "fock-shell8": Workload(("lower-bound", "energy-sweep"), SHELL8,
                            "shell8", False),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ops_ok_frac": "frac"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("GP2D_OUT", None)
    return env


def wait_child(proc: subprocess.Popen, timeout: float):
    """Reap the child with wait4, so its own peak RSS and CPU time are
    known; kill it after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    timed_out = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            timed_out = True
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage, timed_out


def run_pass(wl: Workload, work: Path, cfg: Path, seed: int, traced: bool,
             pass_id: int, seeded: Path | None, timeout: float) -> dict:
    out = work / f"pass{pass_id}"
    out.mkdir()
    if seeded is not None:
        shutil.copyfile(seeded, out / "sweep.csv")
    result_path = work / f"result{pass_id}.json"
    spec_path = work / f"spec{pass_id}.json"
    spec_path.write_text(json.dumps({
        "config": str(cfg), "out": str(out), "seed": seed,
        "commands": list(wl.commands), "trace": traced,
        "result": str(result_path)}))
    log, err = work / f"stdout{pass_id}.txt", work / f"stderr{pass_id}.txt"
    t0 = time.monotonic()
    with open(log, "w") as fo, open(err, "w") as fe:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path),
             repr(t_spawn)], cwd=ROOT, env=child_env(), stdout=fo, stderr=fe)
        try:
            usage, timed_out = wait_child(proc, timeout)
        finally:
            if proc.returncode is None:
                proc.kill()
                os.wait4(proc.pid, 0)
    rec = {"pass": pass_id, "traced": traced, "rc": proc.returncode,
           "timed_out": timed_out, "peak_rss_mb": usage.ru_maxrss / 1024.0}
    ops = [op for c in wl.commands
           for op in (ALL_COMMANDS if c == "all" else (c,))]
    if proc.returncode != 0 or timed_out or not result_path.is_file():
        tail = err.read_text().strip().splitlines()[-3:]
        rec["problems"] = {op: ["child failed: " + " | ".join(tail)]
                           for op in ops}
    else:
        res = json.loads(result_path.read_text())
        rec.update({k: res[k] for k in ("setup_s", "wall_s", "cpu_s", "env")})
        rec["layers"] = res.get("layers")
        rec["spans"] = res.get("spans")
        rec["problems"] = check_pass(
            out, log.read_text(), res["calls"], wl.reference,
            sweep_rows(seeded) if seeded is not None else None)
    rec["attempted"] = len(ops)
    rec["failed"] = sum(1 for op in ops if rec["problems"][op])
    rec["duration_s"] = time.monotonic() - t0
    shutil.rmtree(out)
    return rec


def seed_resume(work: Path, cfg: Path, seed: int) -> Path:
    """Untimed set-up of resume-all: a complete sweep.csv for this
    config fingerprint, written by the program under test."""
    out = work / "seeded"
    proc = subprocess.run(
        [sys.executable, "-m", "gp2d.cli", "energy-sweep", "--config",
         str(cfg), "--out", str(out), "--threads", "1", "--seed", str(seed)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not (out / "sweep.csv").is_file():
        sys.exit(f"resume seeding failed (rc {proc.returncode}): "
                 f"{proc.stderr.strip()[-400:]}")
    return out / "sweep.csv"


def prepare(name: str, seed: int, work: Path):
    """Untimed set-up in an empty work directory: the config file, and for
    resume-all the seeded sweep.csv."""
    wl = WORKLOADS[name]
    cfg = work / "run.cfg"
    cfg.write_text(f"# benchmark workload {name}\n" + wl.config)
    return cfg, seed_resume(work, cfg, seed) if wl.resume else None


def source_identity() -> dict:
    """The gp2d commit when the checkout is a git work tree, and always a
    hash of the package sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gp2d").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            loose = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if loose.is_file():
                commit = loose.read_text().strip()
            elif packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        commit = line.split()[0]
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def spread(values: list) -> float | None:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def high_percentile(values: list):
    """The highest percentile with at least ten samples beyond it, or None
    when there are fewer than 20 samples."""
    if len(values) < 20:
        return None
    ordered = sorted(values)
    idx = len(ordered) - 11
    return {"p": 100.0 * (idx + 1) / len(ordered), "value": ordered[idx]}


def median_of(passes: list, key: str) -> float:
    return statistics.median(p[key] for p in passes)


def end_to_end(untraced: list, attempted: int, failed: int) -> dict:
    return {"wall_s": median_of(untraced, "wall_s"),
            "setup_s": median_of(untraced, "setup_s"),
            "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
            "ops_ok_frac": (attempted - failed) / attempted}


def per_layer(untraced: list, traced: list) -> dict:
    out = {}
    for name, first in traced[0]["layers"].items():
        values = [p["layers"][name] for p in traced]
        # counts stay whole numbers
        out[name] = (statistics.median_low(values) if isinstance(first, int)
                     else statistics.median(values))
    out["proc.cpu_s"] = median_of(untraced, "cpu_s")
    out["trace.overhead_frac"] = (median_of(traced, "wall_s")
                                  / median_of(untraced, "wall_s") - 1.0)
    return out


def layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    # turn a polite kill into SystemExit, so the finally blocks stop the
    # child and remove the work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "gp2d" / "cli.py").is_file():
        sys.exit("no gp2d sources under src/gp2d: run from the root of a "
                 "gp2d checkout")
    run_start = time.monotonic()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cfg, seeded = prepare(args.workload, args.seed, work)

        passes = []
        measure_start = time.monotonic()
        while True:
            traced = trace and len(passes) % 2 == 1
            timeout = min(PASS_TIMEOUT_S,
                          RUN_LIMIT_S - (time.monotonic() - run_start))
            passes.append(run_pass(wl, work, cfg, args.seed, traced,
                                   len(passes), seeded, max(timeout, 1.0)))
            elapsed = time.monotonic() - measure_start
            est = statistics.median(p["duration_s"] for p in passes)
            if len(passes) >= (2 if trace else 1) \
                    and elapsed + est > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = [p for p in passes if "wall_s" in p]
    untraced = [p for p in timed if not p["traced"]]
    traced = [p for p in timed if p["traced"]]
    if not untraced or (trace and not traced):
        problems = [p["problems"] for p in passes]
        sys.exit(f"no pass completed; problems: {problems}")
    gp2d_file = Path(untraced[0]["env"]["gp2d_file"])
    if ROOT / "src" not in gp2d_file.parents:
        sys.exit(f"child imported gp2d from {gp2d_file}, not from src/")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    walls = [p["wall_s"] for p in untraced]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "blas_threads_pinned": BLAS_THREADS,
                    **untraced[0]["env"], **source_identity()},
        "wall_s_pass_spread": spread(walls),
        "wall_s_high_percentile": high_percentile(walls),
        "passes": [{k: v for k, v in p.items() if k != "spans"}
                   for p in passes],
    }
    if trace:
        metrics = per_layer(untraced, traced)
        units = layer_units()
    else:
        metrics = end_to_end(untraced, attempted, failed)
        units = END_TO_END_UNITS
    record["metrics"] = metrics

    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        # one span per call: pass id, span id, name, start, end, parent
        (runs / f"{stem}.spans.json").write_text(json.dumps(
            [[p["pass"], *s] for p in traced for s in p["spans"]]) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes "
          f"({len(untraced)} untraced, {len(traced)} traced), "
          f"{attempted} ops, {failed} failed, "
          f"ops_failed_frac {failed / attempted:.4g}")
    for name, value in metrics.items():
        n = len(traced) if trace and not name.startswith("proc.") \
            else len(untraced)
        print(f"  {name:48s} {value:<14.6g} {units[name]:14s} n={n}")
    if record["wall_s_high_percentile"] is not None:
        hp = record["wall_s_high_percentile"]
        print(f"  wall_s p{hp['p']:.0f}: {hp['value']:.4f} s")
    print(f"  machine: {json.dumps(record['machine'])}")
    print(f"  wall_s pass-to-pass spread (IQR/median): "
          f"{record['wall_s_pass_spread']}")
    for p in passes:
        for op, found in p["problems"].items():
            if found:
                print(f"  FAILED pass {p['pass']} {op}: {'; '.join(found)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

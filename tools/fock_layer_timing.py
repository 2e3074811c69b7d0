"""Time the Fock layer at fixed sizes, one fresh process per run.

Usage: python3 tools/fock_layer_timing.py [--repeats K] [--src DIR]
                                          [--sizes 8/5,12/6,12/7,12/8]

For each shell/N it starts K fresh interpreters (BLAS pinned to one
thread).  Each builds the run's ω̂ first (default config at that shell,
``fock_alpha``), then times the basis plus one R_eff build
(``Pipeline.basis`` and ``r_effective_hamiltonian``) and the lowest
eigenpair over the blocks (``LinearOperator.lowest`` with numpy's
``eigvalsh`` and ``eigh``), and reports its own peak RSS, the number of
stored blocks against the number of momentum sectors (fewer when R_eff
is stored on one sector per symmetry orbit) and the MB the stored blocks
take.  The table gives the median and range over the K runs.  ``--src``
points at the ``src`` directory of the checkout to time (default: this
one), so two commits can be compared with the same script.  Needs only
the standard library and numpy.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIZES = "8/5,12/6,12/7,12/8"


def one_run(shell: int, n: int) -> dict:
    import numpy as np

    from gp2d.config import RunConfig
    from gp2d.energy import Pipeline
    from gp2d.fock import r_effective_hamiltonian

    cfg = RunConfig(shell=shell)
    pipe = Pipeline(cfg)
    alpha = cfg.fock_alpha
    renorm = pipe.renorm(n, alpha)
    t0 = time.perf_counter()
    basis = pipe.basis(n)
    op = r_effective_hamiltonian(basis, renorm, pipe.pot)
    t1 = time.perf_counter()
    e0, _ = op.lowest(np.linalg.eigvalsh, np.linalg.eigh)
    t2 = time.perf_counter()
    return {"dim": basis.dim,
            "largest_block": max(idx.shape[1] for idx in op.part.classes),
            "blocks": sum(len(idx) for idx in op.part.classes),
            "sectors": sum(len(idx) for idx in basis.sectors.classes),
            "stored_mb": sum(blk.nbytes for blk in op.blocks) / 1e6,
            "build_s": t1 - t0, "lowest_s": t2 - t1, "e0": e0,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def spawn(src: Path, shell: int, n: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    out = subprocess.run([sys.executable, __file__, "--one", f"{shell}/{n}"],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def summary(values, fmt) -> str:
    med = statistics.median(values)
    if len(values) == 1:
        return fmt.format(med)
    return f"{fmt.format(med)} ({fmt.format(min(values))}–" \
           f"{fmt.format(max(values))})"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--src", type=Path,
                    default=Path(__file__).resolve().parent.parent / "src")
    ap.add_argument("--sizes", default=SIZES)
    ap.add_argument("--one", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        print(json.dumps(one_run(*map(int, args.one.split("/")))))
        return
    print(f"src: {args.src.resolve()}  repeats: {args.repeats}  "
          f"BLAS threads: 1")
    print("| shell/N | dim | largest block | stored blocks / sectors | "
          "stored | basis + R_eff build | `lowest` | peak RSS |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for size in args.sizes.split(","):
        shell, n = map(int, size.split("/"))
        runs = [spawn(args.src.resolve(), shell, n)
                for _ in range(args.repeats)]
        print(f"| {size} | {runs[0]['dim']:,} | {runs[0]['largest_block']} "
              f"| {runs[0]['blocks']} / {runs[0]['sectors']} "
              f"| {runs[0]['stored_mb']:.0f} MB "
              f"| {summary([r['build_s'] for r in runs], '{:.3f}')} s "
              f"| {summary([r['lowest_s'] for r in runs], '{:.3f}')} s "
              f"| {summary([r['peak_rss_mb'] for r in runs], '{:.0f}')} MB |",
              flush=True)


if __name__ == "__main__":
    main()

"""One benchmark pass, run in a fresh interpreter as a user's CLI call is.

Usage: python3 perfbench/child.py SPEC_JSON SPAWN_MONOTONIC

SPEC_JSON names the config file, output directory, seed, the gp2d
commands to run in order, whether to trace, and where to write the result.
SPAWN_MONOTONIC is the parent's ``time.monotonic()`` just before it
started this process; CLOCK_MONOTONIC is shared by all processes, so
set-up time counts the interpreter start and every import.
"""

import json
import os
import sys
import time
import traceback

import gp2d.cli
from gp2d.config import load_config


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "gp2d_file": gp2d.cli.__file__,
    }


def main() -> None:
    t_spawn = float(sys.argv[2])
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    load_config(spec["config"])
    setup_s = time.monotonic() - t_spawn

    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    out = spec["out"]
    common = ["--config", spec["config"], "--out", out, "--threads", "1",
              "--seed", str(spec["seed"])]
    calls = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for command in spec["commands"]:
        try:
            rc, error = gp2d.cli.main([command] + common), None
        except Exception:
            # a command that raises is one failed op, not a lost pass
            rc, error = None, traceback.format_exc()
        manifest = os.path.join(out, "manifest.json")
        if os.path.exists(manifest):
            # each cli.main call rewrites manifest.json; keep every one
            os.replace(manifest, os.path.join(out, f"manifest-{command}.json"))
        calls.append({"command": command, "rc": rc, "error": error})
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0

    result = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "calls": calls, "env": environment()}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.spans
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

"""Time what ``import gp2d.cli`` costs, one fresh interpreter per run.

Usage: python3 tools/import_cost.py [--repeats K] [--src DIR]

Each of the K rounds starts three fresh interpreters: ``python -c pass``
(interpreter start-up, wall time), then ``python -X importtime -c "import
gp2d.cli"`` twice, on two temporary copies of the gp2d package under
``--src`` (default: this checkout's ``src``).  One copy has no bytecode
and is imported with PYTHONDONTWRITEBYTECODE=1, so every gp2d module is
compiled from source on every import, as in a checkout that never wrote
``__pycache__``; the other is compiled once beforehand, so its imports
only execute the modules.  Their difference is gp2d's compile time.
Third-party packages and the standard library load from their installed
bytecode in both.

The table gives the median self time (``-X importtime``'s "self") of each
gp2d module, then the medians of the per-run totals of gp2d, of each
third-party package and of the standard library.  Needs only the standard
library.
"""

import argparse
import compileall
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path


def startup_ms() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return (time.perf_counter() - t0) * 1e3


def self_times(src: Path) -> dict:
    """Self time in ms of every module one ``import gp2d.cli`` loads,
    writing no bytecode and reading none from a cache prefix."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import gp2d.cli"],
        env=env, capture_output=True, text=True, check=True)
    out = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "self [us]" not in line:
            us, _, name = line[len("import time:"):].split("|")
            out[name.strip()] = int(us) / 1e3
    return out


def group(name: str) -> str:
    """The row a module's time goes to: the gp2d module itself, its
    third-party top-level package, or the standard library."""
    top = name.split(".")[0]
    if top == "gp2d":
        return name
    return "stdlib" if top in sys.stdlib_module_names else top


def rows(runs: list) -> dict:
    """Per row, the self time of each run, summed over the row's modules."""
    out = defaultdict(lambda: [0.0] * len(runs))
    for i, run in enumerate(runs):
        for name, ms in run.items():
            out[group(name)][i] += ms
            if name.startswith("gp2d"):
                out["gp2d, all modules"][i] += ms
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=11)
    ap.add_argument("--src", type=Path,
                    default=Path(__file__).resolve().parent.parent / "src")
    args = ap.parse_args()
    startup, source, compiled = [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        copies = [Path(tmp) / kind for kind in ("source", "bytecode")]
        for copy in copies:
            shutil.copytree(args.src.resolve() / "gp2d", copy / "gp2d",
                            ignore=shutil.ignore_patterns("__pycache__"))
        compileall.compile_dir(copies[1], quiet=1)
        for _ in range(args.repeats):
            startup.append(startup_ms())
            source.append(self_times(copies[0]))
            compiled.append(self_times(copies[1]))
    print(f"src: {args.src.resolve()}  repeats: {args.repeats}  "
          f"python {sys.version.split()[0]}")
    print(f"interpreter start-up (python -c pass, wall): "
          f"{statistics.median(startup):.1f} ms")
    print("| module | self, no bytecode | self, bytecode | compile |")
    print("| --- | --- | --- | --- |")
    by_source, by_compiled = rows(source), rows(compiled)
    gp2d = sorted(name for name in by_source if name.startswith("gp2d."))
    others = sorted((name for name in by_source
                     if not name.startswith("gp2d")),
                    key=lambda name: -statistics.median(by_compiled[name]))
    for name in ["gp2d"] + gp2d + ["gp2d, all modules"] + others:
        a = statistics.median(by_source[name])
        b = statistics.median(by_compiled[name])
        print(f"| {name} | {a:.2f} ms | {b:.2f} ms | {a - b:+.2f} ms |")


if __name__ == "__main__":
    main()

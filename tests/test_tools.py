"""The scripts under tools/ run on the package's current API: each is
imported from its file and its in-process entry point is run at a small
size, so a signature change in gp2d that a tool still calls the old way
fails here."""
import importlib.util
from pathlib import Path

import pytest
from numpy.linalg import eigh, eigvalsh

from gp2d import bessel
from gp2d.config import RunConfig
from gp2d.energy import Pipeline
from gp2d.fock import r_effective_hamiltonian

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fock_layer_timing_one_run():
    run = load_tool("fock_layer_timing").one_run(4, 3)
    cfg = RunConfig(shell=4)
    pipe = Pipeline(cfg)
    basis = pipe.basis(3)
    op = r_effective_hamiltonian(basis, pipe.renorm(3, cfg.fock_alpha),
                                 pipe.pot)
    assert run["dim"] == basis.dim
    assert run["e0"] == op.lowest(eigvalsh, eigh)[0]
    assert run["blocks"] <= run["sectors"]
    assert run["build_s"] >= 0.0 and run["lowest_s"] >= 0.0


def test_fit_bessel_tables_prints_the_package_tables(capsys, monkeypatch):
    # the tables in gp2d.bessel are the generator's output, bit for bit
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.setattr(mpmath.mp, "dps", mpmath.mp.dps)   # the tool sets it
    load_tool("fit_bessel_tables").main()
    printed = {}
    exec(capsys.readouterr().out, {}, printed)
    names = ["_A0", "_A1", "_B0", "_B1", "_P0", "_Q0", "_P1", "_Q1"]
    assert sorted(printed) == sorted(names)
    for name in names:
        assert ([c.hex() for c in printed[name]]
                == [c.hex() for c in getattr(bessel, name)]), name


def test_import_cost_times_every_gp2d_module():
    # one `python -X importtime` child on this checkout's src: importing
    # gp2d.cli loads every module of the package, each with its self time
    src = TOOLS.parent / "src"
    times = load_tool("import_cost").self_times(src)
    modules = {"gp2d"} | {f"gp2d.{path.stem}"
                          for path in (src / "gp2d").glob("*.py")
                          if path.stem != "__init__"}
    assert modules <= set(times), modules - set(times)
    assert all(times[name] >= 0.0 for name in modules)

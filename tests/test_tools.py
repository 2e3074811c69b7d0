"""The scripts under tools/ run on the package's current API: each is
imported from its file and its in-process entry point is run at a small
size, so a signature change in gp2d that a tool still calls the old way
fails here."""
import importlib.util
from pathlib import Path

from numpy.linalg import eigh, eigvalsh

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

"""What the benchmark relies on must hold in gp2d.

``perfbench/spans.py`` wraps solver names by module attribute and observes
public layer functions by name; a rename in gp2d would silently drop the
counters of a traced run (``perfbench/run.py --trace 1``).  The tracer is
loaded from its file and never installed here.  ``perfbench/checks.py``
compares every pass with frozen reference outputs; the certified
lower-bound constant must stay inside its window there.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from gp2d.cli import main
from gp2d.fock import build_basis, build_operator, shell_modes

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the config of the fock-shell8 workload of perfbench/run.py
SHELL8 = "shell = 8\nfock_n_max = 5\nN_step = 10\n"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


def test_solver_names_resolve(spans):
    assert spans.SOLVERS
    for layer, attr in spans.SOLVERS:
        mod = importlib.import_module(f"gp2d.{layer}")
        assert callable(getattr(mod, attr, None)), f"gp2d.{layer}.{attr}"


def test_observed_functions_resolve(spans):
    assert spans.OBSERVERS
    for name in spans.OBSERVERS:
        layer, attr = name.split(".")
        assert layer in spans.LAYERS
        mod = importlib.import_module(f"gp2d.{layer}")
        fn = getattr(mod, attr, None)
        # install() wraps public functions defined in their own module
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, name
        assert not attr.startswith("_")


# The arguments the observers of spans.py read by name from the bound call.
OBSERVED_PARAMETERS = {
    "scattering.neumann_ground_state": ("R",),
    "kernels.eta_coefficients": ("sol", "params", "lat", "per_efold"),
    "potentials.fourier_transform_radial": ("k",),
}


@pytest.mark.parametrize("name", sorted(OBSERVED_PARAMETERS))
def test_observed_parameters_exist(spans, name):
    assert name in spans.OBSERVERS
    layer, attr = name.split(".")
    fn = getattr(importlib.import_module(f"gp2d.{layer}"), attr)
    params = inspect.signature(fn).parameters
    for arg in OBSERVED_PARAMETERS[name]:
        assert arg in params, f"{name}({arg}=...)"


def test_build_operator_result_has_dim():
    basis = build_basis(shell_modes(4), 2)
    op = build_operator(basis, [(1.0, [("ad", 0), ("a", 0)])], "n_0")
    assert op.dim == basis.dim


def test_shell8_lower_bound_inside_reference_window(tmp_path):
    checks = _load("checks")
    path = tmp_path / "run.cfg"
    path.write_text(SHELL8)
    out = tmp_path / "out"
    assert main(["lower-bound", "--config", str(path), "--out", str(out)]) == 0
    ctx = {"ref": checks.REFERENCE["configs"]["shell8"], "seeded_rows": None}
    assert checks._lower_bound(out, "", ctx) == []

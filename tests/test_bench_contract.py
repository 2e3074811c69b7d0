"""The names the benchmark's tracer rebinds must exist in gp2d.

``perfbench/spans.py`` wraps solver names by module attribute and observes
public layer functions by name; a rename in gp2d would silently drop the
counters of a traced run (``perfbench/run.py --trace 1``).  The tracer is
loaded from its file and never installed here.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from gp2d.fock import build_basis, build_operator, shell_modes

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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

"""Per-layer spans and solver counters, installed on gp2d from outside.

The package imports its own functions by name (``from .x import y``), so
a wrapper has to replace the original in every gp2d module namespace that
holds it, and in module-level dicts such as ``cli._DISPATCH``; wrapping
only the defining module would miss the calls made from ``cli`` and
``energy``.  Spans stay in memory; the child process writes them when its
pass ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# The modules of src/gp2d that count as layers.  quadrature and errors are
# only called from inside these, so their cost lands in the callers' self
# time.
LAYERS = ("config", "cli", "potentials", "scattering", "lattice", "kernels",
          "fock", "audits", "energy")


class Tracer:
    """Spans ``[id, name, start, end, parent]`` and counters of one pass."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = defaultdict(int)
        self.maxima: dict = defaultdict(int)
        self.inputs: dict = defaultdict(set)

    def span(self, name: str, fn, observe=None):
        sig = inspect.signature(fn) if observe is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(self.spans), name, time.perf_counter(), None,
                   self.stack[-1] if self.stack else None]
            self.spans.append(rec)
            self.stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                self.stack.pop()
            if observe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self, bound.arguments, out)
            return out
        return traced

    def counter(self, fn, observe):
        """Wrap a solver entry point: counted, but not a span, so its time
        stays in the calling layer's self time."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            observe(self, args, out)
            return out
        return counted

    def metrics(self) -> dict:
        """Per-layer metrics of this pass, keyed as in BENCHMARK.json."""
        calls = defaultdict(int)
        incl = defaultdict(float)
        child = defaultdict(float)
        for sid, name, start, end, parent in self.spans:
            calls[name] += 1
            incl[name] += end - start
            if parent is not None:
                child[parent] += end - start
        self_s = defaultdict(float)
        for sid, name, start, end, parent in self.spans:
            self_s[name] += (end - start) - child[sid]

        out = {}
        for name in ("cli.cmd_scatter", "cli.cmd_neumann", "cli.cmd_kernels",
                     "cli.cmd_fock_audit", "cli.cmd_lower_bound",
                     "cli.cmd_energy_sweep", "config.load_config",
                     "kernels.eta_coefficients",
                     "kernels.scattering_residual",
                     "fock.effective_hamiltonians", "fock.generators",
                     "audits.condensation_lower_bound",
                     "audits.localization_check", "energy.load_dataset",
                     "energy.write_dataset"):
            out[f"{name}.s"] = incl[name]
        for name in ("scattering.scattering_length",
                     "scattering.neumann_ground_state",
                     "potentials.fourier_transform_radial",
                     "lattice.build_lattice", "kernels.eta_coefficients",
                     "fock.build_operator", "audits.min_constant",
                     "energy.ground_state"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["kernels.omega_lattice_sum.self_s"] = \
            self_s["kernels.omega_lattice_sum"]
        for name in ("scattering.neumann_ground_state",
                     "kernels.eta_coefficients"):
            out[f"{name}.distinct_ratio"] = (
                len(self.inputs[name]) / calls[name] if calls[name] else 0.0)
        for name in ("scattering.ode_solves", "scattering.rhs_evals",
                     "potentials.fourier_transform_radial.points",
                     "fock.dense_bytes", "fock.expm_calls",
                     "audits.eigvalsh_calls", "energy.sweep.records_computed",
                     "energy.sweep.records_skipped"):
            out[name] = self.counts[name]
        for name in ("fock.max_dim", "audits.eig_max_dim",
                     "energy.eig_max_dim"):
            out[name] = self.maxima[name]
        return out


def _neumann_input(tr, a, out):
    tr.inputs["scattering.neumann_ground_state"].add(float(a["R"]))


def _eta_input(tr, a, out):
    sol, params, lat = a["sol"], a["params"], a["lat"]
    tr.inputs["kernels.eta_coefficients"].add(
        (sol.R, sol.lam_R2, params.N, params.alpha, params.ell_scale,
         lat.cutoff, a["per_efold"]))


def _transform_points(tr, a, out):
    tr.counts["potentials.fourier_transform_radial.points"] += \
        int(np.size(a["k"]))


def _operator_size(tr, a, out):
    # computed, not measured: the bytes of one dense complex128 matrix
    dim = int(out.dim)
    tr.counts["fock.dense_bytes"] += 16 * dim * dim
    tr.maxima["fock.max_dim"] = max(tr.maxima["fock.max_dim"], dim)


def _sweep_records(tr, a, out):
    tr.counts["energy.sweep.records_skipped"] += int(out.skipped)
    tr.counts["energy.sweep.records_computed"] += \
        len(out.records) - int(out.skipped)


OBSERVERS = {
    "scattering.neumann_ground_state": _neumann_input,
    "kernels.eta_coefficients": _eta_input,
    "potentials.fourier_transform_radial": _transform_points,
    "fock.build_operator": _operator_size,
    "energy.sweep": _sweep_records,
}


def _ode(tr, args, out):
    tr.counts["scattering.ode_solves"] += 1
    tr.counts["scattering.rhs_evals"] += int(out.nfev)


def _eig(counter, max_dim):
    def observe(tr, args, out):
        if counter:
            tr.counts[counter] += 1
        tr.maxima[max_dim] = max(tr.maxima[max_dim], int(args[0].shape[0]))
    return observe


def _expm(tr, args, out):
    tr.counts["fock.expm_calls"] += 1


# (module, imported solver name) -> what its calls count towards
SOLVERS = {
    ("scattering", "solve_ivp"): _ode,
    ("audits", "eigvalsh"): _eig("audits.eigvalsh_calls",
                                 "audits.eig_max_dim"),
    ("audits", "eigh"): _eig(None, "audits.eig_max_dim"),
    ("energy", "eigh"): _eig(None, "energy.eig_max_dim"),
    ("energy", "eigsh"): _eig(None, "energy.eig_max_dim"),
    ("fock", "expm"): _expm,
}


def install(tracer: Tracer) -> None:
    """Wrap every public function of every layer, and the solver names the
    layers import, in all loaded gp2d modules."""
    mods = [m for name, m in sorted(sys.modules.items())
            if name == "gp2d" or name.startswith("gp2d.")]
    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"gp2d.{layer}"]
        for attr, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = (fn, tracer.span(name, fn,
                                                    OBSERVERS.get(name)))
    for mod in mods:
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
            elif isinstance(val, dict):
                for key, item in list(val.items()):
                    hit = wrappers.get(id(item))
                    if hit is not None and hit[0] is item:
                        val[key] = hit[1]
    for (layer, attr), observe in SOLVERS.items():
        mod = sys.modules[f"gp2d.{layer}"]
        setattr(mod, attr, tracer.counter(getattr(mod, attr), observe))

import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gp2d
from gp2d import energy, fock, scattering
from gp2d.audits import (commutator_residual, localization_check,
                         localization_identity)
from gp2d.cli import main, write_manifest
from gp2d.config import RunConfig, fingerprint
from gp2d.energy import Pipeline, sweep_grid
from gp2d.errors import ConfigError
from gp2d.fock import (LinearOperator, build_basis, effective_hamiltonians,
                       ladder, number_operator, shell_modes)
from gp2d.scattering import neumann_ground_state

FAST = """\
N_min = 10
N_max = 40
N_step = 6
fock_n_max = 4
cutoff = 25.132741228718345
"""


@pytest.fixture()
def fast_cfg(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FAST)
    return path


def run(args):
    return main([str(a) for a in args])


def test_scatter_command(tmp_path, fast_cfg, capsys):
    out = tmp_path / "out"
    code = run(["scatter", "--config", fast_cfg, "--out", out])
    assert code == 0
    data = json.loads((out / "scatter.json").read_text())
    assert data["a"] == pytest.approx(0.10643788, rel=1e-6)
    assert "scattering length" in capsys.readouterr().out


def test_neumann_command(tmp_path, fast_cfg):
    out = tmp_path / "out"
    assert run(["neumann", "--config", fast_cfg, "--out", out]) == 0
    assert (out / "neumann.csv").exists()


def test_kernels_command(tmp_path, fast_cfg):
    out = tmp_path / "out"
    assert run(["kernels", "--config", fast_cfg, "--out", out]) == 0
    assert (out / "kernels.csv").exists()


def test_fock_audit_command(tmp_path, fast_cfg):
    out = tmp_path / "out"
    assert run(["fock-audit", "--config", fast_cfg, "--out", out]) == 0
    report = json.loads((out / "fock_audit.json").read_text())
    assert report


def test_fock_audit_reports_generators_that_are_not_antihermitian(
        tmp_path, fast_cfg, capsys, monkeypatch):
    # B built with the hermitian sign: the audit's antihermitian line
    # fails and the report is written, instead of an error from the build
    pair_terms = fock._pair_terms
    monkeypatch.setattr(fock, "_pair_terms",
                        lambda basis, weights, sign:
                        pair_terms(basis, weights, 1.0))
    out = tmp_path / "out"
    assert run(["fock-audit", "--config", fast_cfg, "--out", out]) == 1
    assert "fock-audit antihermitian: residual" in capsys.readouterr().out
    report = json.loads((out / "fock_audit.json").read_text())
    assert report["pass"] is False
    assert report["residuals"]["antihermitian"] > fock.HERMITIAN_TOL


def test_lower_bound_default_lattice_sum(tmp_path, capsys):
    # the default config's lattice sum, frozen from the n_exact = 3000
    # octant sum it replaced; the printed gap does not move
    out = tmp_path / "out"
    assert run(["lower-bound", "--out", out]) == 0
    assert "lattice-sum-gap=27.567" in capsys.readouterr().out
    scalars = json.loads(
        (out / "lower_bound.json").read_text().splitlines()[1])
    assert scalars["lattice_sum"] == pytest.approx(49.34268112692694,
                                                   rel=1e-8)


def test_all_command_and_manifest(tmp_path, fast_cfg):
    out = tmp_path / "out"
    code = run(["all", "--config", fast_cfg, "--out", out,
                "--emit-plots-script"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["commands"].values()) == {"pass"}
    assert manifest["fingerprint"]
    assert any(a.endswith("plots.gp") for a in manifest["artifacts"])
    assert (out / "sweep.csv").exists()
    assert (out / "plots.gp").exists()


@pytest.mark.parametrize("potential", ["step", "gaussian-bump", "free",
                                       "table"])
def test_all_passes_for_every_potential_kind(tmp_path, potential):
    if potential == "table":
        table = tmp_path / "pot.tab"
        table.write_text("# radial-potential v1\n0.0 2.0\n0.5 1.5\n"
                         "1.0 0.0\n")
        potential = f"table:{table}"
    path = tmp_path / "run.cfg"
    path.write_text(FAST + f"potential = {potential}\n")
    out = tmp_path / "out"
    assert run(["all", "--config", path, "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    commands = manifest["commands"]
    assert len(commands) == 6 and set(commands.values()) == {"pass"}
    assert len(manifest["artifacts"]) == 6
    assert all(Path(a).is_file() for a in manifest["artifacts"])


def test_all_computes_each_quantity_once(tmp_path, fast_cfg, monkeypatch):
    calls = {"scattering_length": [], "neumann_ground_state": []}
    for name, log in calls.items():
        original = getattr(scattering, name)
        sig = inspect.signature(original)

        def counted(*args, _orig=original, _sig=sig, _log=log, **kwargs):
            _log.append(_sig.bind(*args, **kwargs).arguments)
            return _orig(*args, **kwargs)

        # rebind the name wherever a gp2d module holds it
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name.split(".")[0] == "gp2d"
                    and getattr(mod, name, None) is original):
                monkeypatch.setattr(mod, name, counted)

    assert run(["all", "--config", fast_cfg, "--out", tmp_path / "o"]) == 0
    assert len(calls["scattering_length"]) == 1
    radii = [args["R"] for args in calls["neumann_ground_state"]]
    # N=12 at alpha 1.5, the Fock builds N=3, 4 at alpha 2.5, and the
    # trajectory N=10, 16, ..., 40 at alpha 1.5
    assert len(radii) == len(set(radii)) == 9


def test_all_integrates_interior_once(tmp_path, fast_cfg, monkeypatch):
    solves, builds = [], []
    original_fixed = scattering._fixed_lambda_interior
    original_series = scattering.interior_series

    def counted_fixed(*args):
        solves.append(args[1])
        return original_fixed(*args)

    def counted_series(pot):
        builds.append(pot)
        return original_series(pot)

    monkeypatch.setattr(scattering, "_fixed_lambda_interior", counted_fixed)
    monkeypatch.setattr(scattering, "interior_series", counted_series)
    assert run(["all", "--config", fast_cfg, "--out", tmp_path / "o"]) == 0
    # the interior lambda-series, built once by collocation: the
    # zero-energy solution is its lambda = 0 term, and none of the nine
    # Neumann radii solves its own interior at a fixed lambda
    assert len(builds) == 1
    assert solves == []


def test_all_computes_the_scattering_length_once(tmp_path, monkeypatch):
    # a is read from the zero-energy solution by every Neumann solve: a
    # default run computes it once, not once per solve
    tails = []
    original = scattering.InteriorSeries.log_tail

    def counted(self):
        tails.append(self.pot)
        return original(self)

    monkeypatch.setattr(scattering.InteriorSeries, "log_tail", counted)
    assert run(["all", "--out", tmp_path / "o"]) == 0
    assert len(tails) == 1


def test_all_refuses_a_scattering_length_that_underflows(tmp_path, capsys,
                                                         monkeypatch):
    # at v0 = 1e-4, a = r0 exp(-phi/c) is below the smallest double: each
    # command fails on its own error line and the manifest is written.
    # The Pipeline keeps the refusal, so the interior series that refused
    # it is built once, not once per command
    builds = []
    original = scattering.interior_series

    def counted(pot):
        builds.append(pot)
        return original(pot)

    monkeypatch.setattr(scattering, "interior_series", counted)
    path = tmp_path / "weak.cfg"
    path.write_text(FAST + "v0 = 1e-4\n")
    out = tmp_path / "out"
    assert run(["all", "--config", path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(builds) == 1
    assert err.count("error:") == err.count("\n") == 6
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["commands"].values()) == {"fail"}
    for name in manifest["commands"]:
        assert f"{name}: error: scattering length" in err


def test_range_rule_has_one_message(tmp_path, capsys, step_zero):
    # R <= r0 is refused by one rule, whether the Pipeline reads it at
    # log R before any command runs or neumann_ground_state at R itself
    path = tmp_path / "run.cfg"
    path.write_text("fock_alpha = 4\n")
    assert run(["all", "--config", path, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    with pytest.raises(ConfigError) as direct:
        neumann_ground_state(step_zero, 0.5)
    pattern = (r"^disk radius R = exp\(-?[0-9.]+\) does not exceed the "
               r"potential range 1.0$")
    assert re.match(pattern, err.removeprefix("error: ").strip()), err
    assert re.match(pattern, str(direct.value)), direct.value


def test_all_builds_each_basis_once(tmp_path, monkeypatch):
    # fock-audit, lower-bound and energy-sweep share the basis of a cap:
    # one build per cap 3..fock_n_max on the default config
    caps = []
    original = energy.build_basis

    def counted(modes, cap):
        caps.append(cap)
        return original(modes, cap)

    monkeypatch.setattr(energy, "build_basis", counted)
    assert run(["all", "--out", tmp_path / "o"]) == 0
    assert sorted(caps) == list(range(3, RunConfig().fock_n_max + 1))


# Run in a fresh interpreter, since this one has imported them already.
# Arguments: the FAST config, the shell-8 config, the output directory.
# The last call takes the lambda r0^2 >> 1 path (lambda r0^2 ~ 340).
LAZY_SCIPY_SCRIPT = """
import json, sys
from gp2d.cli import main
from gp2d.potentials import step
from gp2d.scattering import neumann_ground_state, scattering_length
fast, shell8, out = sys.argv[1:]
for args in (["all", "--config", fast, "--out", out + "/all"],
             ["lower-bound", "--config", shell8, "--out", out + "/s8"],
             ["energy-sweep", "--config", shell8, "--out", out + "/s8"]):
    if main(args + ["--threads", "1"]) != 0:
        sys.exit(f"{args[0]} failed")
neumann_ground_state(scattering_length(step(2000.0, 1.0)), 1.05)
print(json.dumps(sorted(
    name for name in sys.modules
    if name == "scipy" or name.startswith("scipy.")
    or name in ("numpy.ma", "numpy.random", "hashlib", "_hashlib",
                "dataclasses", "numpy.polynomial"))))
"""

# an interpreter without a builtin SHA-256 takes it from hashlib (OpenSSL)
BUILTIN_SHA256 = any(importlib.util.find_spec(name)
                     for name in ("_sha2", "_sha256"))


def test_cli_leaves_unused_scipy_subpackages_unloaded(tmp_path, fast_cfg):
    # importing scipy costs more than a whole CLI call, and no gp2d path
    # loads it: not the commands, and no Neumann solve, whatever lambda.
    # numpy.ma (a bare np.unique) and numpy.random are slow to import too
    # and stay unloaded, and so does hashlib, which maps OpenSSL to hash
    # the config into its fingerprint.  So do dataclasses, whose class
    # decorations generate and compile code at import, and
    # numpy.polynomial, whose one quadrature rule, Chebyshev tables and
    # line fit gp2d computes itself.
    shell8 = tmp_path / "shell8.cfg"
    shell8.write_text("shell = 8\nfock_n_max = 5\nN_step = 10\n")
    src = str(Path(gp2d.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_SCIPY_SCRIPT, str(fast_cfg), str(shell8),
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = json.loads(proc.stdout.splitlines()[-1])
    if not BUILTIN_SHA256:
        loaded = [name for name in loaded
                  if name not in ("hashlib", "_hashlib")]
    assert loaded == []


@pytest.mark.parametrize("shell", [8, 12])
def test_fock_audit_larger_shell(tmp_path, shell):
    path = tmp_path / "run.cfg"
    path.write_text(FAST + f"shell = {shell}\n")
    out = tmp_path / "out"
    assert run(["fock-audit", "--config", path, "--out", out]) == 0
    report = json.loads((out / "fock_audit.json").read_text())
    assert report["pass"] is True
    # the excitation map is audited on the run's own shell
    assert set(report) == {"residuals", "pass", "tolerances"}


def dense_commutator_residual(basis):
    """The commutator identities of the modified operators from dense
    ladder matrices, as test_fock.py's test_canonical_commutators checks
    them."""
    n = basis.cap
    eye, ntot = np.eye(basis.dim), number_operator(basis).mat
    worst = 0.0
    for p in basis.modes:
        ap, bp = ladder(basis, p, "a").mat, ladder(basis, p, "b").mat
        for q in basis.modes:
            aq, bq = ladder(basis, q, "a").mat, ladder(basis, q, "b").mat
            delta = 1.0 if p == q else 0.0
            lhs = bp @ bq.T - bq.T @ bp
            rhs = delta * (eye - ntot / n) - aq.T @ ap / n
            worst = max(worst, np.abs(lhs - rhs).max(),
                        np.abs(bp @ bq - bq @ bp).max())
    return worst


@pytest.mark.parametrize("shell", [4, 8])
def test_fock_audit_commutators_match_dense(shell):
    # fock-audit's assembled commutator check agrees with the dense one,
    # and both see one ladder amplitude off by a relative 1e-6
    basis = build_basis(shell_modes(shell), 3)
    assert commutator_residual(basis) <= 1e-14
    assert dense_commutator_residual(basis) <= 1e-14
    dest, amp = basis.ladder_table[:2]
    row = fock._KIND["b"] * basis.n_modes + 1     # b_1
    amp[row, np.flatnonzero(dest[row] >= 0)[0]] *= 1 + 1e-6
    assert commutator_residual(basis) > 1e-10
    assert dense_commutator_residual(basis) > 1e-10
    # fock-audit's localization residual is the one localization_check
    # reports
    cfg = RunConfig(shell=shell)
    pipe = Pipeline(cfg)
    basis = pipe.basis(3)
    ops = effective_hamiltonians(basis, pipe.renorm(3, cfg.fock_alpha),
                                 pipe.pot)
    rep = localization_check(ops["R_eff"], basis, 3 ** 0.8, ops["H_N"],
                             pipe.params(3, cfg.fock_alpha))
    assert rep.identity_residual == localization_identity(
        ops["R_eff"], basis, 3 ** 0.8)[0]


def test_shell8_runs_without_dense_matrices(tmp_path, monkeypatch):
    # lower-bound and energy-sweep assemble, certify and eigensolve every
    # operator block by block: no dense matrix is ever asked for
    def refuse(op):
        raise AssertionError(f"dense matrix of {op.tag} requested")

    monkeypatch.setattr(LinearOperator, "mat", property(refuse))
    path = tmp_path / "run.cfg"
    path.write_text("shell = 8\nfock_n_max = 5\nN_step = 10\n")
    for command in ("lower-bound", "energy-sweep"):
        assert run([command, "--config", path, "--out", tmp_path / "o"]) == 0


def test_interrupted_manifest_write_keeps_previous(tmp_path, monkeypatch):
    path = tmp_path / "manifest.json"
    write_manifest({"commands": {"scatter": "pass"}}, path)
    before = path.read_text()
    original = Path.write_text

    def torn(self, data, *args, **kwargs):
        original(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError("device full")

    monkeypatch.setattr(Path, "write_text", torn)
    with pytest.raises(OSError):
        write_manifest({"commands": {"scatter": "fail", "neumann": "pass"}},
                       path)
    monkeypatch.undo()
    assert path.read_text() == before
    assert json.loads(before) == {"commands": {"scatter": "pass"}}


def test_every_artifact_goes_through_the_atomic_writer(tmp_path, fast_cfg,
                                                      monkeypatch):
    # the manifest and each artifact it lists are written by write_atomic,
    # wherever a gp2d module holds it, and no temporary file is left
    written, original = [], energy.write_atomic

    def spy(path, text):
        written.append(str(path))
        original(path, text)

    for name, mod in list(sys.modules.items()):
        if (name.startswith("gp2d.")
                and getattr(mod, "write_atomic", None) is original):
            monkeypatch.setattr(mod, "write_atomic", spy)
    out = tmp_path / "out"
    assert run(["all", "--config", fast_cfg, "--out", out,
                "--emit-plots-script"]) == 0
    artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
    assert len(artifacts) == 7
    assert sorted(written) == sorted(artifacts + [str(out / "manifest.json")])
    assert list(out.glob("*.tmp")) == []


def test_fock_audit_default_shell_names_no_modes(tmp_path, fast_cfg):
    out = tmp_path / "out"
    assert run(["fock-audit", "--config", fast_cfg, "--out", out]) == 0
    report = json.loads((out / "fock_audit.json").read_text())
    assert set(report) == {"residuals", "pass", "tolerances"}


def test_energy_sweep_unreadable_dataset(tmp_path, fast_cfg, capsys):
    out = tmp_path / "out"
    (out / "sweep.csv").mkdir(parents=True)
    assert run(["energy-sweep", "--config", fast_cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("energy-sweep: error: cannot read ")
    assert err.count("\n") == 1


def test_out_dir_from_environment(tmp_path, fast_cfg, monkeypatch):
    target = tmp_path / "env-out"
    monkeypatch.setenv("GP2D_OUT", str(target))
    assert run(["scatter", "--config", fast_cfg]) == 0
    assert (target / "scatter.json").exists()


def test_manifest_fingerprint_matches_config(tmp_path, fast_cfg):
    out = tmp_path / "out"
    run(["scatter", "--config", fast_cfg, "--out", out])
    manifest = json.loads((out / "manifest.json").read_text())
    from gp2d.config import load_config
    assert manifest["fingerprint"] == fingerprint(load_config(fast_cfg))


def test_bad_config_exits_2(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("bogus = 1\n")
    assert run(["scatter", "--config", path, "--out", tmp_path / "o"]) == 2


def test_fock_sweep_below_three_particles_exits_2(tmp_path, capsys):
    path = tmp_path / "small.cfg"
    path.write_text(FAST.replace("fock_n_max = 4", "fock_n_max = 2"))
    assert run(["energy-sweep", "--config", path,
                "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fock_n_max must be at least 3")
    assert err.count("\n") == 1


def _exits_2_with_one_line(args, capsys, message):
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert err.count("\n") == 1


def test_missing_config_file_exits_2(tmp_path, capsys):
    _exits_2_with_one_line(["scatter", "--config", tmp_path / "none.cfg",
                            "--out", tmp_path / "o"], capsys,
                           "cannot read config")


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_output_path_that_cannot_be_a_directory_exits_2(tmp_path, capsys,
                                                        out):
    # FileExistsError for a file, NotADirectoryError below one
    (tmp_path / "file").write_text("")
    _exits_2_with_one_line(["scatter", "--out", tmp_path / out], capsys,
                           "cannot write output")


def test_unwritable_artifact_exits_2(tmp_path, capsys):
    # renaming the finished file over a directory fails (IsADirectoryError)
    out = tmp_path / "o"
    (out / "scatter.json").mkdir(parents=True)
    _exits_2_with_one_line(["scatter", "--out", out], capsys,
                           "cannot write output")
    assert sorted(p.name for p in out.iterdir()) == ["scatter.json"]


def test_non_finite_config_value_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.cfg"
    path.write_text("v0 = nan\n")
    _exits_2_with_one_line(["all", "--config", path, "--out", tmp_path / "o"],
                           capsys, "v0 must be finite")


def test_non_positive_ell_scale_exits_2(tmp_path, capsys):
    # GPParameters refuses it when the Pipeline is made, before a command runs
    path = tmp_path / "ell.cfg"
    path.write_text("ell_scale = -1\n")
    _exits_2_with_one_line(["all", "--config", path, "--out", tmp_path / "o"],
                           capsys, "ell_scale must be positive")


@pytest.mark.parametrize("text,message", [
    ("N_max = 320\n", "N = 302 exceeds the overflow guard"),
    ("N = 400\n", "N = 400 exceeds the overflow guard"),
    ("shell = 12\nfock_n_max = 9\n", "basis dimension 293930 exceeds cap"),
    ("fock_alpha = 4\n", "does not exceed the potential range 1.0"),
    ("r0 = 30\n", "does not exceed the potential range 30.0"),
    ("alpha = 0.1\n", "ell = 0.78 must be < 1/2"),
    ("N_min = 2\nalpha = 0.6\n", "ell = 0.6598 must be < 1/2"),
    ("alpha = -1\n", "alpha must be positive"),
    ("N = 1\n", "N must be an integer >= 2"),
    ("cutoff = 1.0\n", "cutoff 1.0 leaves the lattice empty"),
    ("shell = 8\ncutoff = 8.5\n", "mode (1,1) not on the lattice of cutoff"),
    ("shell = 12\ncutoff = 9.5\n", "mode (2,0) not on the lattice of cutoff"),
    ("shell = 5\n", "unsupported shell size 5"),
    ("potential = mystery\n", "unknown potential 'mystery'"),
    ("ell_scale = -1\n", "ell_scale must be positive"),
    ("ell_scale = 0\n", "ell_scale must be positive"),
])
def test_run_a_layer_refuses_exits_2_before_any_command(tmp_path, capsys,
                                                        text, message):
    # the Pipeline refuses the run with the layer's own rule before any
    # command runs: nothing is written, not even the output directory
    path = tmp_path / "run.cfg"
    path.write_text(text)
    out = tmp_path / "o"
    _exits_2_with_one_line(["all", "--config", path, "--out", out], capsys,
                           message)
    assert not out.exists()


@pytest.mark.parametrize("table,message", [
    (None, "cannot read potential table"),
    ("0.0 1.0\n0.5 abc\n1.0 0.0\n", "cannot read potential table"),
    ("0.0 1.0\n0.5 nan\n1.0 0.0\n", "potential values must be finite"),
], ids=["missing", "malformed", "nan"])
def test_bad_potential_table_exits_2(tmp_path, capsys, table, message):
    pot = tmp_path / "pot.tab"
    if table is not None:
        pot.write_text("# radial-potential v1\n" + table)
    path = tmp_path / "run.cfg"
    path.write_text(f"potential = table:{pot}\n")
    _exits_2_with_one_line(["scatter", "--config", path,
                            "--out", tmp_path / "o"], capsys, message)


def test_lower_bound_refuses_c_lower_beyond_log_n(tmp_path, capsys):
    # c_lower = 2 > log 4 flips the sign of 1 - c/log N: the scalar check
    # would pass vacuously, so the command reports an error instead
    path = tmp_path / "run.cfg"
    path.write_text(FAST + "c_lower = 2.0\n")
    assert run(["lower-bound", "--config", path,
                "--out", tmp_path / "o"]) == 1
    captured = capsys.readouterr()
    assert "[ok]" not in captured.out
    assert captured.err.startswith("lower-bound: error: c / log N")


def test_default_config_is_runnable(tmp_path):
    # no config file: package defaults drive the scatter stage
    assert run(["scatter", "--out", tmp_path / "o"]) == 0


def test_energy_sweep_reports_malformed_rows(tmp_path, fast_cfg, capsys):
    out = tmp_path / "out"
    assert run(["energy-sweep", "--config", fast_cfg, "--out", out]) == 0
    path = out / "sweep.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = lines[2].replace(",", ",x", 1)
    path.write_text("".join(lines))
    capsys.readouterr()
    assert run(["energy-sweep", "--config", fast_cfg, "--out", out]) == 0
    assert "rejected: 1 malformed rows of sweep.csv" in capsys.readouterr().out


def _damage_out_of_grid(rows):
    # a copy of the last row at an N that is no point of the grid
    return rows + ["999," + rows[-1].split(",", 1)[1]]


def _damage_fock_depletion(rows):
    # the Fock rows (dim > 0) with depletion set to nan
    out = []
    for row in rows:
        cells = row.split(",")
        if int(cells[3]) > 0:
            cells[6] = "nan"
        out.append(",".join(cells))
    return out


@pytest.mark.parametrize("damage,recomputed,rejected", [
    (_damage_out_of_grid, 0, 1), (_damage_fock_depletion, 4, 4)],
    ids=["out-of-grid", "nan-depletion"])
def test_energy_sweep_resumes_only_grid_rows(tmp_path, capsys, damage,
                                             recomputed, rejected):
    # a persisted row counts as done only when it is a grid point with
    # that point's shape; every other row is rejected and recomputed, and
    # the rewritten file is the undamaged one
    out = tmp_path / "out"
    assert run(["energy-sweep", "--out", out]) == 0
    path = out / "sweep.csv"
    good = path.read_text().splitlines()
    grid = len(list(sweep_grid(RunConfig())))
    assert len(good) - 2 == grid == 30
    path.write_text("\n".join(good[:2] + damage(good[2:])) + "\n")
    capsys.readouterr()
    assert run(["energy-sweep", "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert f"skipped: {grid - recomputed} records" in stdout
    assert f"rejected: {rejected} malformed rows" in stdout
    assert ([ln.rsplit(",", 1)[0] for ln in path.read_text().splitlines()]
            == [ln.rsplit(",", 1)[0] for ln in good])


def test_fock_audit_states_each_tolerance(tmp_path, fast_cfg):
    # each residual is reported with the tolerance it was held to: the
    # generators' antihermiticity to the operators' hermiticity
    # tolerance, the other residuals to 1e-10
    out = tmp_path / "out"
    assert run(["fock-audit", "--config", fast_cfg, "--out", out]) == 0
    report = json.loads((out / "fock_audit.json").read_text())
    assert report["tolerances"] == {"antihermitian": fock.HERMITIAN_TOL,
                                    "commutators": 1e-10,
                                    "localization": 1e-10,
                                    "unitary_map": 1e-10}
    assert set(report["tolerances"]) == set(report["residuals"])


def test_neumann_evaluates_the_profile_on_its_nodes_once(tmp_path, fast_cfg,
                                                         monkeypatch):
    # the ground-state certificate evaluates f on the nodes; the range
    # check and the CSV read it, and only f' is evaluated for the CSV
    seen = []
    original = scattering.NeumannSolution._at

    def counted(self, r, rows=2):
        if np.shape(r) == self.nodes.shape and np.array_equal(r, self.nodes):
            seen.append(rows)
        return original(self, r, rows)

    monkeypatch.setattr(scattering.NeumannSolution, "_at", counted)
    assert run(["neumann", "--config", fast_cfg, "--out",
                tmp_path / "out"]) == 0
    assert seen == [1, 2]

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gp2d
from gp2d import cli, energy, scattering
from gp2d.cli import main, write_manifest
from gp2d.config import RunConfig, fingerprint
from gp2d.fock import LinearOperator

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
    original_series = energy.interior_series

    def counted_fixed(*args):
        solves.append(args[1])
        return original_fixed(*args)

    def counted_series(pot):
        builds.append(pot)
        return original_series(pot)

    monkeypatch.setattr(scattering, "_fixed_lambda_interior", counted_fixed)
    monkeypatch.setattr(energy, "interior_series", counted_series)
    assert run(["all", "--config", fast_cfg, "--out", tmp_path / "o"]) == 0
    # the interior lambda-series, built once by collocation: the
    # zero-energy solution is its lambda = 0 term, and none of the nine
    # Neumann radii solves its own interior at a fixed lambda
    assert len(builds) == 1
    assert solves == []


# Run in a fresh interpreter, since this one has imported them already.
# Arguments: the FAST config, the shell-8 config, the output directory.
# The last call takes the lambda r0^2 >> 1 path (lambda r0^2 ~ 340).
LAZY_SCIPY_SCRIPT = """
import json, sys
from gp2d.cli import main
from gp2d.potentials import step
from gp2d.scattering import neumann_ground_state
fast, shell8, out = sys.argv[1:]
for args in (["all", "--config", fast, "--out", out + "/all"],
             ["lower-bound", "--config", shell8, "--out", out + "/s8"],
             ["energy-sweep", "--config", shell8, "--out", out + "/s8"]):
    if main(args + ["--threads", "1"]) != 0:
        sys.exit(f"{args[0]} failed")
neumann_ground_state(step(2000.0, 1.0), 1.05)
print(json.dumps(sorted(
    name for name in sys.modules
    if name == "scipy" or name.startswith("scipy.")
    or name in ("numpy.ma", "numpy.random"))))
"""


def test_cli_leaves_unused_scipy_subpackages_unloaded(tmp_path, fast_cfg):
    # importing scipy costs more than a whole CLI call, and no gp2d path
    # loads it: not the commands, and no Neumann solve, whatever lambda.
    # numpy.ma (a bare np.unique) and numpy.random are slow to import too
    # and stay unloaded.
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
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_fock_audit_larger_shell(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FAST + "shell = 8\n")
    out = tmp_path / "out"
    assert run(["fock-audit", "--config", path, "--out", out]) == 0
    report = json.loads((out / "fock_audit.json").read_text())
    assert report["pass"] is True
    assert report["unitary_map_modes"] == [[1, 0], [0, 1], [-1, 0], [0, -1]]


def test_fock_audit_builds_each_ladder_once(tmp_path, fast_cfg,
                                            monkeypatch):
    built = []
    original = cli.ladder

    def counted(basis, mode, kind):
        built.append((mode, kind))
        return original(basis, mode, kind)

    monkeypatch.setattr(cli, "ladder", counted)
    assert run(["fock-audit", "--config", fast_cfg, "--out", tmp_path]) == 0
    # a and b of each of the 4 modes, once each
    assert sorted(built) == sorted(set(built)) and len(built) == 8


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


def test_fock_audit_default_shell_names_no_modes(tmp_path, fast_cfg):
    out = tmp_path / "out"
    assert run(["fock-audit", "--config", fast_cfg, "--out", out]) == 0
    report = json.loads((out / "fock_audit.json").read_text())
    assert set(report) == {"residuals", "pass", "tolerance"}


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

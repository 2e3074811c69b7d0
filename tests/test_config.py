import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gp2d.config import (_FIELD_TO_KEY, FIELD_TYPES, RunConfig,
                         canonical_text, fingerprint, load_config,
                         parse_config)
from gp2d.energy import Pipeline
from gp2d.errors import ConfigError
from gp2d.fock import shell_modes
from gp2d.lattice import TWO_PI
from gp2d.potentials import save_table, step, tabulated


def test_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.potential == "step"
    assert cfg.make_potential()(0.5) == cfg.v0


def test_parse_and_aliases():
    cfg = parse_config("N = 14\nN_min = 12\nalpha = 2.0\n")
    assert cfg.n_value == 14
    assert cfg.n_min == 12
    assert cfg.alpha == 2.0


def test_parse_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\nv0 = 3.5  # inline\n")
    assert cfg.v0 == 3.5


@pytest.mark.parametrize("key", ["bogus", "cap", "tol_eig", "tol_psd",
                                 "audits", "strict"])
def test_unknown_key_rejected(key):
    # cap, tol_eig, tol_psd, audits and strict were once accepted; the
    # first four were never read, strict had nothing left to harden
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(f"{key} = 1\n")


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config("N = twelve\n")
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config("just words\n")


@pytest.mark.parametrize("text,msg", [
    ("alpha = -1\n", "alpha must be positive"),
    ("N = 1\n", "N must be an integer >= 2"),
    ("N_max = 5\nN_min = 10\n", "invalid N range"),
    ("cutoff = 1.0\n", "cutoff 1.0 leaves the lattice empty"),
    ("shell = 8\ncutoff = 8.5\n", "not on the lattice of cutoff 8.5"),
    ("shell = 12\ncutoff = 9.5\n", "not on the lattice of cutoff 9.5"),
    ("shell = 5\n", "unsupported shell size 5"),
    ("fock_n_max = 2\n", "Fock sweep starts at N = 3"),
    ("potential = mystery\n", "unknown potential"),
    ("c_lower = -5\n", "c_lower must be non-negative"),
    ("ell_scale = -1\n", "ell_scale must be positive"),
    ("ell_scale = 0\n", "ell_scale must be positive"),
    ("alpha = 1.5\nalpha = 2.5\n", "lines 1 and 2 both set alpha"),
    ("N = 10\n# the other spelling\nn_value = 20\n",
     "lines 1 and 3 both set N"),
])
def test_validation_messages(text, msg):
    # the config's own rules refuse in parse_config, the layers' rules
    # when the Pipeline is made: either way before any command runs
    with pytest.raises(ConfigError, match=msg):
        Pipeline(parse_config(text))


@pytest.mark.parametrize("shell", [4, 8, 12])
def test_smallest_cutoff_holds_the_shell(shell):
    # the least cutoff the Pipeline accepts puts every mode of the shell on
    # the lattice, and one a little below it is refused by name
    modes = shell_modes(shell)
    least = TWO_PI * max(math.hypot(*m) for m in modes)
    lattice = Pipeline(RunConfig(shell=shell, cutoff=least)).lattice
    for m in modes:
        lattice.index_of(*m)
    below = least * (1 - 1e-9)
    with pytest.raises(ConfigError, match=re.escape(f"cutoff {below}")):
        Pipeline(RunConfig(shell=shell, cutoff=below))


FLOAT_KEYS = [name for name, kind in FIELD_TYPES.items() if kind == "float"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_rejected(key, value):
    # float() parses all three; a nan would slip past every comparison
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        parse_config(f"{key} = {value}\n")


def test_non_finite_potential_rejected():
    with pytest.raises(ConfigError, match="must be finite"):
        step(float("nan"), 1.0)
    r = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ConfigError, match="must be finite"):
        tabulated(r, np.array([1.0, np.nan, 0.5, 0.2, 0.0]))


def test_canonical_roundtrip():
    cfg = parse_config("N = 14\nalpha = 2.25\nv0 = 1.75\n")
    back = parse_config(canonical_text(cfg))
    assert back == cfg
    assert fingerprint(back) == fingerprint(cfg)


def test_fingerprint_changes_with_the_physics():
    base = RunConfig()
    assert fingerprint(RunConfig(alpha=2.0)) != fingerprint(base)


@given(n=st.integers(2, 40), alpha=st.floats(0.5, 4.0),
       v0=st.floats(0.1, 20.0), shell=st.sampled_from([4, 8, 12]),
       potential=st.sampled_from(["step", "gaussian-bump", "free"]))
@settings(max_examples=50, deadline=None)
def test_fingerprint_is_hashlib_sha256(n, alpha, v0, shell, potential):
    # the builtin SHA-256 the fingerprint uses is hashlib's digest, so
    # sweep files written before still resume
    cfg = RunConfig(n_value=n, alpha=alpha, v0=v0, shell=shell,
                    potential=potential)
    want = hashlib.sha256(canonical_text(cfg).encode()).hexdigest()[:16]
    assert fingerprint(cfg) == want


def test_default_fingerprint_frozen():
    assert fingerprint(RunConfig()) == "ded4f1b1c3984f84"


@pytest.mark.parametrize("text", ["seed = 1\n", "threads = 2\n",
                                  "out_dir = x\n"])
def test_removed_knobs_are_unknown_keys(text):
    # nothing reads a seed or a thread count, so neither is a config key;
    # --out alone names the output directory
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(text)


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("potential = gaussian-bump\nv0 = 3.0\n")
    cfg = load_config(path)
    assert cfg.make_potential().kind == "gaussian-bump"


def test_table_potential(tmp_path):
    r = np.linspace(0.0, 1.0, 20)
    pot = tabulated(r, np.clip(1.0 - r, 0.0, None))
    path = tmp_path / "pot.txt"
    save_table(pot, path)
    cfg = parse_config(f"potential = table:{path}\n")
    assert cfg.make_potential()(0.0) == pytest.approx(1.0)


@given(n=st.integers(2, 40), alpha=st.floats(0.5, 4.0),
       v0=st.floats(0.1, 20.0))
@settings(max_examples=25, deadline=None)
def test_roundtrip_property(n, alpha, v0):
    cfg = RunConfig(n_value=n, alpha=alpha, v0=v0)
    back = parse_config(canonical_text(cfg))
    assert back == cfg
    assert fingerprint(back) == fingerprint(cfg)


def test_readme_lists_every_config_key():
    # the configuration block of the README names each key once
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Configuration", 1)[1].split("```")[1]
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines()
            if "=" in line.split("#", 1)[0]]
    assert sorted(keys) == sorted(_FIELD_TO_KEY.get(name, name)
                                  for name in FIELD_TYPES)

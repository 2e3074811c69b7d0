import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gp2d.config import (RunConfig, canonical_text, fingerprint, load_config,
                         parse_config)
from gp2d.errors import ConfigError
from gp2d.potentials import save_table, tabulated


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
    ("N = 1\n", "N must be at least 2"),
    ("N_max = 5\nN_min = 10\n", "invalid N range"),
    ("cutoff = 1.0\n", "cutoff must be at least"),
    ("shell = 5\n", "shell must be one of"),
    ("fock_n_max = 2\n", "Fock sweep starts at N = 3"),
    ("potential = mystery\n", "unknown potential"),
])
def test_validation_messages(text, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_config(text)


def test_canonical_roundtrip():
    cfg = parse_config("N = 14\nalpha = 2.25\nv0 = 1.75\n")
    back = parse_config(canonical_text(cfg))
    assert back == cfg
    assert fingerprint(back) == fingerprint(cfg)


def test_fingerprint_ignores_execution_knobs():
    base = RunConfig()
    assert fingerprint(RunConfig(out_dir="elsewhere")) == fingerprint(base)
    assert fingerprint(RunConfig(alpha=2.0)) != fingerprint(base)


@pytest.mark.parametrize("text", ["seed = 1\n", "threads = 2\n"])
def test_removed_knobs_are_unknown_keys(text):
    # nothing reads a seed or a thread count, so neither is a config key
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

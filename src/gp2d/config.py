"""Key-value run configuration with canonical serialization."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

from .errors import ConfigError

TWO_PI = 2.0 * math.pi


@dataclass
class RunConfig:
    """Validated settings for a laboratory run.

    The trajectory range (n_min..n_max) drives scalar sweeps; Fock-space
    builds run at N from 3 up to fock_n_max with their own exponent
    fock_alpha, chosen so the microscopic disk still contains the
    potential at small N.
    """

    potential: str = "step"
    v0: float = 2.0
    r0: float = 1.0
    alpha: float = 1.5
    n_value: int = 12
    n_min: int = 10
    n_max: int = 60
    n_step: int = 2
    fock_n_max: int = 6
    fock_alpha: float = 2.5
    cutoff: float = TWO_PI * 16
    shell: int = 4
    ell_scale: float = 1.0
    quad_per_efold: int = 8
    c_lower: float = 0.1
    out_dir: str = "out"

    def __post_init__(self):
        if self.alpha <= 0 or self.fock_alpha <= 0:
            raise ConfigError("alpha must be positive")
        if self.n_value < 2 or self.n_min < 2:
            raise ConfigError("N must be at least 2")
        if self.n_max < self.n_min or self.n_step < 1:
            raise ConfigError("invalid N range")
        if self.fock_n_max < 3:
            raise ConfigError("fock_n_max must be at least 3: the Fock "
                              "sweep starts at N = 3")
        if self.cutoff < TWO_PI:
            raise ConfigError("cutoff must be at least 2*pi")
        if self.shell not in (4, 8, 12):
            raise ConfigError("shell must be one of 4, 8, 12")
        if self.quad_per_efold < 1:
            raise ConfigError("quad_per_efold must be positive")
        if self.potential not in ("step", "gaussian-bump", "free") \
                and not self.potential.startswith("table:"):
            raise ConfigError(f"unknown potential {self.potential!r}")

    def make_potential(self):
        from . import potentials
        if self.potential == "step":
            return potentials.step(self.v0, self.r0)
        if self.potential == "gaussian-bump":
            return potentials.gaussian_bump(self.v0, self.r0)
        if self.potential == "free":
            return potentials.free()
        return potentials.load_table(self.potential[len("table:"):])


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}

# config-file keys are spelled like the physics, not like the attributes
_KEY_TO_FIELD = {
    "N": "n_value",
    "N_min": "n_min",
    "N_max": "n_max",
    "N_step": "n_step",
}
_FIELD_TO_KEY = {v: k for k, v in _KEY_TO_FIELD.items()}


def _coerce(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"cannot parse value {raw!r} for key "
                          f"{_FIELD_TO_KEY.get(name, name)}") from None


def parse_config(text: str) -> RunConfig:
    """Parse a key=value document; unknown keys are rejected by name."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, raw = (part.strip() for part in body.split("=", 1))
        name = _KEY_TO_FIELD.get(key, key)
        if name not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        values[name] = _coerce(name, raw)
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# Execution-only knobs: they change where results are written, never the
# numbers, so they stay out of the fingerprint.
_NON_SEMANTIC_FIELDS = frozenset({"out_dir"})


def canonical_text(cfg: RunConfig) -> str:
    lines = []
    for f in sorted(fields(RunConfig), key=lambda f: f.name):
        if f.name in _NON_SEMANTIC_FIELDS:
            continue
        key = _FIELD_TO_KEY.get(f.name, f.name)
        val = getattr(cfg, f.name)
        if isinstance(val, float):
            val = f"{val:.17g}"
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def fingerprint(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode()).hexdigest()[:16]

"""Key-value run configuration with canonical serialization."""

from __future__ import annotations

import math

from .errors import ConfigError

# hashlib maps OpenSSL (about 3.5 MB of a CLI call's peak RSS) to hash a
# few hundred bytes; the interpreter's builtin SHA-256 gives the same
# digest, and random.py takes its SHA-512 the same way
try:
    from _sha2 import sha256            # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256      # Python 3.11
    except ImportError:
        from hashlib import sha256


class RunConfig:
    """Settings for a laboratory run, each field checked on its own;
    ``energy.Pipeline`` checks them against the physics.

    The trajectory range (n_min..n_max) drives scalar sweeps; Fock-space
    builds run at N from 3 up to fock_n_max with their own exponent
    fock_alpha, chosen so the microscopic disk still contains the
    potential at small N.

    The annotated class attributes below are the fields (``FIELD_TYPES``)
    and their defaults; ``RunConfig(**values)`` takes any of them by name.
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
    cutoff: float = 2 * math.pi * 16
    shell: int = 4
    ell_scale: float = 1.0
    c_lower: float = 0.1
    out_dir: str = "out"

    def __init__(self, **values):
        for name in values:
            if name not in FIELD_TYPES:
                raise TypeError(f"RunConfig has no field {name!r}")
        for name, kind in FIELD_TYPES.items():
            value = values.get(name, getattr(RunConfig, name))
            if kind == "float" and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite")
            setattr(self, name, value)
        if self.n_max < self.n_min or self.n_step < 1:
            raise ConfigError("invalid N range")
        if self.fock_n_max < 3:
            raise ConfigError("fock_n_max must be at least 3: the Fock "
                              "sweep starts at N = 3")
        if self.c_lower < 0:
            raise ConfigError("c_lower must be non-negative")

    def __eq__(self, other):
        if type(other) is not RunConfig:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        return "RunConfig(" + ", ".join(
            f"{name}={value!r}" for name, value in vars(self).items()) + ")"

    def make_potential(self):
        from . import potentials
        if self.potential == "step":
            return potentials.step(self.v0, self.r0)
        if self.potential == "gaussian-bump":
            return potentials.gaussian_bump(self.v0, self.r0)
        if self.potential == "free":
            return potentials.free()
        if self.potential.startswith("table:"):
            return potentials.load_table(self.potential[len("table:"):])
        raise ConfigError(f"unknown potential {self.potential!r}")


# each field's name and type ("str", "int" or "float"), in definition order
FIELD_TYPES = dict(RunConfig.__annotations__)

# config-file keys are spelled like the physics, not like the attributes
_KEY_TO_FIELD = {
    "N": "n_value",
    "N_min": "n_min",
    "N_max": "n_max",
    "N_step": "n_step",
}
_FIELD_TO_KEY = {v: k for k, v in _KEY_TO_FIELD.items()}


def _coerce(name: str, raw: str):
    try:
        return {"int": int, "float": float}.get(FIELD_TYPES[name], str)(raw)
    except ValueError:
        raise ConfigError(f"cannot parse value {raw!r} for key "
                          f"{_FIELD_TO_KEY.get(name, name)}") from None


def parse_config(text: str) -> RunConfig:
    """Parse a key=value document; unknown keys are rejected by name, and
    a key given twice, in either spelling, by both line numbers."""
    values, line_of = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, raw = (part.strip() for part in body.split("=", 1))
        name = _KEY_TO_FIELD.get(key, key)
        if name not in FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        if name in line_of:
            raise ConfigError(f"lines {line_of[name]} and {lineno} both "
                              f"set {_FIELD_TO_KEY.get(name, name)}")
        line_of[name] = lineno
        values[name] = _coerce(name, raw)
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


# Execution-only knobs: they change where results are written, never the
# numbers, so they stay out of the fingerprint.
_NON_SEMANTIC_FIELDS = frozenset({"out_dir"})


def canonical_text(cfg: RunConfig) -> str:
    lines = []
    for name in sorted(FIELD_TYPES):
        if name in _NON_SEMANTIC_FIELDS:
            continue
        key = _FIELD_TO_KEY.get(name, name)
        val = getattr(cfg, name)
        if isinstance(val, float):
            val = f"{val:.17g}"
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def fingerprint(cfg: RunConfig) -> str:
    return sha256(canonical_text(cfg).encode()).hexdigest()[:16]

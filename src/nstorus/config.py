"""Run configuration: flat key = value files, validation, and reproducible
initial-condition generation.

The format is deliberately flat and diff-friendly: one `key = value` per
line, '#' starts a comment, unknown keys are errors. Files are UTF-8, and
read_config and write_config are the only code that moves config text to or
from disk. Every run writes its resolved configuration next to its outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from .checkpoint import load_field, write_atomic
from .errors import ConfigError
from .fields import SpectralField, phi_norm, site_magnitudes
from .lattice import LatticeSpec, TruncationRule, get_lattice
from .params import SolverParams

__all__ = [
    "RunConfig",
    "IC_KINDS",
    "EMIT_KINDS",
    "parse_config",
    "serialize_config",
    "read_config",
    "write_config",
    "format_value",
    "config_from_mapping",
    "generate_ic",
]

IC_KINDS = ("random_phi_ball", "single_mode", "two_mode", "from_checkpoint")
EMIT_KINDS = ("norm_series", "certificates", "fields")


@dataclass(frozen=True)
class RunConfig(SolverParams):
    """The solver parameters (first, in SolverParams' order) and the run's
    lattice, initial condition and outputs. Text values may not carry '#',
    a line break, surrounding whitespace or a lone surrogate (how Python
    decodes argv bytes that are not UTF-8), which run_config.cfg could not
    write or read back."""

    # lattice
    k_max: int = 4
    truncation_rule: str = "euclidean_ball"
    # initial condition
    ic_kind: str = "random_phi_ball"
    ic_checkpoint: str = ""
    reality_symmetry: bool = False
    rng_seed: int = 0
    # run shape and outputs
    horizon_m: int = 10
    output_dir: str = "out"
    emit: frozenset = frozenset({"norm_series", "certificates"})
    oracle_horizon: int = 3
    oracle_tol: float = 1e-9

    def __post_init__(self):
        for f in dc_fields(self):
            value = getattr(self, f.name)
            if isinstance(value, str) and (value != value.strip() or any(
                    c in "#\n\r" or "\ud800" <= c <= "\udfff" for c in value)):
                raise ConfigError(f"{f.name} must be UTF-8 text without '#' or a line "
                                  f"break, and not begin or end with whitespace; got {value!r}")
        try:
            super().__post_init__()
            self.lattice_spec()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.ic_kind not in IC_KINDS:
            raise ConfigError(f"ic_kind must be one of {IC_KINDS}, got {self.ic_kind!r}")
        if self.ic_kind == "from_checkpoint" and not self.ic_checkpoint:
            raise ConfigError("ic_kind = from_checkpoint requires ic_checkpoint")
        if self.rng_seed < 0 or self.rng_seed >= 2 ** 64:
            raise ConfigError(f"rng_seed must be a 64-bit unsigned integer, got {self.rng_seed}")
        if self.horizon_m < 1:
            raise ConfigError(f"horizon_m must be >= 1, got {self.horizon_m}")
        if self.oracle_horizon < 0:
            raise ConfigError(f"oracle_horizon must be >= 0, got {self.oracle_horizon}")
        if not self.oracle_tol > 0:
            raise ConfigError(f"oracle_tol must be positive, got {self.oracle_tol}")
        bad = set(self.emit) - set(EMIT_KINDS)
        if bad:
            raise ConfigError(f"unknown emit kinds {sorted(bad)}; choose from {EMIT_KINDS}")
        object.__setattr__(self, "emit", frozenset(self.emit))

    def solver_params(self) -> SolverParams:
        return SolverParams(**{f.name: getattr(self, f.name) for f in dc_fields(SolverParams)})

    def lattice_spec(self) -> LatticeSpec:
        return LatticeSpec(self.k_max, TruncationRule(self.truncation_rule))


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_emit(text: str) -> frozenset:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    return frozenset(parts)


_PARSERS = {
    float: float,
    int: int,
    bool: _parse_bool,
    frozenset: _parse_emit,
}

_FIELD_TYPES = {f.name: type(f.default) for f in dc_fields(RunConfig)}


def config_from_mapping(mapping: dict) -> RunConfig:
    """Build a validated RunConfig from {key: parsed-or-raw-string value}."""
    kwargs = {}
    for key, value in mapping.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown configuration key {key!r}")
        ftype = _FIELD_TYPES[key]
        if isinstance(value, str) and ftype is not str:
            try:
                value = _PARSERS[ftype](value)
            except ConfigError:
                raise
            except ValueError:
                raise ConfigError(f"bad value for {key!r}: {value!r}") from None
        kwargs[key] = value
    return RunConfig(**kwargs)


def parse_config(text: str) -> RunConfig:
    """Parse flat `key = value` text; every key has a documented default,
    unknown keys are errors, and constraint violations name the violated
    inequality."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return config_from_mapping(mapping)


def format_value(value) -> str:
    """One config value or CSV cell as text that parses back to the same value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # numpy 2 reprs np.float64 as "np.float64(...)"
    if isinstance(value, frozenset):
        return ",".join(sorted(value))
    return str(value)


def serialize_config(config: RunConfig) -> str:
    """Emit the full configuration, one key per line, reparse-identical."""
    lines = [f"{f.name} = {format_value(getattr(config, f.name))}"
             for f in dc_fields(RunConfig)]
    return "\n".join(lines) + "\n"


def read_config(path) -> RunConfig:
    """Parse the UTF-8 config file at path; ConfigError names the file when
    its bytes are not UTF-8."""
    try:
        return parse_config(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def write_config(config: RunConfig, path) -> None:
    """Write the full configuration to path as UTF-8; read_config inverts it."""
    write_atomic(path, serialize_config(config).encode("utf-8"))


def _random_phi_ball(config: RunConfig) -> SpectralField:
    lat = get_lattice(config.lattice_spec())
    alpha = config.solver_params().alpha
    rng = np.random.default_rng(config.rng_seed)
    n = len(lat)
    raw = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    scales = rng.uniform(0.0, 1.0, n)
    kf = lat.sites_f
    q = lat.norm_sq_f
    # project each draw orthogonal to its site, then normalize so the
    # weighted amplitude |k|^alpha |v(k)| equals scale * delta per site
    raw = raw - ((kf * raw).sum(axis=1) / q)[:, None] * kf
    mags = site_magnitudes(raw)
    safe = mags > 0
    factors = np.zeros(n)
    factors[safe] = scales[safe] * config.delta / (mags[safe] * q[safe] ** (alpha / 2.0))
    data = raw * factors[:, None]
    if config.reality_symmetry:
        # keep the draw at the lexicographically smaller site of each pair;
        # site n-1-i is -(site i), so the larger ones are the upper half
        data[n // 2:] = np.conj(data[n // 2 - 1::-1])
    field = SpectralField(lat, data)
    # rounding guard: the bound |v0|_alpha <= delta must hold exactly
    phi = phi_norm(field, alpha)
    if phi > config.delta:
        field = field * ((config.delta / phi) * (1.0 - 1e-14))
    return field


def generate_ic(config: RunConfig) -> SpectralField:
    """Initial velocity with data-norm at most delta (exactly delta for the
    deterministic kinds).

    single_mode: site (1,0,0) with amplitude (0, delta, 0).
    two_mode:    site (1,0,0) with amplitude (0, 0, delta) and site (0,1,0)
                 with amplitude (delta, 0, 0); their interaction feeds mode
                 (1,1,0) so the nonlinearity is exercised.
    random_phi_ball: per-site isotropic complex draws, projected solenoidal,
                 scaled so the weighted amplitude is uniform in [0, delta].
    """
    lat = get_lattice(config.lattice_spec())
    delta = config.delta
    if config.ic_kind == "single_mode":
        return SpectralField.from_modes(lat, {(1, 0, 0): (0.0, delta, 0.0)})
    if config.ic_kind == "two_mode":
        return SpectralField.from_modes(
            lat, {(1, 0, 0): (0.0, 0.0, delta), (0, 1, 0): (delta, 0.0, 0.0)}
        )
    if config.ic_kind == "from_checkpoint":
        return load_field(config.ic_checkpoint, expected_spec=config.lattice_spec())
    return _random_phi_ball(config)

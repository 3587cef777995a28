"""Session configuration: defaults, file parsing and cross-field checks.

The config file is INI-style with one section per subsystem (see
DEFAULT_CONFIG_TEXT for the full schema).  Every key has a default, so an
empty file is valid.  Unknown sections or keys are rejected rather than
ignored, and validation failures carry the offending ``section.key`` path.

Provenance of defaults: ~2 dB excess interferometer loss and >20 dB
achievable extinction describe the modeled hardware (whose one-bin, 5 ns
interferometer delay is fixed in the optics model); detector efficiency
0.1, dark probability 1e-5 per gate, fiber attenuation 0.2 dB/km and mean
photon number 0.1 are typical-value assumptions.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from .channel import ChannelSpec
from .detection import ApdSpec, SourceSpec
from .eavesdrop import EveSpec
from .optics import AmzSpec, ideal_amz


class ConfigError(ValueError):
    """Invalid configuration; ``field_path`` locates the offender."""

    def __init__(self, message: str, field_path: str | None = None):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}" if field_path else message)


@dataclass(frozen=True)
class SessionConfig:
    """Everything a session needs; see module docstring for provenance."""

    source: SourceSpec = field(default_factory=SourceSpec)
    alice_amz: AmzSpec = field(default_factory=AmzSpec)
    bob_amz: AmzSpec = field(default_factory=AmzSpec)
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    apd_d0: ApdSpec = field(default_factory=ApdSpec)
    apd_d1: ApdSpec = field(default_factory=ApdSpec)
    eve: EveSpec = field(default_factory=EveSpec)
    n_pulses: int = 100_000
    seed: int = 1
    sample_fraction: float = 0.1
    conventional_mode: bool = False

    def validate(self) -> None:
        if self.n_pulses < 0:
            raise ConfigError("must be >= 0", "session.n_pulses")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("must be a 64-bit unsigned integer", "session.seed")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ConfigError("must lie in (0, 1]", "session.sample_fraction")
        if self.apd_d0.gates_per_pulse != self.apd_d1.gates_per_pulse:
            raise ConfigError(
                "both detectors must use the same gating scheme",
                "apd_d1.gates_per_pulse",
            )


def _to_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        value = float(text)
        if not value.is_integer():
            raise ValueError(f"{text!r} is not an integer")
        return int(value)


def _to_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"{text!r} is not a boolean")


_AMZ_KEYS: dict[str, Callable[[str], Any]] = {
    "excess_loss_db": float,
    "phase_offset_rad": float,
    "visibility": float,
    "phase_jitter_rad": float,
}

_APD_KEYS: dict[str, Callable[[str], Any]] = {
    "efficiency": float,
    "dark_per_gate": float,
    "gates_per_pulse": _to_int,
}

_SECTION_KEYS: dict[str, dict[str, Callable[[str], Any]]] = {
    "session": {
        "n_pulses": _to_int,
        "seed": _to_int,
        "sample_fraction": float,
        "conventional_mode": _to_bool,
    },
    "source": {"mu": float},
    "alice_amz": _AMZ_KEYS,
    "bob_amz": _AMZ_KEYS,
    "channel": {
        "length_km": float,
        "atten_db_per_km": float,
        "fixed_insertion_db": float,
    },
    "apd_d0": _APD_KEYS,
    "apd_d1": _APD_KEYS,
    "eve": {"enabled": _to_bool},
    "eve_amz": _AMZ_KEYS,
}


def _section_kwargs(
    parser: configparser.ConfigParser, section: str
) -> dict[str, Any]:
    if not parser.has_section(section):
        return {}
    schema = _SECTION_KEYS[section]
    kwargs: dict[str, Any] = {}
    for key, raw in parser.items(section):
        if key not in schema:
            raise ConfigError("unknown key", f"{section}.{key}")
        try:
            kwargs[key] = schema[key](raw)
        except ValueError as exc:
            raise ConfigError(str(exc), f"{section}.{key}") from exc
    return kwargs


def _build(section: str, factory: Callable[..., Any], kwargs: dict[str, Any]) -> Any:
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), section) from exc


def parse_config(path: str | Path | None) -> SessionConfig:
    """Load a config file; None or an empty file yields all defaults."""
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"parse error: {exc}") from exc
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError("unknown section", section)

    session_kwargs = _section_kwargs(parser, "session")
    eve_kwargs = _section_kwargs(parser, "eve")
    eve_amz_kwargs = _section_kwargs(parser, "eve_amz")
    if eve_amz_kwargs:
        base = dataclasses.asdict(ideal_amz()) | eve_amz_kwargs
        eve_kwargs["apparatus"] = _build("eve_amz", AmzSpec, base)

    config = SessionConfig(
        source=_build("source", SourceSpec, _section_kwargs(parser, "source")),
        alice_amz=_build("alice_amz", AmzSpec, _section_kwargs(parser, "alice_amz")),
        bob_amz=_build("bob_amz", AmzSpec, _section_kwargs(parser, "bob_amz")),
        channel=_build("channel", ChannelSpec, _section_kwargs(parser, "channel")),
        apd_d0=_build("apd_d0", ApdSpec, _section_kwargs(parser, "apd_d0")),
        apd_d1=_build("apd_d1", ApdSpec, _section_kwargs(parser, "apd_d1")),
        eve=_build("eve", EveSpec, eve_kwargs),
        **{k: v for k, v in session_kwargs.items()},
    )
    config.validate()
    return config


DEFAULT_CONFIG_TEXT = """\
# Session configuration; every key shown with its default value.
# Hardware-derived value: alice_amz/bob_amz excess_loss_db ~2 dB.
# Assumed typical values: apd efficiency/dark counts, channel attenuation,
# source mu.

[session]
n_pulses = 100000
seed = 1
sample_fraction = 0.1
conventional_mode = false

[source]
mu = 0.1

[alice_amz]
excess_loss_db = 2.0
phase_offset_rad = 0.0
visibility = 1.0
phase_jitter_rad = 0.0

[bob_amz]
excess_loss_db = 2.0
phase_offset_rad = 0.0
visibility = 1.0
phase_jitter_rad = 0.0

[channel]
length_km = 0.0
atten_db_per_km = 0.2
fixed_insertion_db = 0.0

[apd_d0]
efficiency = 0.1
dark_per_gate = 1e-5
gates_per_pulse = 3

[apd_d1]
efficiency = 0.1
dark_per_gate = 1e-5
gates_per_pulse = 3

[eve]
enabled = false

[eve_amz]
excess_loss_db = 0.0
phase_offset_rad = 0.0
visibility = 1.0
phase_jitter_rad = 0.0
"""

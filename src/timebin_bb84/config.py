"""Session configuration: defaults, file parsing and cross-field checks.

The config file is INI-style and the spec dataclasses are its schema: one
section per spec, named after its field in SessionConfig (but see
_SECTION_NAMES), whose keys are the spec's scalar fields, parsed by their
annotated type and defaulting to the field default, so an empty file is
valid.  DEFAULT_CONFIG_TEXT is generated from ``SessionConfig()``.  Unknown
sections or keys are rejected rather than ignored, and validation failures
carry the offending ``section.key`` path.

Provenance of defaults: ~2 dB excess interferometer loss and >20 dB
achievable extinction describe the modeled hardware (whose one-bin, 5 ns
interferometer delay is fixed in the optics model); detector efficiency
0.1, dark probability 1e-5 per gate, fiber attenuation 0.2 dB/km and mean
photon number 0.1 are typical-value assumptions.
"""

from __future__ import annotations

import configparser
import dataclasses
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .channel import ChannelSpec
from .detection import ApdSpec, SourceSpec
from .eavesdrop import EveSpec
from .optics import AmzSpec


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

    def __post_init__(self) -> None:
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


def integer(text: str) -> int:
    """An integer, also in scientific notation like 1e7."""
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


_PARSERS: dict[str, Callable[[str], Any]] = {"float": float, "int": integer, "bool": _to_bool}

# Sections are named after their field path in SessionConfig, except these.
_SECTION_NAMES = {"": "session", "eve.apparatus": "eve_amz"}


def _sections(spec: Any, path: str = "") -> Iterator[tuple]:
    """(section, field path, default spec, key parsers, nested (field,
    path) pairs) of ``spec`` and of every spec nested in it, parents first.
    A spec's keys are its scalar fields."""
    keys, nested = {}, []
    for f in dataclasses.fields(spec):
        if dataclasses.is_dataclass(getattr(spec, f.name)):
            nested.append((f.name, f"{path}.{f.name}" if path else f.name))
        else:
            keys[f.name] = _PARSERS[f.type]
    yield _SECTION_NAMES.get(path, path), path, spec, keys, nested
    for name, child in nested:
        yield from _sections(getattr(spec, name), child)


# section -> (field path, default spec, key parsers, nested specs)
_SECTIONS = {s[0]: s[1:] for s in _sections(SessionConfig())}


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
        if section not in _SECTIONS:
            raise ConfigError("unknown section", section)

    # Children before parents, so that each spec, SessionConfig last, is
    # built once from its own keys and its finished children.
    built: dict[str, Any] = {}
    for section, (field_path, spec, keys, nested) in reversed(_SECTIONS.items()):
        values = {name: built[child] for name, child in nested}
        for key, raw in parser.items(section) if parser.has_section(section) else ():
            if key not in keys:
                raise ConfigError("unknown key", f"{section}.{key}")
            try:
                values[key] = keys[key](raw)
            except ValueError as exc:
                raise ConfigError(str(exc), f"{section}.{key}") from exc
        try:
            built[field_path] = dataclasses.replace(spec, **values)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(str(exc), section) from exc
    return built[""]


DEFAULT_CONFIG_TEXT = """\
# Session configuration; every key shown with its default value.
# Hardware-derived value: alice_amz/bob_amz excess_loss_db ~2 dB.
# Assumed typical values: apd efficiency/dark counts, channel attenuation,
# source mu.
""" + "".join(
    f"\n[{section}]\n" + "".join(f"{key} = {str(getattr(spec, key)).lower()}\n" for key in keys)
    for section, (_, spec, keys, _) in _SECTIONS.items()
)

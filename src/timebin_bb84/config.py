"""Session configuration: defaults, file parsing and cross-field checks.

The config file is INI-style and the spec dataclasses are its schema: one
section per spec, named after its field in SessionConfig (but see
_SECTION_NAMES), whose keys are the spec's scalar fields, parsed by their
annotated type and defaulting to the field default, so an empty file is
valid.  DEFAULT_CONFIG_TEXT is generated from ``SessionConfig()``.  Unknown
sections or keys are rejected rather than ignored, and validation failures
carry the offending ``section.key`` path.  ``with_values`` sets values by
that path: the file's, the command-line flags' and the sweep axes', each
read from ``str(value)`` by its key's type; a float's reads back exactly.

Provenance of defaults: ~2 dB excess interferometer loss and >20 dB
achievable extinction describe the modeled hardware (whose one-bin, 5 ns
interferometer delay is fixed in the optics model); detector efficiency
0.1, dark probability 1e-5 per gate, fiber attenuation 0.2 dB/km and mean
photon number 0.1 are typical-value assumptions.
"""

from __future__ import annotations

import configparser
import dataclasses
import numbers
from collections import defaultdict
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Any

from .channel import ChannelSpec
from .detection import ApdSpec, SourceSpec
from .eavesdrop import EveSpec
from .optics import AmzSpec, PhaseSpec


class ConfigError(ValueError):
    """Invalid configuration; ``field_path`` locates the offender."""

    def __init__(self, message: str, field_path: str | None = None):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}" if field_path else message)


@dataclass(frozen=True)
class SessionConfig:
    """Everything a session needs; see module docstring for provenance.
    gates_per_pulse = 3 gates both detectors in every slot, 2 leaves S3 dark, 1 gates S2 only."""

    source: SourceSpec = field(default_factory=SourceSpec)
    alice_amz: PhaseSpec = field(default_factory=PhaseSpec)
    bob_amz: AmzSpec = field(default_factory=AmzSpec)
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    apd_d0: ApdSpec = field(default_factory=ApdSpec)
    apd_d1: ApdSpec = field(default_factory=ApdSpec)
    eve: EveSpec = field(default_factory=EveSpec)
    n_pulses: int = 100_000
    seed: int = 1
    sample_fraction: float = 0.1
    gates_per_pulse: int = 3

    def __post_init__(self) -> None:
        kinds = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number")}
        for f in dataclasses.fields(self):  # scalar fields; a nested spec is not checked here
            kind, name = kinds.get(f.type, (object, ""))
            if not isinstance(getattr(self, f.name), kind):
                raise ConfigError(f"must be {name}", f"session.{f.name}")
        if self.n_pulses < 0:
            raise ConfigError("must be >= 0", "session.n_pulses")
        if self.n_pulses >= 2**63:
            raise ConfigError("must be below 2**63 (pulse indices are int64)", "session.n_pulses")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("must be a 64-bit unsigned integer", "session.seed")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ConfigError("must lie in (0, 1]", "session.sample_fraction")
        if self.gates_per_pulse not in (1, 2, 3):
            raise ConfigError("must be 1, 2 or 3", "session.gates_per_pulse")

    @property
    def conventional_mode(self) -> bool:
        """Read by the benchmark's oracle only; no config key sets it."""
        return self.gates_per_pulse == 2


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
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"{text!r} is not a boolean") from None


_PARSERS: dict[str, Callable[[str], Any]] = {"float": float, "int": integer, "bool": _to_bool}

# Sections are named after their field path in SessionConfig, except these.
_SECTION_NAMES = {"": "session", "eve.apparatus": "eve_amz"}


def _sections(spec: Any, path: str = "") -> Iterator[tuple]:
    """(section, field path, default spec, key parsers) of ``spec`` and of
    every spec nested in it, parents first.  A spec's keys are its scalar
    fields."""
    fields = dataclasses.fields(spec)
    nested = [f.name for f in fields if dataclasses.is_dataclass(getattr(spec, f.name))]
    keys = {f.name: _PARSERS[f.type] for f in fields if f.name not in nested}
    yield _SECTION_NAMES.get(path, path), path, spec, keys
    for name in nested:
        yield from _sections(getattr(spec, name), f"{path}.{name}" if path else name)


_DEFAULTS = SessionConfig()
# section -> (field path, default spec, key parsers)
_SECTIONS = {s[0]: s[1:] for s in _sections(_DEFAULTS)}
# section.key -> (field path, field, parser)
_KEYS = {f"{section}.{key}": (field_path, key, parser)
         for section, (field_path, _, keys) in _SECTIONS.items() for key, parser in keys.items()}
# Sections deepest first, siblings in file order: a spec after those nested in it.
_CHILDREN_FIRST = sorted(_SECTIONS.items(), key=lambda s: -len(s[1][0].split(".")) if s[1][0] else 0)


def with_values(config: SessionConfig, values: Mapping[str, Any]) -> SessionConfig:
    """``config`` with each ``section.key`` of ``values`` set, read as a
    config file is: unknown sections and keys are refused, and each value is
    read from ``str(value)`` by its key's type.  Each spec with new values is
    rebuilt once, after those nested in it; a failed check names its section."""
    changed: dict[str, dict[str, Any]] = defaultdict(dict)  # field path -> new field values
    for name, value in values.items():
        entry = _KEYS.get(name)
        if entry is None:
            section = name.partition(".")[0]
            if section not in _SECTIONS:
                raise ConfigError("unknown section", section)
            raise ConfigError("unknown key", name)
        field_path, key, key_parser = entry
        try:
            changed[field_path][key] = key_parser(str(value))
        except ValueError as exc:
            raise ConfigError(str(exc), name) from exc
    for section, (field_path, _, _) in _CHILDREN_FIRST:
        if field_path not in changed:
            continue
        spec = attrgetter(field_path)(config) if field_path else config
        try:
            spec = dataclasses.replace(spec, **changed[field_path])
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(str(exc), section) from exc
        if not field_path:
            return spec
        parent, _, name = field_path.rpartition(".")
        changed[parent][name] = spec
    return config


def parse_config(path: str | Path | None) -> SessionConfig:
    """Load a config file; None or an empty file yields all defaults."""
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"parse error: {exc}") from exc
    if parser.defaults():  # configparser would copy these keys into every section
        raise ConfigError("unknown section", "DEFAULT")
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError("unknown section", section)
    values = {f"{s}.{key}": raw for s in parser.sections() for key, raw in parser.items(s)}
    return with_values(_DEFAULTS, values)


DEFAULT_CONFIG_TEXT = """\
# Session configuration; every key shown with its default value.
# Hardware-derived value: bob_amz excess_loss_db ~2 dB.
# Assumed typical values: apd efficiency/dark counts, channel attenuation,
# source mu.
""" + "".join(
    f"\n[{section}]\n" + "".join(f"{key} = {str(getattr(spec, key)).lower()}\n" for key in keys)
    for section, (_, spec, keys) in _SECTIONS.items()
)

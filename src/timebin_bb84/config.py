"""Session configuration: defaults and file parsing.

The config file is INI-style and the spec dataclasses are its schema: one
section per spec, named after its field in SessionConfig (but see
_SECTION_NAMES), whose keys are the spec's scalar fields, read by their
kind (``fields.KINDS``) and defaulting to the field default, so an empty
file is valid.  DEFAULT_CONFIG_TEXT is generated from ``SessionConfig()``.
Unknown sections or keys are rejected, and a value that a spec's one check
(``fields.check_fields``) refuses is named by its ``section.key`` path.
``with_values`` sets values by that path: the file's, the command-line
flags' and the sweep axes', each read from ``str(value)`` by its key's
kind; a float's reads back exactly.

Provenance of defaults: ~2 dB excess interferometer loss and >20 dB
achievable extinction describe the modeled hardware (whose one-bin, 5 ns
interferometer delay is fixed in the optics model); detector efficiency
0.1, dark probability 1e-5 per gate, fiber attenuation 0.2 dB/km and mean
photon number 0.1 are typical-value assumptions.
"""

from __future__ import annotations

import configparser
import dataclasses
from collections import defaultdict
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Any

from .channel import ChannelSpec
from .detection import ApdSpec, SourceSpec
from .eavesdrop import EveSpec
from .fields import KINDS, ConfigError, check_fields, within
from .optics import AmzSpec, PhaseSpec


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
    n_pulses: int = within(100_000, 0, 2**63, "[)")  # pulse indices are int64
    seed: int = within(1, 0, 2**64, "[)")
    sample_fraction: float = within(0.1, 0.0, 1.0, "(]")
    gates_per_pulse: int = within(3, 1, 3)
    __post_init__ = check_fields

    @property
    def conventional_mode(self) -> bool:
        """Read by the benchmark's oracle only; no config key sets it."""
        return self.gates_per_pulse == 2


# Sections are named after their field path in SessionConfig, except these.
_SECTION_NAMES = {"": "session", "eve.apparatus": "eve_amz"}


def _sections(spec: Any, path: str = "") -> Iterator[tuple]:
    """(section, field path, default spec, key kinds) of ``spec`` and of
    every spec nested in it, parents first.  A spec's keys are its fields
    with a kind; its other fields are nested specs."""
    keys = {f.name: KINDS[f.type] for f in dataclasses.fields(spec) if f.type in KINDS}
    nested = [f.name for f in dataclasses.fields(spec) if f.name not in keys]
    yield _SECTION_NAMES.get(path, path), path, spec, keys
    for name in nested:
        yield from _sections(getattr(spec, name), f"{path}.{name}" if path else name)


_DEFAULTS = SessionConfig()
# section -> (field path, default spec, key kinds)
_SECTIONS = {s[0]: s[1:] for s in _sections(_DEFAULTS)}
# section.key -> (field path, field, kind)
_KEYS = {f"{section}.{key}": (field_path, key, kind)
         for section, (field_path, _, keys) in _SECTIONS.items() for key, kind in keys.items()}
# Sections deepest first, siblings in file order: a spec after those nested in it.
_CHILDREN_FIRST = sorted(_SECTIONS.items(), key=lambda s: -len(s[1][0].split(".")) if s[1][0] else 0)


def with_values(config: SessionConfig, values: Mapping[str, Any]) -> SessionConfig:
    """``config`` with each ``section.key`` of ``values`` set, read as a
    config file is: unknown sections and keys are refused, and each value is
    read from ``str(value)`` by its key's kind.  Each spec with new values is
    rebuilt once, after those nested in it.  Every refusal names its
    ``section.key``, as in ``source.mu: must lie in [0, inf)``."""
    changed: dict[str, dict[str, Any]] = defaultdict(dict)  # field path -> new field values
    for name, value in values.items():
        entry = _KEYS.get(name)
        if entry is None:
            section = name.partition(".")[0]
            if section not in _SECTIONS:
                raise ConfigError("unknown section", section)
            raise ConfigError("unknown key", name)
        field_path, key, (_, kind, read) = entry
        try:
            changed[field_path][key] = read(str(value))
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"must be {kind}", name) from exc
    for section, (field_path, _, _) in _CHILDREN_FIRST:
        if field_path not in changed:
            continue
        spec = attrgetter(field_path)(config) if field_path else config
        try:
            spec = dataclasses.replace(spec, **changed[field_path])
        except ConfigError as exc:  # check_fields names the field
            raise ConfigError(exc.message, f"{section}.{exc.field_path}") from exc
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

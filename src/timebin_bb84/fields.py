"""One rule for every scalar spec field.  Its kind is its annotation, a key
of ``KINDS``: an int field holds an integer, a float field an integer or a
float, numpy scalars included, and a bool field a bool, which is no number.
Its interval is declared with its default, ``mu: float = within(0.1, 0.0)``
for [0, inf); an infinite end is open, so NaN and +-inf are refused.  Each
spec's ``__post_init__`` is ``check_fields``, which names a refused field."""

from __future__ import annotations

import dataclasses
import functools
import math
from configparser import ConfigParser
from typing import Any

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration; ``field_path`` locates the offender."""

    def __init__(self, message: str, field_path: str | None = None):
        self.message, self.field_path = message, field_path
        super().__init__(f"{field_path}: {message}" if field_path else message)


def integer(text: str) -> int:
    """An integer, also in scientific notation like 1e7."""
    try:
        return int(text)
    except ValueError:
        if not float(text).is_integer():
            raise
        return int(float(text))


# Annotation -> (the types of its values, what a refusal calls them, the reader
# of a config file's text, which raises ValueError or KeyError on bad text).
KINDS = {
    "int": ((int, np.integer), "an integer", integer),
    "float": ((int, float, np.integer, np.floating), "a number", float),
    "bool": ((bool, np.bool_), "a boolean", lambda text: ConfigParser.BOOLEAN_STATES[text.strip().lower()]),
}


def within(default: Any = dataclasses.MISSING, low=-math.inf, high=math.inf, ends: str = "[]") -> Any:
    """A field with ``default`` from ``low`` to ``high``; ``ends`` marks each end
    closed or open, and an infinite end is open."""
    closed = [end for end, mark in zip((low, high), ends) if mark in "[]" and math.isfinite(end)]
    low_text, high_text = (f"{end:g}" if isinstance(end, float) else str(end) for end in (low, high))
    text = f"{'(['[low in closed]}{low_text}, {high_text}{')]'[high in closed]}"
    return dataclasses.field(default=default, metadata={"interval": (low, high, closed, text)})


@functools.cache
def _rules(cls: type) -> list[tuple]:
    """(name, types, kind, low, high, closed ends, interval text) per field of ``cls`` with a kind."""
    unbounded = within().metadata["interval"]
    return [(f.name, *KINDS[f.type][:2], *f.metadata.get("interval", unbounded))
            for f in dataclasses.fields(cls) if f.type in KINDS]


def check_fields(spec: Any) -> None:
    """Refuse a field of ``spec`` that is not of its kind or lies outside its interval."""
    for name, types, kind, low, high, closed, interval in _rules(type(spec)):
        value = getattr(spec, name)
        if not isinstance(value, types) or isinstance(value, bool) and bool not in types:
            raise ConfigError(f"must be {kind}", name)
        if not (low < value < high or value in closed):
            raise ConfigError(f"must lie in {interval}", name)

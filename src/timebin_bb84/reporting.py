"""CSV emission/ingestion and plain-text rendering of results.

Every CSV written here has a fixed, documented column order and round-trips
through the readers in this module:

    profile.csv   state,slot,port,probability
    summary.csv   the SessionSummary fields in declaration order, one data row
    sweep.csv     <axis>,registered_rate,sifted_rate,qber
"""

from __future__ import annotations

import csv
import dataclasses
from pathlib import Path

from .fields import KINDS
from .session import ProfileRow, SessionSummary

PROFILE_COLUMNS = ("state", "slot", "port", "probability")
SWEEP_VALUE_COLUMNS = ("registered_rate", "sifted_rate", "qber")

_EIGHTHS = " ▏▎▍▌▋▊▉"
_FULL = "█"


def bar(probability: float, width: int = 48) -> str:
    """Proportional bar: ``width`` characters represent probability 1."""
    cells = max(0.0, probability) * width
    full, frac = divmod(cells, 1.0)
    eighth = int(round(frac * 8))
    if eighth == 8:
        full, eighth = full + 1, 0
    return _FULL * int(full) + (_EIGHTHS[eighth] if eighth else "")


def _write_csv(path: str | Path, header, rows) -> None:
    """``header``, then ``rows``, each float as its ``repr``, which reads back exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)


def _read_csv(path: str | Path, what: str, fits) -> tuple[tuple[str, ...], list[dict[str, str]]]:
    """(header, rows as dicts); a header that ``fits`` refuses names the ``what`` columns."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        names = tuple(reader.fieldnames or ())
        if not fits(names):
            raise ValueError(f"unexpected {what} columns: {reader.fieldnames}")
        return names, list(reader)


def write_profile_csv(path: str | Path, rows: list[ProfileRow]) -> None:
    _write_csv(path, PROFILE_COLUMNS, map(dataclasses.astuple, rows))


def read_profile_csv(path: str | Path) -> list[ProfileRow]:
    _, rows = _read_csv(path, "profile", lambda names: names == PROFILE_COLUMNS)
    return [ProfileRow(r["state"], r["slot"], r["port"], float(r["probability"])) for r in rows]


def format_profile_text(rows: list[ProfileRow]) -> str:
    lines = []
    current = None
    for row in rows:
        if row.state != current:
            current = row.state
            lines.append(f"state {current}")
        lines.append(
            f"  {row.slot:>4} {row.port:<4} {row.probability:8.6f} {bar(row.probability)}"
        )
    return "\n".join(lines)


def write_summary_csv(path: str | Path, summary: SessionSummary) -> None:
    _write_csv(path, [f.name for f in dataclasses.fields(summary)], [dataclasses.astuple(summary)])


def read_summary_csv(path: str | Path) -> SessionSummary:
    parsers = {f.name: KINDS[f.type][2] for f in dataclasses.fields(SessionSummary)}
    _, rows = _read_csv(path, "summary", lambda names: names == tuple(parsers))
    return SessionSummary(**{name: parse(rows[0][name]) for name, parse in parsers.items()})


def format_summary_text(summary: SessionSummary) -> str:
    return "\n".join(
        [
            f"pulses sent            {summary.pulses_sent}",
            f"events registered      {summary.events_registered}",
            f"conclusive (sifted)    {summary.conclusive_count} "
            f"(Z {summary.conclusive_z} / X {summary.conclusive_x})",
            f"final key length       {summary.sifted_length}",
            f"sifted rate per pulse  {summary.sifted_rate_per_pulse:.6g}",
            f"QBER (sampled)         {summary.qber:.6g}",
            f"QBER (diagnostic)      {summary.true_qber:.6g} "
            f"(Z {summary.true_qber_z:.6g} / X {summary.true_qber_x:.6g})",
            f"dark fraction estimate {summary.dark_fraction_estimate:.6g}",
        ]
    )


def _sweep_rows(results: list[tuple[float, SessionSummary]]) -> list[tuple[float, ...]]:
    """(axis value, registered_rate, sifted_rate, qber) per sweep point."""
    return [
        (value, s.events_registered / s.pulses_sent, s.sifted_rate_per_pulse, s.qber)
        for value, s in results
    ]


def write_sweep_csv(
    path: str | Path, axis: str, results: list[tuple[float, SessionSummary]]
) -> None:
    _write_csv(path, (axis,) + SWEEP_VALUE_COLUMNS, _sweep_rows(results))


def read_sweep_csv(path: str | Path) -> tuple[str, list[dict[str, float]]]:
    """Returns (axis name, rows); each row maps column name to value."""
    names, rows = _read_csv(path, "sweep", lambda names: names[1:] == SWEEP_VALUE_COLUMNS)
    return names[0], [{k: float(v) for k, v in r.items()} for r in rows]


def format_sweep_text(axis: str, results: list[tuple[float, SessionSummary]]) -> str:
    lines = [f"{axis:>12} {'registered':>12} {'sifted':>12} {'qber':>10}"]
    for value, registered, sifted, qber in _sweep_rows(results):
        lines.append(f"{value:>12.6g} {registered:>12.6g} {sifted:>12.6g} {qber:>10.6g}")
    return "\n".join(lines)

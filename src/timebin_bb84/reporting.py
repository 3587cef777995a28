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


def write_profile_csv(path: str | Path, rows: list[ProfileRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PROFILE_COLUMNS)
        for row in rows:
            writer.writerow([row.state, row.slot, row.port, repr(row.probability)])


def read_profile_csv(path: str | Path) -> list[ProfileRow]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != PROFILE_COLUMNS:
            raise ValueError(f"unexpected profile columns: {reader.fieldnames}")
        return [
            ProfileRow(r["state"], r["slot"], r["port"], float(r["probability"]))
            for r in reader
        ]


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
    values = dataclasses.asdict(summary)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(values)
        writer.writerow([repr(v) for v in values.values()])


def read_summary_csv(path: str | Path) -> SessionSummary:
    fields = dataclasses.fields(SessionSummary)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != tuple(f.name for f in fields):
            raise ValueError(f"unexpected summary columns: {reader.fieldnames}")
        row = next(iter(reader))
    return SessionSummary(
        **{f.name: (int if f.type == "int" else float)(row[f.name]) for f in fields}
    )


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow((axis,) + SWEEP_VALUE_COLUMNS)
        writer.writerows([repr(x) for x in row] for row in _sweep_rows(results))


def read_sweep_csv(path: str | Path) -> tuple[str, list[dict[str, float]]]:
    """Returns (axis name, rows); each row maps column name to value."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        names = tuple(reader.fieldnames or ())
        if len(names) != 4 or names[1:] != SWEEP_VALUE_COLUMNS:
            raise ValueError(f"unexpected sweep columns: {names}")
        rows = [{k: float(v) for k, v in r.items()} for r in reader]
    return names[0], rows


def format_sweep_text(axis: str, results: list[tuple[float, SessionSummary]]) -> str:
    lines = [f"{axis:>12} {'registered':>12} {'sifted':>12} {'qber':>10}"]
    for value, registered, sifted, qber in _sweep_rows(results):
        lines.append(f"{value:>12.6g} {registered:>12.6g} {sifted:>12.6g} {qber:>10.6g}")
    return "\n".join(lines)

"""Command-line interface: exact profiles, single sessions, parameter sweeps.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime or
protocol abort.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

from .config import ConfigError, SessionConfig, parse_config, with_values
from .fields import integer
from .protocol import ProtocolError
from .reporting import (
    format_profile_text,
    format_summary_text,
    format_sweep_text,
    write_profile_csv,
    write_summary_csv,
    write_sweep_csv,
)
from .session import SWEEP_AXES, profile_rows, run_session, sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="timebin-bb84", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    p_profile = subs.add_parser("profile", help="per-state slot/port intensity profiles")
    p_run = subs.add_parser("run", help="simulate one key-distribution session")
    p_sweep = subs.add_parser("sweep", help="one session per value along a parameter axis")
    # A flag that sets a config value stores it under its section.key path, or None if
    # absent, with no argparse type: with_values reads it as it reads the file's text.
    for sub in (p_profile, p_run, p_sweep):
        sub._negative_number_matcher = re.compile(r"^-\.?\d")  # -1e-3 or -0.2,0.1 is a value, not a flag
        sub.add_argument("--config", metavar="PATH", help="INI config file (defaults if omitted)")
        sub.add_argument("--seed", dest="session.seed", metavar="N", help="override session.seed")
        sub.add_argument("--out", metavar="DIR", type=Path, default="out", help="output directory")
    # Flags that change the simulated session; the exact profile runs none.
    for sub in (p_run, p_sweep):
        sub.add_argument("--pulses", dest="session.n_pulses", metavar="N", help="override session.n_pulses")
        sub.add_argument(
            "--eve", dest="eve.enabled", action="store_true", default=None,
            help="enable the intercept-resend attacker",
        )
        sub.add_argument(
            "--conventional-mode", dest="session.gates_per_pulse", action="store_const", const=2,
            help="leave the late slot ungated (single-edge-slot baseline; gates_per_pulse = 2)",
        )

    p_profile.add_argument(
        "--sampled", type=integer, default=0, metavar="N",
        help="estimate receiver rows from N Monte Carlo pulses instead of exactly",
    )
    p_sweep.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p_sweep.add_argument(
        "--values", required=True, metavar="V1,V2,...", help="comma-separated axis values"
    )
    return parser


def _load_config(args: argparse.Namespace):
    flags = {path: value for path, value in vars(args).items() if "." in path and value is not None}
    return with_values(parse_config(args.config), flags)


def _profile(args: argparse.Namespace, config: SessionConfig) -> tuple[str, dict]:
    rows = profile_rows(config, sampled_pulses=args.sampled)
    return format_profile_text(rows), {"profile.csv": functools.partial(write_profile_csv, rows=rows)}


def _run(args: argparse.Namespace, config: SessionConfig) -> tuple[str, dict]:
    result = run_session(config)
    text = format_summary_text(result.summary)
    return text, {
        "summary.csv": functools.partial(write_summary_csv, summary=result.summary),
        "summary.txt": text + "\n",
        "alice.key": result.alice_key.to_hex() + "\n",
        "bob.key": result.bob_key.to_hex() + "\n",
    }


def _sweep(args: argparse.Namespace, config: SessionConfig) -> tuple[str, dict]:
    results = sweep(config, args.axis, [v for v in args.values.split(",") if v.strip()])
    csv = functools.partial(write_sweep_csv, axis=args.axis, results=results)
    return format_sweep_text(args.axis, results), {"sweep.csv": csv}


# Each command computes (printed text, {file name: text or a writer of the file's path}).
_COMMANDS = {"profile": _profile, "run": _run, "sweep": _sweep}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text, outputs = _COMMANDS[args.command](args, _load_config(args))
        args.out.mkdir(parents=True, exist_ok=True)
        for name, output in outputs.items():
            if callable(output):
                output(args.out / name)
            else:
                (args.out / name).write_text(output)
    except (ValueError, OSError) as exc:  # OSError: --out names no writable directory
        print(f"{'config error' if isinstance(exc, ConfigError) else 'error'}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ProtocolError as exc:
        print(f"session abort: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(text)
    print(f"\nwrote {', '.join(outputs)} to {args.out}/")
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

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

from .config import ConfigError, integer, parse_config, with_values
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
    # A flag that sets a config value stores it under its section.key path, or None if absent.
    for sub in (p_profile, p_run, p_sweep):
        sub._negative_number_matcher = re.compile(r"^-\.?\d")  # -1e-3 or -0.2,0.1 is a value, not a flag
        sub.add_argument("--config", metavar="PATH", help="INI config file (defaults if omitted)")
        sub.add_argument(
            "--seed", dest="session.seed", type=integer, metavar="N", help="override session.seed"
        )
        sub.add_argument("--out", metavar="DIR", default="out", help="output directory")
    # Flags that change the simulated session; the exact profile runs none.
    for sub in (p_run, p_sweep):
        sub.add_argument(
            "--pulses", dest="session.n_pulses", type=integer, metavar="N",
            help="override session.n_pulses",
        )
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


def _cmd_profile(args: argparse.Namespace) -> int:
    config = _load_config(args)
    rows = profile_rows(config, sampled_pulses=args.sampled)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_profile_csv(out / "profile.csv", rows)
    print(format_profile_text(rows))
    print(f"\nwrote {out / 'profile.csv'}")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    result = run_session(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_summary_csv(out / "summary.csv", result.summary)
    text = format_summary_text(result.summary)
    (out / "summary.txt").write_text(text + "\n")
    (out / "alice.key").write_text(result.alice_key.to_hex() + "\n")
    (out / "bob.key").write_text(result.bob_key.to_hex() + "\n")
    print(text)
    print(f"\nwrote summary.csv, summary.txt, alice.key, bob.key to {out}/")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --values: {exc}") from exc
    results = sweep(config, args.axis, values)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(out / "sweep.csv", args.axis, results)
    print(format_sweep_text(args.axis, results))
    print(f"\nwrote {out / 'sweep.csv'}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_sweep(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ProtocolError as exc:
        print(f"session abort: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

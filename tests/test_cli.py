"""CLI subcommands, exit codes, file outputs and CSV round-trips."""

import argparse
import math

import pytest

from timebin_bb84 import cli, session
from timebin_bb84.cli import main
from timebin_bb84.reporting import (
    bar,
    read_profile_csv,
    read_summary_csv,
    read_sweep_csv,
)

IDEAL_INI = """
[bob_amz]
excess_loss_db = 0

[apd_d0]
dark_per_gate = 0

[apd_d1]
dark_per_gate = 0
"""


@pytest.fixture
def ideal_cfg(tmp_path):
    path = tmp_path / "ideal.ini"
    path.write_text(IDEAL_INI)
    return path


class TestProfileCommand:
    def test_profile_writes_expected_table(self, tmp_path, ideal_cfg, capsys):
        out = tmp_path / "out"
        code = main(["profile", "--config", str(ideal_cfg), "--out", str(out)])
        assert code == 0
        rows = read_profile_csv(out / "profile.csv")
        assert len(rows) == 32
        by_key = {(r.state, r.slot, r.port): r.probability for r in rows}
        assert by_key[("X0", "S2", "D1")] == pytest.approx(0.5, abs=1e-12)
        assert by_key[("Z1", "S3", "D1")] == pytest.approx(0.25, abs=1e-12)
        text = capsys.readouterr().out
        assert "state Z0" in text and "S2" in text
        assert text.endswith(f"\nwrote profile.csv to {out}/\n")

    def test_profile_csv_round_trip_exact(self, tmp_path, ideal_cfg):
        from timebin_bb84.config import parse_config
        from timebin_bb84.session import profile_rows

        out = tmp_path / "out"
        assert main(["profile", "--config", str(ideal_cfg), "--out", str(out)]) == 0
        written = profile_rows(parse_config(ideal_cfg))
        assert read_profile_csv(out / "profile.csv") == written

    def test_sampled_profile(self, tmp_path, ideal_cfg):
        """The sampled Z0 S1 D0 weight lies within Z = 5 sigma of 0.25.  It
        is -log(1 - f) / (eta mu) for the cell's click frequency f over N
        pulses, whose click probability is q = 1 - exp(-eta mu 0.25); by
        the delta method sigma = sqrt(q (1 - q) / N) / (eta mu (1 - q))."""
        n, eta_mu = 2_000_000, 0.1 * 0.1
        out = tmp_path / "out"
        code = main(
            ["profile", "--config", str(ideal_cfg), "--out", str(out), "--sampled", str(n)]
        )
        assert code == 0
        by_key = {
            (r.state, r.slot, r.port): r.probability
            for r in read_profile_csv(out / "profile.csv")
        }
        q = 1.0 - math.exp(-eta_mu * 0.25)
        sigma = math.sqrt(q * (1.0 - q) / n) / (eta_mu * (1.0 - q))
        assert abs(by_key[("Z0", "S1", "D0")] - 0.25) < 5.0 * sigma  # about 0.0177

    @pytest.mark.parametrize(
        "flag", [["--eve"], ["--conventional-mode"], ["--pulses", "5"]],
        ids=["eve", "conventional_mode", "pulses"],
    )
    def test_session_flags_exit_1(self, tmp_path, flag):
        """The profile is exact per state, so flags that change the
        simulated session are refused rather than ignored."""
        out = tmp_path / "out"
        assert main(["profile", *flag, "--out", str(out)]) == 1
        assert not (out / "profile.csv").exists()

    def test_negative_sampled_count_exits_1(self, tmp_path, capsys):
        code = main(["profile", "--sampled", "-5", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "sampled_pulses" in capsys.readouterr().err
        assert not (tmp_path / "out" / "profile.csv").exists()


class TestRunCommand:
    def test_run_outputs(self, tmp_path, ideal_cfg, capsys):
        out = tmp_path / "out"
        code = main(
            ["run", "--config", str(ideal_cfg), "--pulses", "200000", "--seed", "4",
             "--out", str(out)]
        )
        assert code == 0
        summary = read_summary_csv(out / "summary.csv")
        assert summary.pulses_sent == 200_000
        assert summary.qber == 0.0
        alice_hex = (out / "alice.key").read_text().strip()
        bob_hex = (out / "bob.key").read_text().strip()
        assert alice_hex == bob_hex and len(alice_hex) > 0
        assert (out / "summary.txt").exists()
        text = capsys.readouterr().out
        assert "QBER" in text
        assert text.endswith(f"\nwrote summary.csv, summary.txt, alice.key, bob.key to {out}/\n")

    def test_run_deterministic_bytes(self, tmp_path, ideal_cfg):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert (
                main(
                    ["run", "--config", str(ideal_cfg), "--pulses", "100000",
                     "--seed", "11", "--out", str(out)]
                )
                == 0
            )
        for name in ("summary.csv", "alice.key", "bob.key"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_eve_flag_raises_qber(self, tmp_path, ideal_cfg):
        out = tmp_path / "out"
        code = main(
            ["run", "--config", str(ideal_cfg), "--pulses", "2000000", "--seed", "2",
             "--eve", "--out", str(out), ]
        )
        assert code == 0
        summary = read_summary_csv(out / "summary.csv")
        assert abs(summary.qber - 0.25) < 0.02

    def test_conventional_mode_flag(self, tmp_path, ideal_cfg):
        outs = {}
        for flag, name in ((False, "full"), (True, "conv")):
            out = tmp_path / name
            argv = ["run", "--config", str(ideal_cfg), "--pulses", "1000000",
                    "--seed", "8", "--out", str(out)]
            if flag:
                argv.append("--conventional-mode")
            assert main(argv) == 0
            outs[name] = read_summary_csv(out / "summary.csv")
        ratio = outs["full"].conclusive_z / outs["conv"].conclusive_z
        assert abs(ratio - 2.0) < 0.15

    def test_conventional_mode_flag_is_two_gates(self, tmp_path, ideal_cfg):
        """--conventional-mode writes the bytes of gates_per_pulse = 2 set in the file."""
        two_gates = tmp_path / "two.ini"
        two_gates.write_text(ideal_cfg.read_text() + "[session]\ngates_per_pulse = 2\n")
        runs = {"flag": (str(ideal_cfg), ["--conventional-mode"]), "file": (str(two_gates), [])}
        for name, (path, flag) in runs.items():
            argv = ["run", "--config", path, *flag, "--pulses", "200000", "--seed", "8",
                    "--out", str(tmp_path / name)]
            assert main(argv) == 0
        for name in ("summary.csv", "alice.key", "bob.key"):
            assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()

    def test_insufficient_key_exits_2(self, tmp_path, ideal_cfg, capsys):
        out = tmp_path / "out"
        code = main(
            ["run", "--config", str(ideal_cfg), "--pulses", "10", "--out", str(out)]
        )
        assert code == 2
        assert "abort" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_csv_round_trip(self, tmp_path, ideal_cfg):
        out = tmp_path / "out"
        code = main(
            ["sweep", "--config", str(ideal_cfg), "--pulses", "400000", "--seed", "5",
             "--axis", "length_km", "--values", "0,25,50", "--out", str(out)]
        )
        assert code == 0
        axis, rows = read_sweep_csv(out / "sweep.csv")
        assert axis == "length_km"
        assert [r["length_km"] for r in rows] == [0.0, 25.0, 50.0]
        sifted = [r["sifted_rate"] for r in rows]
        assert sifted[0] > sifted[1] > sifted[2]

    def test_single_value_matches_run_schema(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["sweep", "--pulses", "100000", "--axis", "mu", "--values", "0.1",
             "--out", str(out)]
        )
        assert code == 0
        axis, rows = read_sweep_csv(out / "sweep.csv")
        assert axis == "mu" and len(rows) == 1
        assert set(rows[0]) == {"mu", "registered_rate", "sifted_rate", "qber"}

    def test_bad_values_exit_1(self, tmp_path, capsys):
        code = main(["sweep", "--axis", "mu", "--values", "0.1,grape", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "config error: source.mu: must be a number\n"

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize(
        "axis, bad, section", [("mu", "-1", "source"), ("dark", "1.5", "apd_d0")]
    )
    def test_bad_value_anywhere_runs_no_session(
        self, tmp_path, capsys, monkeypatch, position, axis, bad, section
    ):
        calls = []
        monkeypatch.setattr(session, "run_session", calls.append)
        values = ["1e-4", "2e-4", "3e-4"]
        values[position] = bad
        out = tmp_path / "out"
        code = main(["sweep", "--axis", axis, f"--values={','.join(values)}", "--out", str(out)])
        assert code == 1
        assert calls == []
        assert not (out / "sweep.csv").exists()
        key = session.SWEEP_AXES[axis][0].partition(".")[2]
        assert f"config error: {section}.{key}: must lie in " in capsys.readouterr().err

    @pytest.mark.parametrize("values", ["-0.2,0.1", "-1e-3"])
    def test_negative_values_token_reaches_the_config_check(self, tmp_path, capsys, monkeypatch, values):
        # A value after a space that starts with "-" is the value, not an unknown flag.
        calls = []
        monkeypatch.setattr(session, "run_session", calls.append)
        out = tmp_path / "out"
        assert main(["sweep", "--axis", "mu", "--values", values, "--out", str(out)]) == 1
        assert calls == []
        assert not (out / "sweep.csv").exists()
        assert "config error: source.mu: must lie in [0, inf)" in capsys.readouterr().err


class TestFlagsAndFile:
    """A flag overrides the file's value; an absent flag leaves it."""

    @staticmethod
    def load(*argv):
        return cli._load_config(cli.build_parser().parse_args(list(argv)))

    def test_file_values_hold_without_flags(self, tmp_path):
        path = tmp_path / "on.ini"
        path.write_text("[eve]\nenabled = true\n[session]\ngates_per_pulse = 2\n")
        for command in ("run", "sweep"):
            extra = ["--axis", "mu", "--values", "0.1"] if command == "sweep" else []
            cfg = self.load(command, "--config", str(path), *extra)
            assert cfg.eve.enabled is True and cfg.gates_per_pulse == 2

    def test_flags_set_values(self, tmp_path):
        path = tmp_path / "off.ini"
        path.write_text("[eve]\nenabled = false\n")
        assert self.load("run", "--config", str(path)).eve.enabled is False
        cfg = self.load("run", "--config", str(path), "--eve", "--conventional-mode")
        assert cfg.eve.enabled is True and cfg.gates_per_pulse == 2

    def test_seed_and_pulses_override_file(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text("[session]\nseed = 11\nn_pulses = 5000\n")
        cfg = self.load("run", "--config", str(path))
        assert (cfg.seed, cfg.n_pulses) == (11, 5000)
        cfg = self.load("run", "--config", str(path), "--seed", "12", "--pulses", "2e3")
        assert (cfg.seed, cfg.n_pulses) == (12, 2000)
        assert self.load("profile", "--config", str(path), "--seed", "13").seed == 13

    def test_flag_values_are_checked(self, capsys):
        assert main(["run", "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "config error: session.seed: must lie in [0, 18446744073709551616)" in err

    def test_config_flags_have_no_argparse_type(self):
        """with_values is the only reader of a config value: a flag stored
        under a section.key path reaches it as the text given."""
        subs = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        typed = {(command, a.dest): a.type for command, sub in subs.choices.items()
                 for a in sub._actions if "." in a.dest}
        assert ("run", "session.n_pulses") in typed and ("profile", "session.seed") in typed
        assert [flag for flag, kind in typed.items() if kind is not None] == []

    @pytest.mark.parametrize("flag", [["--eve"], ["--conventional-mode"], ["--pulses", "10"]])
    def test_profile_refuses_session_flags(self, tmp_path, capsys, flag):
        assert main(["profile", *flag, "--out", str(tmp_path / "o")]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main(["sweep"]) == 1  # missing required --axis/--values

    def test_non_integer_count_is_1(self, tmp_path, capsys):
        """A flag's value is read as the file's is, so both print one line."""
        for flag, key in (("--pulses", "n_pulses"), ("--seed", "seed")):
            path = tmp_path / f"{key}.ini"
            path.write_text(f"[session]\n{key} = 1.5\n")
            errors = []
            for argv in ([flag, "1.5"], ["--config", str(path)]):
                assert main(["run", *argv, "--out", str(tmp_path / "o")]) == 1
                errors.append(capsys.readouterr().err)
            assert errors == [f"config error: session.{key}: must be an integer\n"] * 2
        assert not (tmp_path / "o").exists()

    def test_config_error_is_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[source]\nmu = -1\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_only_config_faults_labelled_config_error(self, tmp_path, capsys):
        assert main(["profile", "--sampled", "-5", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "sampled_pulses" in err and "config error" not in err
        bad = tmp_path / "bad.ini"
        bad.write_text("[source]\nbogus_key = 1\n")
        assert main(["profile", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("jitter", ["1e308", "1000001"])
    def test_overflowing_phase_jitter_is_a_config_error(self, tmp_path, capsys, jitter):
        """A jitter whose product with a standard normal could overflow the
        phase is refused before any session runs: exit 1 and no outputs."""
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[bob_amz]\nphase_jitter_rad = {jitter}\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(bad), "--pulses", "2e6", "--seed", "3", "--out", str(out)]) == 1
        assert "config error: bob_amz.phase_jitter_rad: must lie in [0, 1e+06]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pulses", ["1e19", str(2**63)])
    def test_pulse_count_past_int64_is_a_config_error(self, tmp_path, capsys, monkeypatch, pulses):
        """Refused before any session runs; one that ran would loop over
        about 1e13 batches, so the stand-in fails at once instead."""

        def no_session(config):
            raise AssertionError(f"a session of {config.n_pulses} pulses ran")

        monkeypatch.setattr(cli, "run_session", no_session)
        out = tmp_path / "o"
        assert main(["run", "--pulses", pulses, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error: session.n_pulses: must lie in [0, 9223372036854775808)" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, code", [(["profile"], 0), (["frobnicate"], 1)], ids=["ok", "usage"])
    def test_console_script_exits_with_mains_code(self, tmp_path, monkeypatch, capsys, argv, code):
        monkeypatch.setattr("sys.argv", ["timebin-bb84", *argv, "--out", str(tmp_path / "o")])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == code

    def test_missing_config_is_1(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "ghost.ini")]) == 1

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, kind):
        path = tmp_path / "cfg"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config file {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_out_that_is_a_file_is_1(self, tmp_path, capsys):
        """The session runs, then --out names no directory it can make:
        one error line naming the path, and the file is left as it was."""
        out = tmp_path / "taken"
        out.write_text("keep\n")
        assert main(["run", "--pulses", "100000", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(out) in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert out.read_text() == "keep\n"

    @pytest.mark.parametrize("count", ["1e19", str(2**63)])
    def test_sampled_count_past_int64_is_1(self, tmp_path, capsys, count):
        out = tmp_path / "o"
        assert main(["profile", "--sampled", count, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sampled_pulses must be >= 0 and below 2**63")
        assert err.count("\n") == 1
        assert not out.exists()


class TestCsvColumns:
    @pytest.mark.parametrize(
        "read,header,what",
        [
            (read_profile_csv, "state,slot,port,prob", "profile"),
            (read_summary_csv, "pulses_sent,qber", "summary"),
            (read_sweep_csv, "mu,registered_rate,qber", "sweep"),
        ],
        ids=["profile", "summary", "sweep"],
    )
    def test_unexpected_columns_refused(self, tmp_path, read, header, what):
        path = tmp_path / "table.csv"
        path.write_text(header + "\n")
        with pytest.raises(ValueError, match=f"unexpected {what} columns"):
            read(path)


class TestBarRendering:
    def test_proportionality(self):
        assert bar(0.0) == ""
        assert len(bar(1.0)) == 48
        assert len(bar(0.5)) in (24, 25)

    def test_eighths(self):
        assert bar(0.25, width=1) in ("▎", "▍")

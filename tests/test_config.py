"""Config file parsing, defaults, and cross-field validation."""

import pytest

from timebin_bb84.config import (
    DEFAULT_CONFIG_TEXT,
    ConfigError,
    SessionConfig,
    parse_config,
)


def write(tmp_path, text):
    path = tmp_path / "session.ini"
    path.write_text(text)
    return path


class TestParsing:
    def test_missing_path_means_defaults(self):
        assert parse_config(None) == SessionConfig()

    def test_empty_file_means_defaults(self, tmp_path):
        assert parse_config(write(tmp_path, "")) == SessionConfig()

    def test_default_text_round_trips_to_defaults(self, tmp_path):
        assert parse_config(write(tmp_path, DEFAULT_CONFIG_TEXT)) == SessionConfig()

    def test_nonexistent_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.ini")

    def test_values_applied(self, tmp_path):
        cfg = parse_config(
            write(
                tmp_path,
                """
[session]
n_pulses = 1e6
seed = 42
sample_fraction = 0.25
conventional_mode = yes

[source]
mu = 0.2

[channel]
length_km = 25
""",
            )
        )
        assert cfg.n_pulses == 1_000_000
        assert cfg.seed == 42
        assert cfg.sample_fraction == 0.25
        assert cfg.conventional_mode is True
        assert cfg.source.mu == 0.2
        assert cfg.channel.length_km == 25.0

    def test_eve_sections(self, tmp_path):
        cfg = parse_config(
            write(
                tmp_path,
                """
[eve]
enabled = true

[eve_amz]
visibility = 0.5
""",
            )
        )
        assert cfg.eve.enabled is True
        assert cfg.eve.apparatus.visibility == 0.5
        assert cfg.eve.apparatus.excess_loss_db == 0.0  # stays ideal otherwise

    def test_parse_error_reports_line(self, tmp_path):
        path = write(tmp_path, "[session]\nn_pulses 100\n")
        with pytest.raises(ConfigError, match=r"line.*2"):
            parse_config(path)


class TestRejection:
    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="laser"):
            parse_config(write(tmp_path, "[laser]\npower = 1\n"))

    def test_unknown_key_with_path(self, tmp_path):
        with pytest.raises(ConfigError, match=r"channel\.attenu"):
            parse_config(write(tmp_path, "[channel]\nattenu = 0.2\n"))

    def test_bad_value_type(self, tmp_path):
        with pytest.raises(ConfigError, match=r"session\.n_pulses"):
            parse_config(write(tmp_path, "[session]\nn_pulses = many\n"))
        with pytest.raises(ConfigError, match=r"session\.n_pulses"):
            parse_config(write(tmp_path, "[session]\nn_pulses = 10.5\n"))
        with pytest.raises(ConfigError, match=r"session\.conventional_mode"):
            parse_config(write(tmp_path, "[session]\nconventional_mode = maybe\n"))

    def test_negative_mu(self, tmp_path):
        with pytest.raises(ConfigError, match="source"):
            parse_config(write(tmp_path, "[source]\nmu = -0.5\n"))

    def test_delay_mismatch(self, tmp_path):
        # the one-bin delay is fixed in the optics model; the key is gone
        with pytest.raises(ConfigError, match=r"alice_amz\.delay_bins: unknown key"):
            parse_config(write(tmp_path, "[alice_amz]\ndelay_bins = 2\n"))

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("source", "rep_rate_hz", "1e6"),
            ("source", "wavelength_nm", "1550"),
            ("bob_amz", "delay_bins", "1"),
            ("eve_amz", "delay_bins", "1"),
            ("apd_d0", "double_click_policy", "discard"),
            ("eve", "resend_on_no_click", "vacuum"),
        ],
    )
    def test_removed_keys_are_unknown(self, tmp_path, section, key, value):
        with pytest.raises(ConfigError, match=rf"{section}\.{key}: unknown key"):
            parse_config(write(tmp_path, f"[{section}]\n{key} = {value}\n"))

    def test_gate_mismatch(self, tmp_path):
        with pytest.raises(ConfigError, match=r"apd_d1\.gates_per_pulse"):
            parse_config(write(tmp_path, "[apd_d0]\ngates_per_pulse = 1\n"))

    def test_sample_fraction_bounds(self, tmp_path):
        with pytest.raises(ConfigError, match="sample_fraction"):
            parse_config(write(tmp_path, "[session]\nsample_fraction = 0\n"))
        with pytest.raises(ConfigError, match="sample_fraction"):
            parse_config(write(tmp_path, "[session]\nsample_fraction = 1.5\n"))

    def test_validate_direct(self):
        cfg = SessionConfig(n_pulses=-1)
        with pytest.raises(ConfigError, match=r"session\.n_pulses"):
            cfg.validate()

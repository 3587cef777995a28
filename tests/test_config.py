"""Config file parsing, defaults, and the one field rule."""

import configparser
import dataclasses
import re
import struct
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from timebin_bb84.cli import main
from timebin_bb84.config import (
    _KEYS,
    DEFAULT_CONFIG_TEXT,
    ConfigError,
    SessionConfig,
    parse_config,
    with_values,
)
from timebin_bb84.detection import ApdSpec, RngHandle, SourceSpec
from timebin_bb84.eavesdrop import EveSpec
from timebin_bb84.fields import KINDS, check_fields
from timebin_bb84.optics import CanonicalState
from timebin_bb84.session import run_session


def write(tmp_path, text):
    path = tmp_path / "session.ini"
    path.write_text(text)
    return path


# Every settable key: (section, key, file text, SessionConfig field, parsed
# value).  Written out rather than derived from the schema, so that a key
# the parser drops or parses with the wrong type fails here.
ALL_KEYS = [
    ("session", "n_pulses", "2e3", "n_pulses", 2000),
    ("session", "seed", "7", "seed", 7),
    ("session", "sample_fraction", "0.5", "sample_fraction", 0.5),
    ("session", "gates_per_pulse", "1.0", "gates_per_pulse", 1),
    ("source", "mu", "0.3", "source.mu", 0.3),
    ("alice_amz", "phase_offset_rad", "0.25", "alice_amz.phase_offset_rad", 0.25),
    ("alice_amz", "phase_jitter_rad", "0.05", "alice_amz.phase_jitter_rad", 0.05),
    ("bob_amz", "excess_loss_db", "1", "bob_amz.excess_loss_db", 1.0),
    ("bob_amz", "phase_offset_rad", "-0.5", "bob_amz.phase_offset_rad", -0.5),
    ("bob_amz", "visibility", "0.95", "bob_amz.visibility", 0.95),
    ("bob_amz", "phase_jitter_rad", "0.1", "bob_amz.phase_jitter_rad", 0.1),
    ("channel", "length_km", "25", "channel.length_km", 25.0),
    ("channel", "atten_db_per_km", "0.25", "channel.atten_db_per_km", 0.25),
    ("channel", "fixed_insertion_db", "3", "channel.fixed_insertion_db", 3.0),
    ("apd_d0", "efficiency", "0.2", "apd_d0.efficiency", 0.2),
    ("apd_d0", "dark_per_gate", "1e-6", "apd_d0.dark_per_gate", 1e-6),
    ("apd_d1", "efficiency", "0.3", "apd_d1.efficiency", 0.3),
    ("apd_d1", "dark_per_gate", "2e-5", "apd_d1.dark_per_gate", 2e-5),
    ("eve", "enabled", "yes", "eve.enabled", True),
    ("eve_amz", "excess_loss_db", "0.5", "eve.apparatus.excess_loss_db", 0.5),
    ("eve_amz", "phase_offset_rad", "0.1", "eve.apparatus.phase_offset_rad", 0.1),
    ("eve_amz", "visibility", "0.8", "eve.apparatus.visibility", 0.8),
    ("eve_amz", "phase_jitter_rad", "0.2", "eve.apparatus.phase_jitter_rad", 0.2),
]


# section.key -> SessionConfig field path
FIELDS = {f"{section}.{key}": field for section, key, _, field, _ in ALL_KEYS}


def leaves(config):
    """{dotted field path: value} of every scalar in a SessionConfig."""
    out = {}

    def walk(obj, prefix):
        for name, value in obj.items():
            if isinstance(value, dict):
                walk(value, f"{prefix}{name}.")
            else:
                out[f"{prefix}{name}"] = value

    walk(dataclasses.asdict(config), "")
    return out


class TestParsing:
    def test_missing_path_means_defaults(self):
        assert parse_config(None) == SessionConfig()

    def test_empty_file_means_defaults(self, tmp_path):
        assert parse_config(write(tmp_path, "")) == SessionConfig()

    def test_default_text_round_trips_to_defaults(self, tmp_path):
        assert parse_config(write(tmp_path, DEFAULT_CONFIG_TEXT)) == SessionConfig()

    def test_default_text_lists_every_key(self):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(DEFAULT_CONFIG_TEXT)
        assert parser.sections() == [
            "session", "source", "alice_amz", "bob_amz", "channel",
            "apd_d0", "apd_d1", "eve", "eve_amz",
        ]
        listed = [(s, k) for s in parser.sections() for k in parser[s]]
        assert len(listed) == 23
        assert sorted(listed) == sorted((s, k) for s, k, *_ in ALL_KEYS)

    @pytest.mark.parametrize(
        "section, key, text, field, value", ALL_KEYS, ids=[f"{s}.{k}" for s, k, *_ in ALL_KEYS]
    )
    def test_each_key_sets_its_field(self, tmp_path, section, key, text, field, value):
        got = leaves(parse_config(write(tmp_path, f"[{section}]\n{key} = {text}\n")))
        defaults = leaves(SessionConfig())
        assert {k: v for k, v in got.items() if v != defaults[k]} == {field: value}
        assert type(got[field]) is type(value)

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
gates_per_pulse = 2

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
        assert cfg.gates_per_pulse == 2
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

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nmu = 0.5\nn_pulses = 5\n",
        "[DEFAULT]\nmu = 0.5\nn_pulses = 5\n[session]\nseed = 3\n",
    ], ids=["alone", "with_session"])
    def test_default_section_refused(self, tmp_path, text):
        """configparser would drop a lone [DEFAULT] section, or else copy its
        keys into every other section; the file is refused either way."""
        with pytest.raises(ConfigError, match="^DEFAULT: unknown section$"):
            parse_config(write(tmp_path, text))

    def test_unknown_key_with_path(self, tmp_path):
        with pytest.raises(ConfigError, match=r"channel\.attenu"):
            parse_config(write(tmp_path, "[channel]\nattenu = 0.2\n"))

    def test_bad_value_type(self, tmp_path):
        with pytest.raises(ConfigError, match=r"session\.n_pulses"):
            parse_config(write(tmp_path, "[session]\nn_pulses = many\n"))
        with pytest.raises(ConfigError, match=r"session\.n_pulses"):
            parse_config(write(tmp_path, "[session]\nn_pulses = 10.5\n"))
        with pytest.raises(ConfigError, match=r"eve\.enabled"):
            parse_config(write(tmp_path, "[eve]\nenabled = maybe\n"))

    def test_negative_mu(self, tmp_path):
        with pytest.raises(ConfigError, match="source"):
            parse_config(write(tmp_path, "[source]\nmu = -0.5\n"))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "section, key",
        [
            ("source", "mu"),
            ("bob_amz", "excess_loss_db"),
            ("bob_amz", "phase_offset_rad"),
            ("bob_amz", "phase_jitter_rad"),
            ("channel", "length_km"),
            ("channel", "atten_db_per_km"),
            ("channel", "fixed_insertion_db"),
        ],
    )
    def test_non_finite_value(self, tmp_path, section, key, value):
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: must lie in "):
            parse_config(write(tmp_path, f"[{section}]\n{key} = {value}\n"))

    def test_non_finite_sweep_value_exits_1(self, tmp_path, capsys):
        assert main(["sweep", "--axis", "mu", "--values", "nan", "--out", str(tmp_path)]) == 1
        assert "config error: source.mu: must lie in [0, inf)" in capsys.readouterr().err

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
            # The transmitter has only phase keys, and one gate count describes the receiver.
            ("alice_amz", "excess_loss_db", "0"),
            ("alice_amz", "visibility", "1"),
            ("apd_d0", "gates_per_pulse", "3"),
            ("apd_d1", "gates_per_pulse", "3"),
            ("session", "conventional_mode", "true"),
        ],
    )
    def test_removed_keys_are_unknown(self, tmp_path, section, key, value):
        with pytest.raises(ConfigError, match=rf"{section}\.{key}: unknown key"):
            parse_config(write(tmp_path, f"[{section}]\n{key} = {value}\n"))

    def test_gate_count(self, tmp_path):
        for gates in (1, 2, 3):
            cfg = parse_config(write(tmp_path, f"[session]\ngates_per_pulse = {gates}\n"))
            assert cfg.gates_per_pulse == gates
        for gates in (0, 4):
            with pytest.raises(ConfigError, match=r"^session\.gates_per_pulse: must lie in \[1, 3\]$"):
                parse_config(write(tmp_path, f"[session]\ngates_per_pulse = {gates}\n"))

    def test_sample_fraction_bounds(self, tmp_path):
        with pytest.raises(ConfigError, match="sample_fraction"):
            parse_config(write(tmp_path, "[session]\nsample_fraction = 0\n"))
        with pytest.raises(ConfigError, match="sample_fraction"):
            parse_config(write(tmp_path, "[session]\nsample_fraction = 1.5\n"))

    def test_validate_direct(self):
        with pytest.raises(ConfigError, match=r"^n_pulses: must lie in "):
            SessionConfig(n_pulses=-1)

    @pytest.mark.parametrize("key, value", [("n_pulses", 1.5), ("seed", 1.5), ("gates_per_pulse", 2.0)])
    def test_non_integral_session_value_refused(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{key}: must be an integer$"):
            SessionConfig(**{key: value})

    def test_non_number_sample_fraction_refused(self):
        with pytest.raises(ConfigError, match=r"^sample_fraction: must be a number$"):
            SessionConfig(sample_fraction="0.5")

    def test_numpy_integers_accepted(self):
        cfg = SessionConfig(n_pulses=np.int64(20_000), seed=np.uint64(3), gates_per_pulse=np.int8(2))
        assert cfg == SessionConfig(n_pulses=20_000, seed=3, gates_per_pulse=2)


class TestWithValues:
    def test_sets_values_by_path(self):
        cfg = with_values(
            SessionConfig(),
            {"session.seed": 3, "eve.enabled": True, "eve_amz.visibility": 0.5, "source.mu": 0.2},
        )
        apparatus = dataclasses.replace(EveSpec().apparatus, visibility=0.5)
        assert cfg == SessionConfig(
            seed=3, eve=EveSpec(enabled=True, apparatus=apparatus), source=SourceSpec(mu=0.2)
        )

    def test_rebuilds_only_changed_specs(self):
        base = SessionConfig()
        assert with_values(base, {}) is base
        cfg = with_values(base, {"eve_amz.visibility": 0.5})
        assert cfg.source is base.source and cfg.bob_amz is base.bob_amz
        assert cfg.eve is not base.eve and cfg.eve.enabled is base.eve.enabled

    def test_each_spec_sees_all_its_new_values(self):
        # Two keys of one nested spec, one of its parent and one of the session.
        values = {"eve_amz.visibility": 0.5, "eve_amz.phase_offset_rad": 0.2, "eve.enabled": True,
                  "session.gates_per_pulse": 1}
        cfg = with_values(SessionConfig(), values)
        assert (cfg.eve.apparatus.visibility, cfg.eve.apparatus.phase_offset_rad) == (0.5, 0.2)
        assert cfg.eve.enabled and cfg.gates_per_pulse == 1

    @pytest.mark.parametrize(
        "name, message",
        [
            ("laser.power", "laser: unknown section"),
            ("mu", "mu: unknown section"),
            ("channel.attenu", r"channel\.attenu: unknown key"),
            ("eve.apparatus", r"eve\.apparatus: unknown key"),
        ],
    )
    def test_unknown_path_refused(self, name, message):
        with pytest.raises(ConfigError, match=message):
            with_values(SessionConfig(), {name: 1.0})

    def test_failed_check_names_section_key(self):
        with pytest.raises(ConfigError, match=r"^source\.mu: must lie in \[0, inf\)$"):
            with_values(SessionConfig(), {"source.mu": -1.0})
        with pytest.raises(ConfigError, match=r"^session\.n_pulses: must lie in \[0, 9223372036854775808\)$"):
            with_values(SessionConfig(), {"session.n_pulses": -1})

    def test_pulse_count_past_int64_refused(self, tmp_path):
        """Pulse indices are int64 in the events and in the wire's gap sums."""
        assert SessionConfig(n_pulses=2**63 - 1).n_pulses == 2**63 - 1
        message = r"n_pulses: must lie in \[0, 9223372036854775808\)$"
        for count in (2**63, 10**19, 2**64):
            with pytest.raises(ConfigError, match="^" + message):
                SessionConfig(n_pulses=count)
        with pytest.raises(ConfigError, match=r"^session\." + message):
            parse_config(write(tmp_path, "[session]\nn_pulses = 1e30\n"))

    def test_parse_reads_text_by_key_type(self):
        cfg = with_values(SessionConfig(), {"session.n_pulses": "2e3", "eve.enabled": "yes"})
        assert cfg.n_pulses == 2000 and cfg.eve.enabled is True
        with pytest.raises(ConfigError, match=r"^session\.n_pulses: must be an integer$"):
            with_values(SessionConfig(), {"session.n_pulses": "10.5"})


class TestOneReadingRule:
    """Text and Python values are read one way: from their text, by the
    key's type, as a config file's are."""

    @pytest.mark.parametrize("off", ["false", False, np.False_], ids=["text", "bool", "numpy_bool"])
    def test_false_turns_the_attacker_off(self, off):
        cfg = with_values(SessionConfig(eve=EveSpec(enabled=True)), {"eve.enabled": off})
        assert cfg.eve.enabled is False

    def test_text_sets_a_float(self):
        assert with_values(SessionConfig(), {"source.mu": "0.5"}).source.mu == 0.5

    def test_integral_float_gives_an_int(self):
        cfg = with_values(SessionConfig(), {"session.n_pulses": 1e5})
        assert cfg.n_pulses == 100_000 and type(cfg.n_pulses) is int

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("session.n_pulses", 1.5, r"^session\.n_pulses: must be an integer$"),
            ("source.mu", True, r"^source\.mu: must be a number$"),
        ],
    )
    def test_value_of_another_type_refused(self, name, value, message):
        with pytest.raises(ConfigError, match=message):
            with_values(SessionConfig(), {name: value})

    @given(name=st.sampled_from(sorted(k for k, entry in _KEYS.items() if entry[2] is KINDS["float"])),
           value=st.floats(0, 1) | st.floats(allow_nan=False, allow_infinity=False))
    def test_float_reads_back_bit_for_bit(self, name, value):
        try:
            cfg = with_values(SessionConfig(), {name: value})
        except ConfigError:
            assume(False)  # outside the key's accepted range
        stored = leaves(cfg)[FIELDS[name]]
        assert struct.pack("<d", stored) == struct.pack("<d", value)


# Values of the wrong kind for a key, by the key's annotation.  A spec built
# directly is given text, or a bool for a number and a number for a bool.
# with_values reads every value from its text, so "0.5" is a number and
# "false" a bool there; it is given a bool for a number and a number for a
# bool, and a fraction for an integer.
BUILT_WRONG = {"int": ["0.5", True], "float": ["0.5", True], "bool": ["false", 1]}
READ_WRONG = {"int": [True, "0.5"], "float": [True], "bool": [0.5]}
ANNOTATION = {kind: annotation for annotation, kind in KINDS.items()}


def wrong_kinds(table):
    return [(name, value) for name in sorted(_KEYS) for value in table[ANNOTATION[_KEYS[name][2]]]]


def nested_specs(spec):
    """``spec`` and every spec nested in it."""
    yield spec
    for f in dataclasses.fields(spec):
        if dataclasses.is_dataclass(getattr(spec, f.name)):
            yield from nested_specs(getattr(spec, f.name))


class TestOneFieldRule:
    """Every spec field is checked by one rule, ``fields.check_fields``: a
    value of the field's kind, inside the interval the field declares."""

    @pytest.mark.parametrize("name, value", wrong_kinds(BUILT_WRONG))
    def test_wrong_kind_refused_by_the_spec(self, name, value):
        """Among these: EveSpec(enabled="false") turned the attacker on,
        SourceSpec(mu="0.5") failed with a bare TypeError, and
        SessionConfig(n_pulses=True) and ApdSpec(efficiency=True) were taken."""
        field_path, key, (_, kind, _) = _KEYS[name]
        spec = attrgetter(field_path)(SessionConfig()) if field_path else SessionConfig()
        with pytest.raises(ValueError, match=rf"^{key}: must be {kind}$"):
            dataclasses.replace(spec, **{key: value})

    @pytest.mark.parametrize("name, value", wrong_kinds(READ_WRONG))
    def test_wrong_kind_refused_by_with_values(self, name, value):
        kind = _KEYS[name][2][1]
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)}: must be {kind}$"):
            with_values(SessionConfig(), {name: value})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", sorted(k for k, entry in _KEYS.items() if entry[2] is KINDS["float"]))
    def test_non_finite_float_refused(self, name, value):
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)}: must lie in [\[(]"):
            with_values(SessionConfig(), {name: value})

    def test_numpy_scalars_of_the_kind_pass(self):
        assert SourceSpec(mu=np.float32(0.25)).mu == 0.25
        assert ApdSpec(efficiency=np.int64(1)).efficiency == 1  # an integer is a real number
        assert EveSpec(enabled=np.True_).enabled

    def test_every_spec_declares_its_fields_for_the_rule(self):
        """A new key cannot bypass the rule: each spec in SessionConfig holds
        only fields of a known kind and nested specs, its one __post_init__
        is the shared check, and its defaults lie inside their intervals."""
        for spec in nested_specs(SessionConfig()):
            cls = type(spec)
            for f in dataclasses.fields(cls):
                assert f.type in KINDS or dataclasses.is_dataclass(getattr(spec, f.name)), f"{cls}.{f.name}"
            own = {vars(c)["__post_init__"] for c in cls.__mro__ if "__post_init__" in vars(c)}
            assert own == {check_fields}, cls
            check_fields(cls())  # every default lies inside its interval
        assert RngHandle.__post_init__ is CanonicalState.__post_init__ is check_fields


# The every-key check runs from a dense, attacked base link, so that each
# key of every section has something to act on.
ACTS_BASE = {
    "eve.enabled": True, "channel.length_km": 5.0, "source.mu": 0.5, "apd_d0.efficiency": 0.5,
    "apd_d1.efficiency": 0.5, "session.n_pulses": 200_000, "session.seed": 11,
}
# Each key's value from ALL_KEYS, except that the attacker, on in the base, goes off.
ACTING_VALUES = {f"{s}.{k}": v for s, k, *_, v in ALL_KEYS} | {"eve.enabled": False}


def run_outputs(values):
    """(summary, (transmitter key, receiver key)) of a run with ``values`` set."""
    result = run_session(with_values(SessionConfig(), values))
    return result.summary, (result.alice_key.to_hex(), result.bob_key.to_hex())


@pytest.fixture(scope="module")
def base_outputs():
    return run_outputs(ACTS_BASE)


@pytest.mark.parametrize("name", sorted(_KEYS))
def test_every_key_acts(name, base_outputs):
    """Setting any one key away from the base changes the run's summary and
    its keys: no key is parsed, checked and then ignored."""
    summary, keys = run_outputs({**ACTS_BASE, name: ACTING_VALUES[name]})
    assert summary != base_outputs[0]
    assert keys != base_outputs[1]

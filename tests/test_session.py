"""End-to-end sessions: correctness, determinism, modes, sweeps, jitter."""

import copy
import dataclasses
import math

import numpy as np
import pytest

from timebin_bb84.channel import ChannelSpec, transmittance
from timebin_bb84 import detection, eavesdrop, session
from timebin_bb84.config import SessionConfig
from timebin_bb84.detection import ApdSpec, SourceSpec, expected_event_rates
from timebin_bb84.eavesdrop import EveSpec, enumerate_attack_qber, outcome_probabilities
from timebin_bb84.eavesdrop import OUTCOME_TO_STATE_INDEX
from timebin_bb84.optics import (
    CANONICAL_STATES,
    AmzSpec,
    Basis,
    SlotPortDistribution,
    bob_transform,
    canonical_link_state,
    vacuum_state,
)
from timebin_bb84.protocol import InsufficientKeyError, run_protocol
from timebin_bb84.session import profile_rows, run_session, sweep


def ideal_config(**overrides) -> SessionConfig:
    """Lossless, noiseless variant used by analytic checks."""
    base = dict(
        source=SourceSpec(mu=0.1),
        alice_amz=AmzSpec(excess_loss_db=0.0),
        bob_amz=AmzSpec(excess_loss_db=0.0),
        channel=ChannelSpec(length_km=0.0),
        apd_d0=ApdSpec(efficiency=0.1, dark_per_gate=0.0),
        apd_d1=ApdSpec(efficiency=0.1, dark_per_gate=0.0),
        n_pulses=1_000_000,
        seed=321,
        sample_fraction=0.1,
    )
    base.update(overrides)
    return SessionConfig(**base)


class TestIdealSession:
    def test_noiseless_keys_identical_and_error_free(self):
        result = run_session(ideal_config())
        assert result.summary.true_qber == 0.0
        assert result.summary.qber == 0.0
        assert np.array_equal(result.alice_key.bits, result.bob_key.bits)
        assert np.array_equal(result.alice_key.source_indices, result.bob_key.source_indices)
        assert result.alice_key.to_hex() == result.bob_key.to_hex()
        assert result.summary.sifted_length > 0

    def test_conclusive_fraction_half(self):
        result = run_session(ideal_config(n_pulses=2_000_000))
        s = result.summary
        p = s.conclusive_count / s.events_registered
        sigma = math.sqrt(0.25 / s.events_registered)
        assert abs(p - 0.5) <= 4 * sigma + 0.003  # small first-fire shadowing allowance

    def test_counts_consistent(self):
        result = run_session(ideal_config(n_pulses=300_000))
        s = result.summary
        assert s.conclusive_count == s.sifted_length + result.alice_key.disclosed_count
        assert s.conclusive_count == s.conclusive_z + s.conclusive_x
        assert s.events_registered >= s.conclusive_count
        assert s.sifted_rate_per_pulse == s.conclusive_count / s.pulses_sent


class TestDeterminism:
    def test_identical_seed_identical_outputs(self):
        # pulse count straddles a batch boundary on purpose
        cfg = SessionConfig(n_pulses=1_300_000, seed=9)
        one = run_session(cfg)
        two = run_session(cfg)
        assert one.summary == two.summary
        assert one.alice_key.to_hex() == two.alice_key.to_hex()
        assert one.bob_key.to_hex() == two.bob_key.to_hex()

    def test_seed_changes_stream(self):
        one = run_session(SessionConfig(n_pulses=200_000, seed=9))
        two = run_session(SessionConfig(n_pulses=200_000, seed=10))
        assert one.alice_key.to_hex() != two.alice_key.to_hex()


class TestConventionalMode:
    def test_late_slot_events_dropped_before_sifting(self):
        cfg = ideal_config(n_pulses=400_000, conventional_mode=True)
        result = run_session(cfg)
        # S3 events classify to (Z, 1); without them no receiver Z-bit is 1
        z_mask = result.classifications.bases == 0
        assert not np.any(result.classifications.bits[z_mask] == 1)

    def test_full_mode_doubles_time_basis_yield(self):
        full = run_session(ideal_config(n_pulses=2_000_000, seed=5))
        conv = run_session(ideal_config(n_pulses=2_000_000, seed=5, conventional_mode=True))
        assert full.summary.events_registered == conv.summary.events_registered
        ratio = full.summary.conclusive_z / conv.summary.conclusive_z
        assert abs(ratio - 2.0) < 0.1
        assert full.summary.conclusive_x == conv.summary.conclusive_x


class TestVisibilityAndPhase:
    def test_x_errors_at_reduced_visibility(self):
        v = 0.9802
        cfg = ideal_config(
            n_pulses=4_000_000,
            source=SourceSpec(mu=0.1),
            apd_d0=ApdSpec(efficiency=1.0, dark_per_gate=0.0),
            apd_d1=ApdSpec(efficiency=1.0, dark_per_gate=0.0),
            bob_amz=AmzSpec(excess_loss_db=0.0, visibility=v),
        )
        result = run_session(cfg)
        s = result.summary
        assert s.true_qber_z == 0.0
        want = (1 - v) / 2
        sigma = math.sqrt(want * (1 - want) / s.conclusive_x)
        assert abs(s.true_qber_x - want) <= 4 * sigma + 3e-4

    def test_pi_phase_offset_flips_x_classification(self):
        cfg = ideal_config(
            n_pulses=200_000,
            bob_amz=AmzSpec(excess_loss_db=0.0, phase_offset_rad=math.pi),
        )
        result = run_session(cfg)
        assert result.summary.true_qber_x == 1.0
        assert result.summary.true_qber_z == 0.0

    def test_transmitter_and_receiver_offsets_cancel(self):
        cfg = ideal_config(
            n_pulses=200_000,
            alice_amz=AmzSpec(excess_loss_db=0.0, phase_offset_rad=0.7),
            bob_amz=AmzSpec(excess_loss_db=0.0, phase_offset_rad=0.7),
        )
        result = run_session(cfg)
        assert result.summary.true_qber == 0.0

    def test_phase_jitter_produces_expected_x_errors(self):
        sigma_phi = 0.5
        cfg = ideal_config(
            n_pulses=2_000_000,
            source=SourceSpec(mu=0.05),
            apd_d0=ApdSpec(efficiency=1.0, dark_per_gate=0.0),
            apd_d1=ApdSpec(efficiency=1.0, dark_per_gate=0.0),
            bob_amz=AmzSpec(excess_loss_db=0.0, phase_jitter_rad=sigma_phi),
        )
        result = run_session(cfg)
        s = result.summary
        want = (1 - math.exp(-sigma_phi**2 / 2)) / 2  # E[(1-cos d)/2], d ~ N(0, s^2)
        sigma = math.sqrt(want * (1 - want) / s.conclusive_x)
        assert s.true_qber_z == 0.0
        assert abs(s.true_qber_x - want) <= 4 * sigma + 1e-3

    def test_jitter_split_between_stations_is_equivalent(self):
        # variances add: jitter 0.3/0.4 across the two devices behaves like
        # a single 0.5 rad jitter (checked through the X error rate)
        kw = dict(
            n_pulses=2_000_000,
            source=SourceSpec(mu=0.05),
            apd_d0=ApdSpec(efficiency=1.0, dark_per_gate=0.0),
            apd_d1=ApdSpec(efficiency=1.0, dark_per_gate=0.0),
        )
        split = run_session(
            ideal_config(
                alice_amz=AmzSpec(excess_loss_db=0.0, phase_jitter_rad=0.3),
                bob_amz=AmzSpec(excess_loss_db=0.0, phase_jitter_rad=0.4),
                **kw,
            )
        ).summary
        want = (1 - math.exp(-0.5**2 / 2)) / 2
        sigma = math.sqrt(want * (1 - want) / split.conclusive_x)
        assert abs(split.true_qber_x - want) <= 4 * sigma + 1e-3


THINNING_CONFIGS = {
    "default": SessionConfig(n_pulses=300_000, seed=41),
    "receiver_drift": SessionConfig(
        n_pulses=300_000, seed=42,
        alice_amz=AmzSpec(phase_jitter_rad=0.1), bob_amz=AmzSpec(phase_jitter_rad=0.3),
    ),
    "attacker_drift": SessionConfig(
        n_pulses=300_000, seed=43,
        eve=EveSpec(enabled=True, apparatus=AmzSpec(excess_loss_db=0.0, phase_jitter_rad=0.2)),
        bob_amz=AmzSpec(phase_jitter_rad=0.1),
    ),
    "unequal_efficiencies": SessionConfig(
        n_pulses=300_000, seed=44, source=SourceSpec(mu=1.0), channel=ChannelSpec(length_km=0.0),
        apd_d0=ApdSpec(efficiency=0.05), apd_d1=ApdSpec(efficiency=0.6),
        bob_amz=AmzSpec(phase_jitter_rad=0.2),
    ),
}


def every_pulse_row(states: np.ndarray, n_states: int, width: int, rows) -> np.ndarray:
    """Each pulse's cumulative row, evaluating every state's ``rows`` at
    all pulses of the batch and keeping each pulse's own state."""
    everyone = np.arange(len(states))
    table = np.zeros((len(states), width))
    for k in range(n_states):
        mask = states == k
        table[mask] = np.broadcast_to(rows(k, everyone), table.shape)[mask]
    return table


@pytest.mark.parametrize("name", THINNING_CONFIGS)
def test_thinned_detection_equals_unthinned(monkeypatch, name):
    """Within run_session, thinning gives bit-identical outcomes to
    evaluating every pulse's first-fire row against the same uniforms."""
    batches = []

    def checked(states, limits, rows, rng):
        reference_rng = copy.deepcopy(rng)
        got = detection.detect_batch(states, limits, rows, rng)
        u = reference_rng.random(len(states))
        cum = every_pulse_row(states, len(limits), 7, rows)
        assert np.all(cum[:, -1] <= limits[states])
        outcome = (u[:, None] >= cum).sum(axis=1)
        registered = outcome < 6
        want = (registered, np.where(registered, outcome // 2, 0), np.where(registered, outcome % 2, 0), outcome < 7)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        batches.append(np.count_nonzero(u < limits[states]) / len(states))
        return got

    monkeypatch.setattr(session, "detect_batch", checked)
    run_session(THINNING_CONFIGS[name])
    assert batches and all(share < 0.5 for share in batches)


@pytest.mark.parametrize("jitter", [0.2, 0.0], ids=["drift", "steady"])
def test_attacker_sampler_equals_per_pulse_rows(monkeypatch, jitter):
    """Within run_session, the attacker's per-state sampler gives the same
    outcomes, bit for bit, as sampling every pulse's full
    cumulative_outcomes row against the same uniforms.  A lossy apparatus
    makes all seven outcomes occur; without dark counts, no pulse the
    attacker suppressed (vacuum resent) registers at the receiver."""
    lossy = AmzSpec(excess_loss_db=1.0, phase_jitter_rad=jitter)
    dark_free = ApdSpec(dark_per_gate=0.0)
    config = SessionConfig(
        n_pulses=300_000, seed=45, eve=EveSpec(enabled=True, apparatus=lossy),
        bob_amz=AmzSpec(phase_jitter_rad=jitter / 2), apd_d0=dark_free, apd_d1=dark_free,
    )
    batches = []
    attack_batch = eavesdrop.attack_batch

    def checked(states, rows, rng):
        reference_rng = copy.deepcopy(rng)
        outcomes, resent = attack_batch(states, rows, rng)
        u = reference_rng.random(len(states))
        cum = every_pulse_row(states, 4, 6, rows)
        want = (u[:, None] >= cum).sum(axis=1)
        assert np.array_equal(outcomes, want)
        assert np.array_equal(resent, OUTCOME_TO_STATE_INDEX[want])
        batches.append(outcomes)
        return outcomes, resent

    monkeypatch.setattr(eavesdrop, "attack_batch", checked)
    result = run_session(config)
    outcomes = np.concatenate(batches)
    assert len(outcomes) == config.n_pulses and len(np.unique(outcomes)) == 7
    resent = OUTCOME_TO_STATE_INDEX[outcomes]
    assert np.all(resent[result.classifications.pulse_indices] != eavesdrop.VACUUM_INDEX)


class TestEveSessions:
    def test_attack_qber_matches_first_fire_oracle(self):
        cfg = ideal_config(
            n_pulses=2_000_000,
            seed=6021,
            eve=EveSpec(enabled=True),
        )
        result = run_session(cfg)
        s = result.summary
        oracle_qber = drifted_attack_qber(cfg)  # no drift: plain first-fire composition
        for basis, got, count in (
            (Basis.Z, s.true_qber_z, s.conclusive_z),
            (Basis.X, s.true_qber_x, s.conclusive_x),
        ):
            want = oracle_qber[basis]
            sigma = math.sqrt(want * (1 - want) / count)
            assert abs(got - want) <= 4 * sigma
        # weak-pulse value stays close to the single-photon enumeration
        ideal = enumerate_attack_qber(EveSpec(enabled=True))
        assert abs(oracle_qber[Basis.Z] - ideal[Basis.Z]) < 0.002
        assert abs(oracle_qber[Basis.X] - ideal[Basis.X]) < 0.002

    def test_attack_reduces_rate_via_suppression(self):
        # a lossy attacker forwards vacuum for missed pulses: the sifted
        # rate drops relative to the same channel without her
        clean = run_session(ideal_config(n_pulses=500_000, seed=3)).summary
        attacked = run_session(
            ideal_config(
                n_pulses=500_000,
                seed=3,
                eve=EveSpec(enabled=True, apparatus=AmzSpec(excess_loss_db=3.0)),
            )
        ).summary
        assert attacked.conclusive_count < clean.conclusive_count

    def test_eve_with_jitter_runs(self):
        # Drift on all three devices, checked per basis against the exact
        # drift-averaged oracle.  The sigmas are large enough that dropping
        # the transmitter's share of the attacker's leg, or the receiver's
        # own drift, moves the X-basis QBER by more than 5 standard errors.
        cfg = ideal_config(
            n_pulses=1_000_000,
            seed=4242,
            source=SourceSpec(mu=0.5),
            apd_d0=ApdSpec(efficiency=1.0, dark_per_gate=0.0),
            apd_d1=ApdSpec(efficiency=1.0, dark_per_gate=0.0),
            alice_amz=AmzSpec(excess_loss_db=0.0, phase_jitter_rad=0.3),
            eve=EveSpec(
                enabled=True,
                apparatus=AmzSpec(excess_loss_db=0.0, phase_jitter_rad=0.4),
            ),
            bob_amz=AmzSpec(excess_loss_db=0.0, phase_jitter_rad=0.3),
        )
        s = run_session(cfg).summary
        oracle_qber = drifted_attack_qber(cfg)
        z = 4.0  # two-sided miss probability 6e-5 per basis
        for basis, got, count in (
            (Basis.Z, s.true_qber_z, s.conclusive_z),
            (Basis.X, s.true_qber_x, s.conclusive_x),
        ):
            want = oracle_qber[basis]
            assert abs(got - want) <= z * math.sqrt(want * (1 - want) / count)


def _gauss_hermite(sigma: float, nodes: int = 40):
    """Phase offsets and weights averaging over N(0, sigma^2)."""
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    return sigma * x, w / w.sum()


def drifted_attack_qber(cfg: SessionConfig) -> dict[Basis, float]:
    """Oracle: sifted QBER per basis of an intercept-resend session whose
    devices drift, from single-state tables averaged by Gauss-Hermite
    quadrature.  The attacker's leg drifts with the transmitter and
    attacker sigmas combined, the receiver's leg with its own; both legs
    are independent, so each is averaged on its own.  Covers a lossless
    channel and transmitter offset 0."""
    apds = (cfg.apd_d0, cfg.apd_d1)
    bob = cfg.bob_amz
    resent = [canonical_link_state(st) for st in CANONICAL_STATES] + [vacuum_state()]
    bob_rates = []
    for state in resent:
        rates = np.zeros((3, 2))
        for x, w in zip(*_gauss_hermite(bob.phase_jitter_rad)):
            amz = dataclasses.replace(bob, phase_offset_rad=bob.phase_offset_rad + x)
            rates += w * expected_event_rates(bob_transform(state, amz), cfg.source.mu, apds)
        bob_rates.append(rates)
    eve_amz = cfg.eve.apparatus
    sigma_eve = math.hypot(cfg.alice_amz.phase_jitter_rad, eve_amz.phase_jitter_rad)
    per_state = []
    for state in CANONICAL_STATES:
        probs = np.zeros(7)
        for x, w in zip(*_gauss_hermite(sigma_eve)):
            amz = dataclasses.replace(eve_amz, phase_offset_rad=eve_amz.phase_offset_rad + x)
            probs += w * outcome_probabilities(canonical_link_state(state), EveSpec(True, amz))
        per_state.append(sum(p * bob_rates[OUTCOME_TO_STATE_INDEX[o]] for o, p in enumerate(probs)))
    z0, z1, x0, x1 = per_state  # rows S1..S3, columns D0, D1
    qber_z = (z0[2].sum() + z1[0].sum()) / (z0[0].sum() + z0[2].sum() + z1[0].sum() + z1[2].sum())
    qber_x = (x0[1, 0] + x1[1, 1]) / (x0[1].sum() + x1[1].sum())
    return {Basis.Z: float(qber_z), Basis.X: float(qber_x)}


class TestSummarize:
    def test_zero_pulse_session_raises(self):
        with pytest.raises(InsufficientKeyError):
            run_session(SessionConfig(n_pulses=0))

    def test_no_events_session_raises(self):
        cfg = ideal_config(n_pulses=50, source=SourceSpec(mu=0.0))
        with pytest.raises(InsufficientKeyError):
            run_session(cfg)

    def test_dark_fraction_estimate_tracks_truth(self):
        """The estimate n * p_dark / events_registered lies in the band that
        a two-sided Bernstein bound at Z = 5 on events_registered gives
        around its exact expectation."""
        cfg = SessionConfig(n_pulses=2_000_000, seed=11)
        s = run_session(cfg).summary
        apds = (cfg.apd_d0, cfg.apd_d1)
        mu = cfg.source.mu * transmittance(cfg.channel)
        p = np.mean([
            expected_event_rates(bob_transform(canonical_link_state(st), cfg.bob_amz), mu, apds).sum()
            for st in CANONICAL_STATES
        ])
        dark = expected_event_rates(SlotPortDistribution(np.zeros((3, 2)), 1.0), 0.0, apds).sum()
        n, z = cfg.n_pulses, 5.0
        tol = z * z / 6.0 + math.sqrt(z**4 / 36.0 + z * z * n * p * (1.0 - p))
        assert n * dark / (n * p + tol) <= s.dark_fraction_estimate <= n * dark / (n * p - tol)
        assert 0.0 < s.true_qber < 3 * s.dark_fraction_estimate


class TestProfile:
    def test_ideal_profile_matches_tables(self):
        rows = profile_rows(ideal_config())
        assert len(rows) == 4 * 8
        by_key = {(r.state, r.slot, r.port): r.probability for r in rows}
        assert by_key[("Z0", "bin0", "link")] == 1.0
        assert by_key[("X1", "bin1", "link")] == pytest.approx(0.5, abs=1e-12)
        assert by_key[("Z0", "S1", "D0")] == pytest.approx(0.25, abs=1e-12)
        assert by_key[("X0", "S2", "D1")] == pytest.approx(0.5, abs=1e-12)
        assert by_key[("X0", "S2", "D0")] == 0.0

    def test_losses_scale_receiver_rows(self):
        rows = profile_rows(SessionConfig())  # default 2 dB receiver loss
        by_key = {(r.state, r.slot, r.port): r.probability for r in rows}
        assert by_key[("Z0", "S1", "D0")] == pytest.approx(0.25 * 10 ** (-0.2), abs=1e-12)

    def test_sampled_mode_approximates_exact(self):
        cfg = ideal_config(source=SourceSpec(mu=0.2))
        exact = {(r.state, r.slot, r.port): r.probability for r in profile_rows(cfg)}
        sampled = profile_rows(cfg, sampled_pulses=400_000)
        for r in sampled:
            if r.port == "link":
                assert r.probability == exact[(r.state, r.slot, r.port)]
            else:
                assert abs(r.probability - exact[(r.state, r.slot, r.port)]) < 0.01


class TestSweep:
    def test_length_sweep_monotone(self):
        cfg = ideal_config(n_pulses=1_000_000, sample_fraction=0.2)
        results = sweep(cfg, "length_km", [0.0, 25.0, 50.0])
        rates = [s.sifted_rate_per_pulse for _, s in results]
        assert rates[0] > rates[1] > rates[2]

    def test_dark_sweep_qber_monotone(self):
        cfg = dataclasses.replace(SessionConfig(), n_pulses=1_000_000, sample_fraction=0.5)
        results = sweep(cfg, "dark", [1e-5, 3e-4, 3e-3])
        qbers = [s.qber for _, s in results]
        assert qbers[0] < qbers[1] < qbers[2]

    def test_single_value_equals_direct_run(self):
        from timebin_bb84.detection import DOMAIN_SWEEP, RngHandle

        cfg = SessionConfig(n_pulses=100_000, seed=77)
        (value, summary), = sweep(cfg, "mu", [0.15])
        sub_seed = RngHandle(77).child_seed(DOMAIN_SWEEP, 0)
        direct = run_session(
            dataclasses.replace(
                cfg, seed=sub_seed, source=dataclasses.replace(cfg.source, mu=0.15)
            )
        ).summary
        assert value == 0.15
        assert summary == direct

    def test_bad_axis_and_empty_values(self):
        cfg = SessionConfig(n_pulses=1000)
        with pytest.raises(ValueError):
            sweep(cfg, "temperature", [1.0])
        with pytest.raises(ValueError):
            sweep(cfg, "mu", [])


def test_config_file_driven_session(tmp_path):
    from timebin_bb84.config import parse_config

    path = tmp_path / "asym.ini"
    path.write_text(
        """
[session]
n_pulses = 300000
seed = 19
sample_fraction = 0.2

[channel]
length_km = 10

[apd_d0]
efficiency = 0.05

[apd_d1]
efficiency = 0.2
""",
    )
    result = run_session(parse_config(path))
    ev = result.classifications
    assert result.summary.events_registered > 0
    # the X0 state feeds D1 only: with eta_d1 = 4 * eta_d0 the X-conclusive
    # set skews toward bit 0
    x_mask = (result.records.bases[ev.pulse_indices] == 1) & (ev.bases == 1)
    x_bits = result.records.bits[ev.pulse_indices[x_mask]]
    assert np.count_nonzero(x_bits == 0) > np.count_nonzero(x_bits == 1)


def test_transcript_recording():
    config = ideal_config(n_pulses=100_000)
    result = run_session(config)
    _, _, transcript = run_protocol(
        result.records, result.classifications, config.sample_fraction, np.random.default_rng(0)
    )
    kinds = [type(m).__name__ for m in transcript]
    assert kinds == [
        "BasisRequest",
        "BobBasisAnnounce",
        "AliceMatchReply",
        "SampleIndices",
        "SampleBits",
        "QberReport",
    ]

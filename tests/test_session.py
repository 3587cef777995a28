"""End-to-end sessions: correctness, determinism, modes, sweeps, jitter."""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import per_pulse

from timebin_bb84.channel import ChannelSpec, transmittance
from timebin_bb84 import detection, eavesdrop, session
from timebin_bb84.config import ConfigError, SessionConfig
from timebin_bb84.detection import ApdSpec, SourceSpec, expected_event_rates
from timebin_bb84.eavesdrop import EveSpec, enumerate_attack_qber
from timebin_bb84.eavesdrop import OUTCOME_TO_STATE_INDEX
from timebin_bb84.optics import (
    CANONICAL_AMPLITUDES,
    CANONICAL_STATES,
    AmzSpec,
    Basis,
    PhaseSpec,
    SlotPortDistribution,
    bob_transform,
    canonical_link_state,
    extinction_db_to_visibility,
    link_state,
    slot_port_probabilities,
    vacuum_state,
)
from timebin_bb84.protocol import InsufficientKeyError, run_protocol
from timebin_bb84.session import profile_rows, run_session, sweep


def ideal_config(**overrides) -> SessionConfig:
    """Lossless, noiseless variant used by analytic checks."""
    base = dict(
        source=SourceSpec(mu=0.1),
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


def z1_events(classifications) -> int:
    """Events read as (Z, 1): the S3 registrations, the only ones."""
    return int(np.count_nonzero((classifications.bases == 0) & (classifications.bits == 1)))


class TestConventionalMode:
    """The conventional receiver is the two-gate one: S3 is not gated."""

    def test_late_slot_events_dropped_before_sifting(self):
        result = run_session(ideal_config(n_pulses=400_000, gates_per_pulse=2))
        assert result.summary.events_registered == len(result.classifications) > 0
        assert z1_events(result.classifications) == 0

    @pytest.mark.parametrize("gates", [1, 2, 3])
    def test_every_registration_is_an_event(self, gates):
        cfg = SessionConfig(n_pulses=400_000, seed=6, gates_per_pulse=gates,
                            apd_d0=ApdSpec(dark_per_gate=1e-3), apd_d1=ApdSpec(dark_per_gate=1e-3))
        result = run_session(cfg)
        assert result.summary.events_registered == len(result.classifications) > 0

    def test_full_mode_doubles_time_basis_yield(self):
        full = run_session(ideal_config(n_pulses=2_000_000, seed=5))
        conv = run_session(ideal_config(n_pulses=2_000_000, seed=5, gates_per_pulse=2))
        # Without dark counts the candidate bound is the (Z, 0) state's, which
        # has no S3 weight, so both receivers draw the same candidates: the
        # two-gate one registers exactly the full one's S1 and S2 events.
        s3 = z1_events(full.classifications)
        assert conv.summary.events_registered == full.summary.events_registered - s3 > 0
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
            alice_amz=PhaseSpec(phase_offset_rad=0.7),
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
                alice_amz=PhaseSpec(phase_jitter_rad=0.3),
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
        alice_amz=PhaseSpec(phase_jitter_rad=0.1), bob_amz=AmzSpec(phase_jitter_rad=0.3),
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


Z = 5.0  # statistical bands: two-sided Bernstein bound, miss rate < 2 exp(-Z^2/2)


def record_draws(monkeypatch, bounds=None):
    """Record each candidate draw of run_session and the slices of it that
    detect_batch sees: returns (draws, slices), slices[i] being the list
    that the caller's detect_batch wrapper appends draw i's slices to.
    Each draw's bound p goes to ``bounds``."""
    draws, slices = [], []
    draw_candidates = session.draw_candidates

    def drawn(m, p, rng):
        if bounds is not None:
            bounds.append(min(1.0, p))
        draws.append(draw_candidates(m, p, rng))
        slices.append([])
        return draws[-1]

    monkeypatch.setattr(session, "draw_candidates", drawn)
    return draws, slices


def assert_slices_cover_draws(draws, slices):
    """The slices of each draw concatenate exactly to its offsets and
    uniforms, and their sizes add up to its pulses."""
    assert draws and len(slices) == len(draws)
    for batch, parts in zip(draws, slices):
        assert parts and sum(part.size for part in parts) == batch.size
        assert np.array_equal(np.concatenate([part.offsets for part in parts]), batch.offsets)
        assert np.array_equal(np.concatenate([part.u for part in parts]), batch.u)


@pytest.mark.parametrize("name", THINNING_CONFIGS)
def test_thinned_detection_equals_unthinned(monkeypatch, name):
    """Within run_session, detection on the candidates follows the law of
    sampling every pulse: each candidate's uniform lies below p, the bound
    the candidates are drawn with; every row's total lies at or below p;
    and the counts of the six (slot, port) cells and the discard lie
    within the band at Z of the exact law given the candidates' rows, a
    candidate taking outcome j with probability (row increment j) / p."""
    shares = []
    bounds = []
    counts = np.zeros(7)
    want = np.zeros(7)
    var = np.zeros(7)
    draws, slices = record_draws(monkeypatch, bounds)

    def checked(batch, rows):
        rows = list(rows)
        got = detection.detect_batch(batch, rows)
        p = bounds[-1]
        cum = per_pulse.every_pulse_row(rows)
        assert np.all(batch.u < p) and np.all(cum[:, -1] <= p)
        law = per_pulse.row_increments(cum)[:, :7] / p
        want[:] += law.sum(axis=0)
        var[:] += (law * (1.0 - law)).sum(axis=0)
        registered, slot, port, any_click = got
        cells = 2 * slot[registered] + port[registered]
        counts[:] += np.append(np.bincount(cells, minlength=6), np.count_nonzero(any_click & ~registered))
        shares.append(batch.offsets.size / len(batch))
        slices[-1].append(batch)
        return got

    monkeypatch.setattr(session, "detect_batch", checked)
    run_session(THINNING_CONFIGS[name])
    assert_slices_cover_draws(draws, slices)
    assert all(share < 0.5 for share in shares)
    assert np.all(np.abs(counts - want) <= per_pulse.bernstein_tolerance(var, Z)), (counts, want)


@pytest.mark.parametrize("jitter", [0.2, 0.0], ids=["drift", "steady"])
def test_attacker_sampler_equals_per_pulse_rows(monkeypatch, jitter):
    """Within run_session, the attacker's sampler gives the same
    outcomes, bit for bit, as sampling every candidate's full row of
    cumulative outcome probabilities against the same uniforms, and the counts of
    its seven outcomes lie within the band at Z of their exact law.  A
    lossy apparatus makes all seven occur; without dark counts, no
    candidate the attacker suppressed (vacuum resent) registers at the
    receiver.  The attacker sees exactly the detection candidates, slice
    by slice, and the slices cover each draw exactly."""
    lossy = AmzSpec(excess_loss_db=1.0, phase_jitter_rad=jitter)
    dark_free = ApdSpec(dark_per_gate=0.0)
    config = SessionConfig(
        n_pulses=300_000, seed=45, eve=EveSpec(enabled=True, apparatus=lossy),
        bob_amz=AmzSpec(phase_jitter_rad=jitter / 2), apd_d0=dark_free, apd_d1=dark_free,
    )
    batches = []
    resents = []
    candidates = []
    want = np.zeros(7)
    var = np.zeros(7)
    attack_batch = eavesdrop.attack_batch
    draws, slices = record_draws(monkeypatch)

    def attacked(u, rows):
        rows = list(rows)
        outcomes, resent = attack_batch(u, rows)
        cum = per_pulse.every_pulse_row(rows)
        expected = per_pulse.outcomes_every_pulse(u, cum)
        assert np.array_equal(outcomes, expected)
        assert np.array_equal(resent, OUTCOME_TO_STATE_INDEX[expected])
        law = per_pulse.row_increments(cum)
        want[:] += law.sum(axis=0)
        var[:] += (law * (1.0 - law)).sum(axis=0)
        batches.append(outcomes)
        resents.append(resent)
        return outcomes, resent

    def detected(batch, rows):
        got = detection.detect_batch(batch, rows)
        assert not np.any(got[0] & (resents[-1] == eavesdrop.VACUUM_INDEX))
        candidates.append(batch.offsets.size)
        slices[-1].append(batch)
        return got

    monkeypatch.setattr(eavesdrop, "attack_batch", attacked)
    monkeypatch.setattr(session, "detect_batch", detected)
    run_session(config)
    outcomes = np.concatenate(batches)
    assert_slices_cover_draws(draws, slices)
    assert [len(b) for b in batches] == candidates and len(np.unique(outcomes)) == 7
    counts = np.bincount(outcomes, minlength=7)
    assert np.all(np.abs(counts - want) <= per_pulse.bernstein_tolerance(var, Z)), (counts, want)


class TestClickBoundEdges:
    def test_certain_click_makes_every_pulse_a_candidate(self, monkeypatch):
        """At dark_per_gate = 0.999 under receiver drift the click bound
        reaches 1: every pulse is a candidate, with no warning."""
        noisy = ApdSpec(dark_per_gate=0.999)
        vacuum = SlotPortDistribution(np.zeros((3, 2)))
        assert detection.click_bound(vacuum.p, 0.0, (noisy, noisy)) == 1.0
        config = SessionConfig(
            n_pulses=50_000, seed=46, apd_d0=noisy, apd_d1=noisy,
            bob_amz=AmzSpec(phase_jitter_rad=0.1),
        )
        shares = []

        def counted(batch, rows):
            shares.append(batch.offsets.size / len(batch))
            return detection.detect_batch(batch, rows)

        monkeypatch.setattr(session, "detect_batch", counted)
        assert run_session(config).summary.events_registered > 0
        assert shares == [1.0]

    def test_zero_bound_gives_no_candidates(self, monkeypatch):
        """mu = 0 without dark counts: no pulse can click, so no batch has a
        candidate and the session has no key."""
        cfg = ideal_config(n_pulses=2 * session.BATCH_SIZE + 5, source=SourceSpec(mu=0.0))
        sizes = []

        def counted(batch, rows):
            sizes.append(batch.offsets.size)
            return detection.detect_batch(batch, rows)

        monkeypatch.setattr(session, "detect_batch", counted)
        with pytest.raises(InsufficientKeyError):
            run_session(cfg)
        assert sizes == [0, 0, 0]


def test_memory_follows_events_not_pulses():
    """A 1e8-pulse default session's traced allocation peak stays under
    20 MB: the session holds nothing per pulse, only its ~6e5 events, and
    frees its per-slice event lists before sifting (about 17 MB; 25 MB
    while they were kept through the protocol)."""
    tracemalloc.start()
    try:
        run_session(SessionConfig(n_pulses=100_000_000, seed=47))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_dense_link_memory_holds_no_per_candidate_table():
    """A 2^20-pulse session on a dense lossless link (eta 1, mu 0.5, 20 dB
    extinction), where about 39% of pulses are candidates, keeps its
    traced allocation peak under 22 MB: the steady receiver's table rows
    are taken one edge at a time, never as a (7, n) gather (about 52 MB),
    and no per-batch array outlives the batch loop (about 15 MB; 26 MB
    with the batch's arrays and event lists kept through sifting).
    With a drifting receiver or attacker leg the peak stays under 70 MB:
    the drifted rows are built 2^16 candidates at a time (in one call for
    the whole batch, their temporaries reach 117 and 83 MB)."""
    lossless = AmzSpec(excess_loss_db=0.0)
    apd = ApdSpec(efficiency=1.0)
    bob_amz = dataclasses.replace(lossless, visibility=extinction_db_to_visibility(20.0))
    config = SessionConfig(
        n_pulses=session.BATCH_SIZE, seed=48, source=SourceSpec(mu=0.5),
        bob_amz=bob_amz, apd_d0=apd, apd_d1=apd,
    )
    drifting_eve = EveSpec(enabled=True, apparatus=dataclasses.replace(lossless, phase_jitter_rad=0.2))
    cases = {
        "steady": (config, 22),
        "receiver drift": (
            dataclasses.replace(config, bob_amz=dataclasses.replace(bob_amz, phase_jitter_rad=0.1)),
            70,
        ),
        "attacker drift": (dataclasses.replace(config, eve=drifting_eve), 70),
    }
    for name, (case, bound_mb) in cases.items():
        tracemalloc.start()
        try:
            run_session(case)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 2**20, f"{name}: peak {peak / 2**20:.1f} MB"


def drifting_receiver_tables(gates: int = 3):
    """A drifting receiver's inputs as run_session builds them: five
    incoming states (vacuum among them) with unequal detectors, their
    (6, 5) click probabilities and their (7, 5) cumulative edges."""
    bob_amz = AmzSpec(visibility=0.9, excess_loss_db=0.7, phase_offset_rad=0.3, phase_jitter_rad=0.2)
    apds = (ApdSpec(efficiency=0.2, dark_per_gate=1e-3), ApdSpec(efficiency=0.5, dark_per_gate=1e-4))
    prepared = session._prepared_amplitudes(AmzSpec(phase_offset_rad=0.2))
    incoming = 0.8 * np.vstack([prepared, np.zeros(2)])
    weights = np.array(slot_port_probabilities(*incoming.T, bob_amz))
    q_table = detection.cell_click_probabilities(weights, 0.4, apds, gates)
    return bob_amz, apds, incoming, q_table, detection.first_fire_table(q_table)


def drifting_normals(n: int, rng: np.random.Generator) -> tuple[np.ndarray, slice]:
    """A batch's normals and the slice of n of them that a chunk reads: a
    quarter of the chunk 0, so at the leg's offset, the rest uniform on
    |x| <= 5e3."""
    normals = rng.uniform(-5e3, 5e3, n + 9)
    normals[9 : 9 + n // 4] = 0.0
    return normals, slice(9, 9 + n)


# Receiver setups for the tie between the one-call tables and the
# single-state oracle API: the default link, a dense 20 dB-extinction link
# and unequal detectors.
ORACLE_SETUPS = {
    "default": SessionConfig(),
    "extinction_20db": SessionConfig(
        source=SourceSpec(mu=0.5),
        bob_amz=AmzSpec(excess_loss_db=0.0, visibility=extinction_db_to_visibility(20.0)),
        apd_d0=ApdSpec(efficiency=1.0),
        apd_d1=ApdSpec(efficiency=1.0),
    ),
    "unequal_detectors": SessionConfig(
        apd_d0=ApdSpec(efficiency=0.1, dark_per_gate=1e-5),
        apd_d1=ApdSpec(efficiency=0.05, dark_per_gate=1e-4),
    ),
}


@pytest.mark.parametrize("gates", [1, 2, 3])
@pytest.mark.parametrize("setup", ORACLE_SETUPS)
def test_array_tables_equal_the_single_state_oracle(setup, gates):
    """The tables built in one call over the four prepared states (at a
    transmitter offset of 0.3) plus vacuum equal, bit for bit, what the
    single-state API gives state by state: each click-probability column,
    the registration rates, whose running sums are the column's first six
    cumulative edges, and the drift bound, the largest single-state one."""
    cfg = ORACLE_SETUPS[setup]
    apds, mu = (cfg.apd_d0, cfg.apd_d1), cfg.source.mu
    prepared = session._prepared_amplitudes(PhaseSpec(phase_offset_rad=0.3))
    amps = math.sqrt(transmittance(cfg.channel)) * np.vstack([prepared, np.zeros(2)])
    weights = np.array(slot_port_probabilities(*amps.T, cfg.bob_amz))
    q = detection.cell_click_probabilities(weights, mu, apds, gates)
    bounds = []
    for k, (early, late) in enumerate(amps):
        dist = bob_transform(link_state(early, late), cfg.bob_amz)
        assert np.array_equal(q[:, k], detection.cell_click_probabilities(dist.p, mu, apds, gates))
        rates = expected_event_rates(dist, mu, apds, gates)
        assert np.array_equal(np.cumsum(rates), detection.first_fire_table(q[:, k])[:6])
        bounds.append(detection.click_bound(dist.p, mu, apds, gates))
    assert detection.click_bound(weights, mu, apds, gates) == max(bounds)


class TestDriftedRows:
    @staticmethod
    def assert_rows(station, sigma, offset, states, want_rows, cum_table):
        """The drifting rows of ``station`` at sigma equal, bit for bit,
        ``want_rows(phases)``, each candidate's full recompute at its phase;
        at the leg's offset they are the candidates' rows of ``cum_table``,
        the table built independently, and a steady leg gives those rows
        everywhere."""
        normals, chunk = drifting_normals(states.size, np.random.default_rng(states.size))
        rows = station(sigma)[1](states, normals, chunk)
        table_rows = cum_table.take(states, axis=1)
        assert len(rows) == len(cum_table)
        assert np.array_equal(rows, want_rows(offset + sigma * normals[chunk]))
        at_offset = slice(states.size // 4)
        assert np.array_equal(np.array(rows)[:, at_offset], table_rows[:, at_offset])
        assert np.array_equal(list(station(0.0)[1](states, None, chunk)), table_rows)

    @pytest.mark.parametrize("gates", [1, 2, 3])
    def test_receiver_rows_are_the_full_recompute(self, gates):
        """The receiver's recompute runs the optics, click and first-fire
        formulas on every candidate's amplitudes and phase."""
        bob_amz, apds, incoming, q_table, cum_table = drifting_receiver_tables(gates)
        states = np.random.default_rng(3).integers(0, 5, 20_000)
        head_tail = session._receiver(q_table, 0.4, apds)

        def recompute(phases):
            weights = np.array(slot_port_probabilities(*incoming.T.take(states, axis=1), bob_amz, phases))
            return detection.first_fire_table(detection.cell_click_probabilities(weights, 0.4, apds, gates))

        self.assert_rows(lambda sigma: session._station(incoming, bob_amz, sigma, *head_tail),
                         bob_amz.phase_jitter_rad, bob_amz.phase_offset_rad, states, recompute, cum_table)

    def test_attacker_rows_are_the_full_recompute(self):
        """The attacker's recompute is the cumulative edges of her six
        cells at every candidate's amplitudes and phase."""
        eve_amz = AmzSpec(visibility=0.9, excess_loss_db=0.7, phase_offset_rad=0.2, phase_jitter_rad=0.25)
        prepared = session._prepared_amplitudes(AmzSpec(phase_offset_rad=-0.4))
        cells = slot_port_probabilities(*prepared.T, eve_amz)
        cum_table = detection.cumulative_edges([w for row in cells for w in row])
        head_tail = session._attacker(cells)
        states = np.random.default_rng(4).integers(0, 4, 20_000)

        def recompute(phases):
            cells = slot_port_probabilities(*prepared.T.take(states, axis=1), eve_amz, phases)
            return detection.cumulative_edges([w for row in cells for w in row])

        self.assert_rows(lambda sigma: session._station(prepared, eve_amz, sigma, *head_tail),
                         eve_amz.phase_jitter_rad, eve_amz.phase_offset_rad, states, recompute, cum_table)


@pytest.mark.parametrize("bob_drift", [True, False], ids=["bob_drift", "bob_steady"])
@pytest.mark.parametrize("eve_drift", [True, False], ids=["eve_drift", "eve_steady"])
@pytest.mark.parametrize("eve_on", [True, False], ids=["eve_on", "eve_off"])
@pytest.mark.parametrize("gates", [1, 2, 3])
def test_link_equals_the_independent_constructions(gates, eve_on, eve_drift, bob_drift):
    """``_link``'s law equals, bit for bit, the tables built independently
    with unequal detectors: each station's rows at its leg's offset are its
    table (the receiver's the first-fire table of its click probabilities,
    the attacker's the cumulative edges of her six cells), the candidate
    bound is the drift bound under receiver drift and otherwise the largest
    any-click edge, and the dark rate is the vacuum column's sixth edge.
    The transmitter's jitter drifts the attacker's leg, or the receiver's
    when she is off."""
    alice_amz = PhaseSpec(phase_offset_rad=0.3, phase_jitter_rad=0.1 * eve_drift)
    eve_amz = AmzSpec(visibility=0.9, excess_loss_db=0.7, phase_offset_rad=-0.2, phase_jitter_rad=0.25 * eve_drift)
    bob_amz = AmzSpec(visibility=0.95, excess_loss_db=1.5, phase_offset_rad=0.15, phase_jitter_rad=0.2 * bob_drift)
    apds = (ApdSpec(efficiency=0.2, dark_per_gate=1e-3), ApdSpec(efficiency=0.5, dark_per_gate=1e-4))
    cfg = SessionConfig(
        source=SourceSpec(mu=0.4), alice_amz=alice_amz, bob_amz=bob_amz, apd_d0=apds[0], apd_d1=apds[1],
        eve=EveSpec(eve_on, eve_amz), gates_per_pulse=gates,
    )
    eve_rows, sigmas, bob_rows, p, dark = session._link(cfg)

    def at_offset(rows, k):
        return np.array(list(rows(np.arange(k), np.zeros(k), slice(None))))

    prepared = CANONICAL_AMPLITUDES.copy()
    prepared[:, 1] *= np.exp(1j * alice_amz.phase_offset_rad)
    if eve_on:
        cells = slot_port_probabilities(*prepared.T, eve_amz)
        assert np.array_equal(at_offset(eve_rows, 4), detection.cumulative_edges([w for row in cells for w in row]))
        want_sigmas = (math.hypot(alice_amz.phase_jitter_rad, eve_amz.phase_jitter_rad), bob_amz.phase_jitter_rad)
        incoming = CANONICAL_AMPLITUDES
    else:
        assert eve_rows is None
        want_sigmas = (0.0, math.hypot(alice_amz.phase_jitter_rad, bob_amz.phase_jitter_rad))
        incoming = prepared
    assert sigmas == want_sigmas
    arrived = math.sqrt(transmittance(cfg.channel)) * np.vstack([incoming, np.zeros(2)])
    weights = np.array(slot_port_probabilities(*arrived.T, bob_amz))
    table = detection.first_fire_table(detection.cell_click_probabilities(weights, 0.4, apds, gates))
    assert np.array_equal(at_offset(bob_rows, 5), table)
    assert p == (detection.click_bound(weights, 0.4, apds, gates) if want_sigmas[1] > 0.0 else table[-1].max())
    assert dark == table[5, -1]


@pytest.mark.parametrize("drift", [True, False], ids=["drift", "steady"])
def test_slice_size_leaves_the_session_unchanged(monkeypatch, drift):
    """On a dense link with the attacker on, a pass in slices of 1000
    candidates gives the same summary, events and keys, bit for bit, as a
    pass with the whole batch in one slice, on drifting and steady legs."""
    lossless = AmzSpec(excess_loss_db=0.0)
    apd = ApdSpec(efficiency=1.0)
    config = SessionConfig(
        n_pulses=150_000, seed=49, source=SourceSpec(mu=0.5),
        bob_amz=dataclasses.replace(lossless, phase_jitter_rad=0.1 * drift),
        eve=EveSpec(enabled=True, apparatus=dataclasses.replace(lossless, phase_jitter_rad=0.2 * drift)),
        apd_d0=apd, apd_d1=apd,
    )
    calls = []

    def counted(batch, rows):
        calls.append(batch.offsets.size)
        return detection.detect_batch(batch, rows)

    def arrays(result):
        ev, a, b = result.classifications, result.alice_key, result.bob_key
        return [ev.pulse_indices, ev.bases, ev.bits, a.bits, a.source_indices, b.bits, b.source_indices]

    monkeypatch.setattr(session, "detect_batch", counted)
    results = []
    for chunk in (session.BATCH_SIZE, 1000):
        monkeypatch.setattr(session, "_ROW_CHUNK", chunk)
        results.append(run_session(config))
    whole, sliced = results
    assert calls[0] > 50_000 and len(calls) == 1 + math.ceil(calls[0] / 1000)
    assert whole.summary == sliced.summary
    assert all(np.array_equal(x, y) for x, y in zip(arrays(whole), arrays(sliced)))


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
            alice_amz=PhaseSpec(phase_jitter_rad=0.3),
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
        probs = np.zeros(7)  # six outcomes, then none
        for x, w in zip(*_gauss_hermite(sigma_eve)):
            amz = dataclasses.replace(eve_amz, phase_offset_rad=eve_amz.phase_offset_rad + x)
            p = bob_transform(canonical_link_state(state), amz).p.reshape(6)
            probs += w * np.append(p, 1.0 - p.sum())
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
        dark = expected_event_rates(SlotPortDistribution(np.zeros((3, 2))), 0.0, apds).sum()
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
        # At this count the 0.01 band is 4 sigma on the p = 0.5 cells.
        sampled = profile_rows(cfg, sampled_pulses=4_000_000)
        for r in sampled:
            if r.port == "link":
                assert r.probability == exact[(r.state, r.slot, r.port)]
            else:
                assert abs(r.probability - exact[(r.state, r.slot, r.port)]) < 0.01

    def test_sampled_rows_do_not_depend_on_the_gate_count(self):
        """The rows describe the light: the sampled profile gates all three
        slots, so one seed gives the same rows at every gate count."""
        rows = [profile_rows(SessionConfig(seed=5, gates_per_pulse=g), sampled_pulses=10**6) for g in (1, 2, 3)]
        assert rows[0] == rows[1] == rows[2]

    @pytest.mark.parametrize(
        "overrides, zero_ports",
        [({"apd_d0": ApdSpec(efficiency=0.0)}, {"D0"}), ({"source": SourceSpec(mu=0.0)}, {"D0", "D1"})],
        ids=["blind_d0", "vacuum"],
    )
    def test_sampled_rows_read_0_where_no_light_can_click(self, overrides, zero_ports):
        """A port whose clicks carry no light (efficiency 0, or mu = 0)
        reads 0 rather than dividing its inversion by 0; the others still
        estimate their weights."""
        cfg = ideal_config(**overrides)
        exact = {(r.state, r.slot, r.port): r.probability for r in profile_rows(cfg)}
        for r in profile_rows(cfg, sampled_pulses=1_000_000):
            if r.port in zero_ports:
                assert r.probability == 0.0
            elif r.port != "link":
                assert abs(r.probability - exact[(r.state, r.slot, r.port)]) < 0.05


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

    def test_axes_set_their_keys_and_sub_seeds(self, monkeypatch):
        from timebin_bb84.detection import DOMAIN_SWEEP, RngHandle

        seen = []
        monkeypatch.setattr(
            session, "run_session", lambda cfg: seen.append(cfg) or SimpleNamespace(summary=None)
        )
        base = SessionConfig(n_pulses=1000, seed=77)
        assert list(session.SWEEP_AXES) == ["length_km", "mu", "dark"]
        sweep(base, "length_km", [5.0])
        sweep(base, "mu", [0.3])
        sweep(base, "dark", [1e-4, 2e-4])
        assert seen[0].channel.length_km == 5.0
        assert seen[1].source.mu == 0.3 and seen[1].channel == base.channel
        assert [(c.apd_d0.dark_per_gate, c.apd_d1.dark_per_gate) for c in seen[2:]] == [
            (1e-4, 1e-4), (2e-4, 2e-4)
        ]
        root = RngHandle(77)
        assert [c.seed for c in seen] == [root.child_seed(DOMAIN_SWEEP, i) for i in (0, 0, 0, 1)]

    def test_values_are_reported_as_the_floats_set(self, monkeypatch):
        """A point's value is read as ``with_values`` reads it, from a Python,
        numpy or text number, and reported as that float, so sweep.csv reads
        back (a numpy value used to be written as ``np.float64(0.2)``)."""
        monkeypatch.setattr(session, "run_session", lambda cfg: SimpleNamespace(summary=cfg.source.mu))
        results = sweep(SessionConfig(n_pulses=1000), "mu", [np.float64(0.2), 1, "0.3"])
        assert [(type(v), v, mu) for v, mu in results] == [(float, v, v) for v in (0.2, 1.0, 0.3)]

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize(
        "axis, bad, section",
        [("length_km", -1.0, "channel"), ("mu", -1.0, "source"), ("dark", 1.0, "apd_d0")],
    )
    def test_bad_value_anywhere_runs_no_session(self, monkeypatch, position, axis, bad, section):
        calls = []
        monkeypatch.setattr(session, "run_session", calls.append)
        values = [1e-4, 2e-4, 3e-4]
        values[position] = bad
        key = session.SWEEP_AXES[axis][0].partition(".")[2]
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: must lie in "):
            sweep(SessionConfig(n_pulses=1000), axis, values)
        assert calls == []


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
    bits, bases = result.records.choices(ev.pulse_indices)
    x_bits = bits[(bases == 1) & (ev.bases == 1)]
    assert np.count_nonzero(x_bits == 0) > np.count_nonzero(x_bits == 1)


def test_transcript_recording():
    config = ideal_config(n_pulses=100_000)
    result = run_session(config)
    _, _, transcript = run_protocol(
        result.records, result.classifications, config.sample_fraction, np.random.default_rng(0)
    )
    kinds = [type(m).__name__ for m in transcript]
    assert kinds == [
        "BobBasisAnnounce",
        "AliceMatchReply",
        "SampleBits",
        "QberReport",
    ]

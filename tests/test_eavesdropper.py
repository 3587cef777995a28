"""Intercept-resend attack: branch enumeration, sampling and disturbance."""

import math

import numpy as np

import matrix_oracle as oracle
from timebin_bb84 import session
from timebin_bb84.detection import DOMAIN_EVE, RngHandle, cumulative_edges
from timebin_bb84.eavesdrop import (
    OUTCOME_TO_STATE_INDEX,
    VACUUM_INDEX,
    EveSpec,
    attack_batch,
    enumerate_attack_qber,
)
from timebin_bb84.optics import (
    CANONICAL_STATES,
    AmzSpec,
    Basis,
    TimeBinState,
    bob_transform,
    canonical_link_state,
    ideal_amz,
    slot_port_probabilities,
    vacuum_state,
)


def enabled_eve(**amz_kwargs) -> EveSpec:
    base = dict(excess_loss_db=0.0)
    base.update(amz_kwargs)
    return EveSpec(enabled=True, apparatus=AmzSpec(**base))


def outcome_probabilities(state: TimeBinState, spec: EveSpec) -> np.ndarray:
    """(7,) probabilities of the six slot/port outcomes, then of none."""
    p = bob_transform(state, spec.apparatus).p.reshape(6)
    return np.append(p, 1.0 - p.sum())


def attacker_station(amps: np.ndarray, spec: EveSpec, sigma: float):
    """The attacker's (table, rows), as a session builds them, for states ``amps``."""
    cells = slot_port_probabilities(*amps.T, spec.apparatus)
    return session._station(amps, spec.apparatus, sigma, *session._attacker(cells))


def drifting_rows(amps: np.ndarray, spec: EveSpec, sigma: float, states: np.ndarray, normals: np.ndarray):
    """The attacker's rows, as a session builds them, for candidates in
    ``states`` (rows of ``amps``) at phases offset + sigma * ``normals``."""
    return attacker_station(amps, spec, sigma)[1](states, normals, slice(None))


def resend_state(outcome: int) -> TimeBinState:
    """The state the attacker forwards after ``outcome`` (6 is none)."""
    idx = int(OUTCOME_TO_STATE_INDEX[outcome])
    return vacuum_state() if idx == VACUUM_INDEX else canonical_link_state(CANONICAL_STATES[idx])


class TestEnumeration:
    def test_disabled_is_zero(self):
        qber = enumerate_attack_qber(EveSpec(enabled=False))
        assert qber[Basis.Z] == 0.0 and qber[Basis.X] == 0.0

    def test_ideal_quarter_both_bases(self):
        qber = enumerate_attack_qber(enabled_eve())
        assert abs(qber[Basis.Z] - 0.25) < 1e-12
        assert abs(qber[Basis.X] - 0.25) < 1e-12

    def test_matches_independent_tree(self):
        for v in (1.0, 0.7, 0.3, 0.0):
            got = enumerate_attack_qber(enabled_eve(visibility=v))
            ref = oracle.attack_tree_qber(eve_visibility=v)
            assert abs(got[Basis.Z] - ref["Z"]) < 1e-12
            assert abs(got[Basis.X] - ref["X"]) < 1e-12

    def test_matches_independent_tree_non_ideal_pairs(self):
        """Random attacker and receiver visibilities and phase offsets; the
        loss of either device scales every branch and cancels."""
        rng = np.random.default_rng(6061)
        for _ in range(200):
            ev, bv = map(float, rng.random(2))
            ed, bd = map(float, rng.uniform(-math.pi, math.pi, 2))
            eve = enabled_eve(excess_loss_db=float(rng.random() * 3), visibility=ev, phase_offset_rad=ed)
            bob = AmzSpec(excess_loss_db=float(rng.random() * 3), visibility=bv, phase_offset_rad=bd)
            got = enumerate_attack_qber(eve, bob)
            ref = oracle.attack_tree_qber(ev, ed, bv, bd)
            assert abs(got[Basis.Z] - ref["Z"]) < 1e-12
            assert abs(got[Basis.X] - ref["X"]) < 1e-12

    def test_broken_interferometer_raises_x_errors_only(self):
        qber = enumerate_attack_qber(enabled_eve(visibility=0.0))
        assert qber[Basis.X] > 0.25
        assert abs(qber[Basis.Z] - 0.25) < 1e-12

    def test_disturbance_never_below_no_attack(self):
        for v in np.linspace(0.0, 1.0, 11):
            qber = enumerate_attack_qber(enabled_eve(visibility=float(v)))
            assert qber[Basis.Z] >= 0.25 - 1e-12
            assert qber[Basis.X] >= 0.25 - 1e-12


class TestAttackBranches:
    def test_early_state_outcomes(self):
        # an early-bin pulse can reach the attacker's S1 or S2 but never S3
        probs = outcome_probabilities(canonical_link_state(CANONICAL_STATES[0]), enabled_eve())
        assert abs(probs[0] - 0.25) < 1e-12 and abs(probs[1] - 0.25) < 1e-12
        assert probs[4] == 0.0 and probs[5] == 0.0
        assert abs(probs[6]) < 1e-12  # lossless apparatus: always an outcome

    def test_resend_map(self):
        # S1 -> early, S3 -> late, S2 ports -> the two superpositions
        assert OUTCOME_TO_STATE_INDEX.tolist() == [0, 0, 3, 2, 1, 1, 4]
        early = resend_state(0)
        assert abs(early.bins[0, 0] - 1.0) < 1e-12
        vac = resend_state(6)
        assert np.sum(np.abs(vac.bins) ** 2) == 0.0

    def test_correct_edge_outcome_never_errs_downstream(self):
        # attacker catches the early state in S1, resends it: a receiver
        # edge-slot event then always reproduces the sent bit
        forwarded = resend_state(0)
        p = bob_transform(forwarded, ideal_amz()).p
        assert p[2].sum() == 0.0  # no late-slot (wrong bit) mass

    def test_central_outcome_randomises_time_basis(self):
        # attacker catches the early state in (S2, D1), resends the
        # symmetric superposition: receiver edge events split evenly
        forwarded = resend_state(3)
        p = bob_transform(forwarded, ideal_amz()).p
        assert abs(p[0].sum() - p[2].sum()) < 1e-12
        assert abs(p[0].sum() - 0.25) < 1e-12

    def test_lossy_apparatus_yields_vacuum_branch(self):
        spec = enabled_eve(excess_loss_db=3.0)
        probs = outcome_probabilities(canonical_link_state(CANONICAL_STATES[0]), spec)
        assert abs(probs[6] - (1 - 10 ** (-0.3))) < 1e-12

    def test_station_rows_match_outcome_probabilities(self):
        # table rows and per-pulse rows under drift are the running sums of
        # the single-state slot/port table at the pulse's phase
        spec = enabled_eve(excess_loss_db=1.0, visibility=0.8, phase_offset_rad=0.3)
        amps = np.array([canonical_link_state(s).bins[:, 0] for s in CANONICAL_STATES])
        table, _ = attacker_station(amps, spec, 0.7)
        normals = np.array([-1.0, 0.0, 2.5])
        for k, state in enumerate(CANONICAL_STATES):
            link = canonical_link_state(state)
            want = np.cumsum(bob_transform(link, spec.apparatus).p.reshape(6))
            assert np.max(np.abs(table[:, k] - want)) < 1e-15
            rows = drifting_rows(amps, spec, 0.7, np.full(3, k), normals)
            for normal, row in zip(normals, np.transpose(rows)):
                shifted = AmzSpec(excess_loss_db=1.0, visibility=0.8, phase_offset_rad=0.3 + 0.7 * normal)
                want = np.cumsum(bob_transform(link, shifted).p.reshape(6))
                assert np.max(np.abs(row - want)) < 1e-15


class TestDriftedRows:
    def test_bit_identical_to_per_pulse_table(self):
        """Under attacker drift, the session's rows of every pulse's state
        and phase are the rows of the per-state table, bit for bit, and the
        sampler fed them gives the same outcomes as counting that table's
        edges against the same substream."""
        spec = enabled_eve(excess_loss_db=0.7, visibility=0.9, phase_offset_rad=0.2)
        amps = np.array([canonical_link_state(s).bins[:, 0] for s in CANONICAL_STATES])
        amps[:, 1] *= np.exp(0.3j)  # a transmitter phase offset, as in a session
        m = 300_000
        gen = np.random.default_rng(8)
        states = gen.integers(0, 4, size=m).astype(np.intp)
        normals = gen.standard_normal(m)
        phases = 0.2 + 0.25 * normals

        table = np.empty((6, m))
        for k, (early, late) in enumerate(amps):
            mask = states == k
            cells = slot_port_probabilities(early, late, spec.apparatus, phases[mask])
            table[:, mask] = cumulative_edges([w for row in cells for w in row])
        u = RngHandle(5).indexed_stream(DOMAIN_EVE, 0).random(m)
        want = np.zeros(m, dtype=np.uint8)
        for edge in table:
            want += u >= edge

        rows = drifting_rows(amps, spec, 0.25, states, normals)
        assert np.array_equal(rows, table)
        outcomes, resent = attack_batch(u, rows)
        assert np.array_equal(outcomes, want)
        assert np.array_equal(resent, OUTCOME_TO_STATE_INDEX[want])
        assert len(np.unique(outcomes)) == 7


class TestMonteCarloInvariant:
    def sample_session(self, eve_spec, n, seed):
        """Single-photon sampling through the attack and a projective
        receiver measurement; returns per-basis (errors, sifted)."""
        rng = np.random.default_rng(seed)
        states = rng.integers(0, 4, size=n).astype(np.uint8)
        cells = [bob_transform(canonical_link_state(s), eve_spec.apparatus).p.reshape(6) for s in CANONICAL_STATES]
        cum = np.cumsum(cells, axis=1).T
        _, resent = attack_batch(rng.random(n), cum[:, states])
        # receiver: projective sample over the six cells per resent state
        tables = np.stack(
            [bob_transform(canonical_link_state(s), ideal_amz()).p.reshape(6) for s in CANONICAL_STATES]
            + [np.zeros(6)]
        )
        bob_cum = np.cumsum(np.hstack([tables, 1 - tables.sum(1, keepdims=True)]), axis=1)
        u = rng.random(n)
        outcome = np.empty(n, dtype=np.int64)
        for k in range(5):
            mask = resent == k
            outcome[mask] = np.searchsorted(bob_cum[k], u[mask])
        detected = outcome < 6
        slots = outcome[detected] // 2
        ports = outcome[detected] % 2
        meas_basis = (slots == 1).astype(np.uint8)
        meas_bit = np.where(slots == 1, ports == 0, slots == 2).astype(np.uint8)
        alice_basis = (states[detected] // 2).astype(np.uint8)
        alice_bit = (states[detected] % 2).astype(np.uint8)
        sifted = meas_basis == alice_basis
        out = {}
        for code, basis in ((0, Basis.Z), (1, Basis.X)):
            mask = sifted & (meas_basis == code)
            out[basis] = (int(np.count_nonzero(alice_bit[mask] != meas_bit[mask])),
                          int(np.count_nonzero(mask)))
        return out

    def test_attack_monte_carlo_matches_enumeration(self):
        spec = enabled_eve()
        expected = enumerate_attack_qber(spec)
        counts = self.sample_session(spec, n=4_200_000, seed=1234)
        total_sifted = sum(c[1] for c in counts.values())
        assert total_sifted >= 1_000_000
        for basis in (Basis.Z, Basis.X):
            errors, sifted = counts[basis]
            q = expected[basis]
            sigma = math.sqrt(q * (1 - q) / sifted)
            assert abs(errors / sifted - q) <= 4 * sigma

    def test_degraded_attacker_monte_carlo(self):
        spec = enabled_eve(visibility=0.5)
        expected = enumerate_attack_qber(spec)
        counts = self.sample_session(spec, n=1_200_000, seed=77)
        for basis in (Basis.Z, Basis.X):
            errors, sifted = counts[basis]
            q = expected[basis]
            sigma = math.sqrt(q * (1 - q) / sifted)
            assert abs(errors / sifted - q) <= 4 * sigma


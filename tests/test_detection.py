"""Detector model: click statistics, first-fire registration, determinism."""

import math

import numpy as np
import pytest

import matrix_oracle as oracle
from timebin_bb84.detection import (
    DOMAIN_DETECT,
    ApdSpec,
    RngHandle,
    SourceSpec,
    any_click_probability,
    cell_click_probabilities,
    click_bound,
    click_probability,
    detect_batch,
    expected_event_rates,
    first_fire_table,
)
from timebin_bb84.optics import (
    CANONICAL_STATES,
    AmzSpec,
    Slot,
    SlotPortDistribution,
    bob_transform,
    canonical_link_state,
    ideal_amz,
    link_state,
    slot_port_probabilities,
)

Z = 5.0  # statistical bands: two-sided Bernstein bound, miss rate < 2 exp(-Z^2/2)


def ideal_dist(state_idx: int) -> SlotPortDistribution:
    return bob_transform(canonical_link_state(CANONICAL_STATES[state_idx]), ideal_amz())


def dark_only_dist() -> SlotPortDistribution:
    return SlotPortDistribution(np.zeros((3, 2)), 1.0)


def detect_alike(q, n: int, rng: np.random.Generator):
    """The production sampler on n pulses that share the (6,) click
    probabilities ``q``."""
    cum = first_fire_table(q)
    return detect_batch(np.zeros(n, dtype=np.uint8), cum[-1:], lambda k, idx: cum, rng)


# Bernoulli oracle: one uniform per cell, then the first-fire rule applied to
# the click pattern.  It shares no code with the production sampler.


def sample_clicks(qcells: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli click matrix for per-cell probabilities of shape (..., 6)."""
    u = rng.random(np.shape(qcells), dtype=np.float32)
    return u < qcells


def register_first_fire(clicks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First-fire registration of a (..., 6) click matrix: (registered, slot,
    port); a pulse whose earliest firing slot clicks on both ports is
    discarded."""
    c = clicks
    s1 = c[..., 0] | c[..., 1]
    s2 = c[..., 2] | c[..., 3]
    s3 = c[..., 4] | c[..., 5]
    m1 = s1
    m2 = ~s1 & s2
    m3 = ~s1 & ~s2 & s3
    double = (m1 & c[..., 0] & c[..., 1]) | (m2 & c[..., 2] & c[..., 3]) | (
        m3 & c[..., 4] & c[..., 5]
    )
    registered = (s1 | s2 | s3) & ~double
    slot = m2.astype(np.uint8) + 2 * m3.astype(np.uint8)
    port = ((m1 & c[..., 1]) | (m2 & c[..., 3]) | (m3 & c[..., 5])).astype(np.uint8)
    return registered, slot, port


def outcome_counts(registered, slot, port, any_click) -> np.ndarray:
    """Counts of the eight outcomes: six cells (slot-major), discard, none."""
    cells = [np.count_nonzero(registered & (slot == s) & (port == j)) for s in range(3) for j in range(2)]
    return np.array(cells + [np.count_nonzero(any_click & ~registered), np.count_nonzero(~any_click)])


class TestClickProbability:
    def test_no_light_no_dark(self):
        assert click_probability(0.0, 0.0, ApdSpec(dark_per_gate=0.0)) == 0.0

    def test_weak_signal_value(self):
        apd = ApdSpec(efficiency=0.1, dark_per_gate=0.0)
        got = click_probability(0.25, 0.1, apd)
        assert abs(got - (1 - math.exp(-0.0025))) < 1e-15
        assert abs(got - 0.0024969) < 1e-7

    def test_dark_floor(self):
        apd = ApdSpec(dark_per_gate=1e-5)
        assert abs(click_probability(0.0, 0.0, apd) - 1e-5) < 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            click_probability(-0.1, 0.1, ApdSpec())
        with pytest.raises(ValueError):
            click_probability(np.array([0.1, -0.1]), 0.1, ApdSpec())

    def test_array_matches_elementwise(self):
        apd = ApdSpec(efficiency=0.3, dark_per_gate=1e-3)
        p = np.random.default_rng(6).random((4, 5))
        got = click_probability(p, 0.7, apd)
        assert got.shape == p.shape
        for idx in np.ndindex(p.shape):
            assert got[idx] == click_probability(float(p[idx]), 0.7, apd)


class TestExpectedRates:
    def test_small_mu_limit_proportional(self):
        apd = ApdSpec(efficiency=0.3, dark_per_gate=0.0)
        mu = 1e-9
        for k in range(4):
            dist = ideal_dist(k)
            r = expected_event_rates(dist, mu, apd)
            expected = apd.efficiency * mu * dist.p
            nonzero = dist.p > 0
            rel = np.abs(r[nonzero] - expected[nonzero]) / expected[nonzero]
            assert np.max(rel) < 1e-7

    def test_early_bin_example(self):
        apd = ApdSpec(efficiency=0.1, dark_per_gate=0.0)
        r = expected_event_rates(ideal_dist(0), 0.1, apd)
        q = 1 - math.exp(-0.0025)
        assert np.max(np.abs(r[0] - 0.0024969)) < 1e-5
        # central slot additionally shadowed by the early one
        assert abs(r[1, 0] - (1 - q) ** 2 * q * (1 - q)) < 1e-15
        assert np.all(r[2] == 0.0)

    def test_dark_only_any_click(self):
        apd = ApdSpec(dark_per_gate=1e-5)
        p_any = any_click_probability(dark_only_dist(), 0.0, apd)
        assert abs(p_any - (1 - (1 - 1e-5) ** 6)) < 1e-15
        assert abs(p_any - 5.99985e-5) < 1e-9

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(314)
        for _ in range(50):
            p = rng.random((3, 2))
            p *= rng.random() / p.sum()
            dist = SlotPortDistribution(p, 1.0 - p.sum())
            apd = ApdSpec(
                efficiency=float(rng.random()),
                dark_per_gate=float(rng.random() * 0.2),
                gates_per_pulse=3 if rng.random() < 0.7 else 1,
            )
            mu = float(rng.random() * 3)
            q = cell_click_probabilities(dist, mu, apd)
            ref, ref_any = oracle.registration_by_enumeration(q)
            assert np.max(np.abs(expected_event_rates(dist, mu, apd) - ref)) < 1e-12
            assert abs(any_click_probability(dist, mu, apd) - ref_any) < 1e-12

    def test_single_gate_only_central_slot(self):
        apd = ApdSpec(efficiency=0.5, dark_per_gate=1e-3, gates_per_pulse=1)
        r = expected_event_rates(ideal_dist(0), 0.2, apd)
        assert np.all(r[0] == 0.0) and np.all(r[2] == 0.0)
        assert np.all(r[1] > 0.0)

    def test_monotone_in_signal_weak_regime(self):
        # registration of first-slot cells grows with mu, eta and d while
        # per-cell click probabilities stay below 1/2
        base = dict(mu=0.1, eta=0.2, d=1e-4)
        dist = ideal_dist(0)

        def s1_rate(mu, eta, d):
            return expected_event_rates(
                dist, mu, ApdSpec(efficiency=eta, dark_per_gate=d)
            )[0].sum()

        for grid, key in (
            (np.linspace(0.01, 2.0, 30), "mu"),
            (np.linspace(0.01, 1.0, 30), "eta"),
            (np.linspace(0.0, 0.3, 30), "d"),
        ):
            rates = [s1_rate(**{**base, key: float(v)}) for v in grid]
            assert np.all(np.diff(rates) > 0)


class TestGatingCost:
    def test_exact_ratio_formula(self):
        for d in (1e-5, 1e-3, 0.05):
            apd3 = ApdSpec(dark_per_gate=d, gates_per_pulse=3)
            apd1 = ApdSpec(dark_per_gate=d, gates_per_pulse=1)
            p3 = any_click_probability(dark_only_dist(), 0.0, apd3)
            p1 = any_click_probability(dark_only_dist(), 0.0, apd1)
            expected = (1 - (1 - d) ** 6) / (1 - (1 - d) ** 2)
            assert abs(p3 / p1 - expected) < 1e-9 * expected

    def test_ratio_approaches_three(self):
        d = 1e-9
        ratio = (1 - (1 - d) ** 6) / (1 - (1 - d) ** 2)
        apd3 = ApdSpec(dark_per_gate=d, gates_per_pulse=3)
        apd1 = ApdSpec(dark_per_gate=d, gates_per_pulse=1)
        got = any_click_probability(dark_only_dist(), 0.0, apd3) / any_click_probability(
            dark_only_dist(), 0.0, apd1
        )
        assert abs(got - 3.0) < 1e-7 and abs(got - ratio) < 1e-7


class TestDetectPulse:
    def test_no_light_no_dark_never_fires(self):
        apd = ApdSpec(dark_per_gate=0.0)
        q = cell_click_probabilities(ideal_dist(0), 0.0, apd)
        registered, _, _, any_click = detect_alike(q, 1000, np.random.default_rng(1))
        assert not np.any(registered) and not np.any(any_click)

    def test_bright_pulses_register_only_first_slot(self):
        # with the early slot saturating, any surviving single-click event
        # must be in S1: later slots are shadowed by the first-fire rule
        apd = ApdSpec(efficiency=1.0, dark_per_gate=0.0)
        q = cell_click_probabilities(ideal_dist(0), 50.0, apd)
        rng = RngHandle(7).indexed_stream(DOMAIN_DETECT, 0)
        registered, slot, _, _ = detect_alike(q, 10_000_000, rng)
        n_events = int(np.count_nonzero(registered))
        assert n_events > 0
        assert np.all(slot[registered] == 0)

    def test_batch_sampler_matches_rates(self):
        apd = ApdSpec(efficiency=0.2, dark_per_gate=1e-4)
        dist = ideal_dist(2)
        n = 10_000_000
        q = cell_click_probabilities(dist, 0.5, apd)
        rng = RngHandle(99).indexed_stream(DOMAIN_DETECT, 0)
        registered, slot, port, _ = detect_alike(q, n, rng)
        r = expected_event_rates(dist, 0.5, apd)
        for s in range(3):
            for p in range(2):
                got = int(np.count_nonzero(registered & (slot == s) & (port == p)))
                want = n * r[s, p]
                sigma = math.sqrt(n * r[s, p] * (1 - r[s, p]))
                assert abs(got - want) <= 4 * sigma

    def test_dark_uniform_over_cells(self):
        d = 1e-5
        apd = ApdSpec(dark_per_gate=d)
        n = 10_000_000
        q = cell_click_probabilities(dark_only_dist(), 0.0, apd)
        rng = RngHandle(2024).indexed_stream(DOMAIN_DETECT, 0)
        registered, slot, port, any_click = detect_alike(q, n, rng)
        p_any = 1 - (1 - d) ** 6
        got_any = int(np.count_nonzero(any_click))
        assert abs(got_any - n * p_any) <= 3 * math.sqrt(n * p_any * (1 - p_any))
        for s in range(3):
            for p in range(2):
                got = int(np.count_nonzero(registered & (slot == s) & (port == p)))
                want = n * d  # per-cell dark registration, to leading order
                assert abs(got - want) <= 3 * math.sqrt(want) + 1.0

    def test_double_click_discard(self):
        # force both central-slot ports to click always: never registers
        q = np.zeros(6)
        q[2] = q[3] = 1.0
        rng = np.random.default_rng(5)
        registered, _, _, any_click = detect_alike(q, 1000, rng)
        assert not np.any(registered)
        assert np.all(any_click)


SAMPLER_CASES = {
    "asymmetric": (
        ideal_dist(2), 0.5,
        (ApdSpec(efficiency=0.05, dark_per_gate=1e-3), ApdSpec(efficiency=0.4, dark_per_gate=1e-2)),
    ),
    "single_gate": (ideal_dist(0), 2.0, ApdSpec(efficiency=0.5, dark_per_gate=1e-2, gates_per_pulse=1)),
    "high_click": (ideal_dist(0), 4.0, ApdSpec(efficiency=1.0, dark_per_gate=0.05)),
}


class TestFirstFireSampler:
    @pytest.mark.parametrize("case", SAMPLER_CASES)
    def test_matches_bernoulli_oracle_and_exact_law(self, case):
        """Both samplers' counts of all eight outcomes lie within the
        Bernstein band at Z of the law from enumerating click patterns."""
        dist, mu, apd = SAMPLER_CASES[case]
        n = 400_000
        q = cell_click_probabilities(dist, mu, apd)
        reg, p_any = oracle.registration_by_enumeration(q)
        law = np.append(reg.reshape(6), [p_any - reg.sum(), 1.0 - p_any])
        assert np.max(np.abs(np.diff(first_fire_table(q), prepend=0.0) - law[:7])) < 1e-12
        production = outcome_counts(*detect_alike(q, n, np.random.default_rng(11)))
        clicks = sample_clicks(np.broadcast_to(q, (n, 6)), np.random.default_rng(12))
        bernoulli = outcome_counts(*register_first_fire(clicks), clicks.any(axis=-1))
        tol = Z * Z / 6.0 + np.sqrt(Z**4 / 36.0 + Z * Z * n * law * (1.0 - law))
        for counts in (production, bernoulli):
            assert counts.sum() == n
            assert np.all(np.abs(counts - n * law) <= tol), (counts, n * law)
            assert np.all(counts[law == 0.0] == 0)
        if case == "high_click":
            assert law[6] > 0.1  # the discard branch is well populated

    @pytest.mark.parametrize(
        "apds",
        [
            ApdSpec(efficiency=0.1, dark_per_gate=1e-5),
            (ApdSpec(efficiency=0.05, dark_per_gate=1e-3), ApdSpec(efficiency=0.4, dark_per_gate=1e-6)),
            ApdSpec(efficiency=0.9, dark_per_gate=1e-2, gates_per_pulse=1),
        ],
        ids=["equal", "unequal", "single_gate"],
    )
    def test_drift_bound_covers_every_phase(self, apds):
        """The phase-independent bound is at least the any-click total of
        every incoming state at every receiver phase on a dense grid."""
        amz = AmzSpec(visibility=0.95, excess_loss_db=0.5, phase_offset_rad=0.3)
        phases = np.linspace(-np.pi, np.pi, 20_001)
        pair = apds if isinstance(apds, tuple) else (apds, apds)
        states = [canonical_link_state(s).bins[:, 0] for s in CANONICAL_STATES] + [np.zeros(2)]
        for early, late in states:
            for mu in (0.03, 0.5, 5.0):
                bound = click_bound(bob_transform(link_state(early, late), amz), mu, apds)
                cells = np.stack(
                    [np.broadcast_to(c, phases.shape)
                     for row in slot_port_probabilities(early, late, amz, phases) for c in row],
                    axis=-1,
                )
                q = np.zeros_like(cells)
                for j in range(6):
                    q[:, j] = click_probability(cells[:, j], mu, pair[j % 2])
                if pair[0].gates_per_pulse == 1:
                    q[:, [0, 1, 4, 5]] = 0.0
                total = first_fire_table(q)[:, -1]
                assert np.all(total <= bound)
                if not isinstance(apds, tuple):
                    assert bound - total.max() < 1e-11  # tight for equal efficiencies


class TestDeterminism:
    def test_identical_seed_identical_stream(self):
        apd = ApdSpec(efficiency=0.3, dark_per_gate=1e-4)
        q = cell_click_probabilities(ideal_dist(1), 0.3, apd)

        def stream(seed):
            rng = RngHandle(seed).indexed_stream(DOMAIN_DETECT, 0)
            return detect_alike(q, 100_000, rng)

        a = stream(42)
        b = stream(42)
        c = stream(43)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        assert not all(np.array_equal(x, y) for x, y in zip(a, c))

    def test_seed_domain(self):
        with pytest.raises(ValueError):
            RngHandle(-1)
        with pytest.raises(ValueError):
            RngHandle(2**64)


class TestAsymmetricDetectors:
    def test_per_port_efficiency(self):
        lo = ApdSpec(efficiency=0.05, dark_per_gate=0.0)
        hi = ApdSpec(efficiency=0.4, dark_per_gate=0.0)
        dist = ideal_dist(0)
        r = expected_event_rates(dist, 0.2, (lo, hi))
        q0 = 1 - math.exp(-0.05 * 0.2 * 0.25)
        q1 = 1 - math.exp(-0.4 * 0.2 * 0.25)
        assert abs(r[0, 0] - q0 * (1 - q1)) < 1e-15
        assert abs(r[0, 1] - q1 * (1 - q0)) < 1e-15

    def test_per_port_dark(self):
        quiet = ApdSpec(dark_per_gate=0.0)
        noisy = ApdSpec(dark_per_gate=1e-3)
        r = expected_event_rates(dark_only_dist(), 0.0, (quiet, noisy))
        assert np.all(r[:, 0] == 0.0)
        assert np.all(r[:, 1] > 0.0)

    def test_mismatched_gating_rejected(self):
        with pytest.raises(ValueError):
            expected_event_rates(
                dark_only_dist(),
                0.0,
                (ApdSpec(gates_per_pulse=1), ApdSpec(gates_per_pulse=3)),
            )

    def test_pair_in_batch_sampler(self):
        pair = (ApdSpec(efficiency=0.0, dark_per_gate=0.0), ApdSpec(efficiency=1.0, dark_per_gate=0.0))
        q = cell_click_probabilities(ideal_dist(0), 5.0, pair)
        registered, _, port, _ = detect_alike(q, 500, np.random.default_rng(3))
        assert np.any(registered)
        assert np.all(port[registered] == 1)  # the dead detector never clicks


class TestSpecs:
    def test_source_domain(self):
        with pytest.raises(ValueError):
            SourceSpec(mu=-0.1)

    def test_apd_domain(self):
        with pytest.raises(ValueError):
            ApdSpec(efficiency=1.2)
        with pytest.raises(ValueError):
            ApdSpec(dark_per_gate=1.0)
        with pytest.raises(ValueError):
            ApdSpec(gates_per_pulse=2)

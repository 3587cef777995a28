"""Detector model: click statistics, first-fire registration, determinism."""

import math

import numpy as np
import pytest

import matrix_oracle as oracle
import per_pulse
from timebin_bb84.detection import (
    DOMAIN_DETECT,
    ApdSpec,
    RngHandle,
    SourceSpec,
    cell_click_probabilities,
    click_bound,
    click_probability,
    detect_batch,
    draw_candidates,
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
    return SlotPortDistribution(np.zeros((3, 2)))


def any_click_probability(dist: SlotPortDistribution, mu: float, apd: ApdSpec, gates: int = 3) -> float:
    """Probability that at least one of the cells armed by ``gates`` clicks,
    with ``apd`` on both ports: the total of the first-fire table."""
    return float(first_fire_table(cell_click_probabilities(dist, mu, (apd, apd), gates))[-1])


def detect_alike(q, n: int, rng: np.random.Generator):
    """The production sampler on n pulses that share the (6,) click
    probabilities ``q``, its per-candidate results spread over all n
    pulses: (registered, slot, port, any_click)."""
    cum = first_fire_table(q)
    batch = draw_candidates(n, cum[-1], rng)
    got = detect_batch(batch, np.broadcast_to(cum[:, None], (7, batch.offsets.size)))
    spread = tuple(np.zeros(n, dtype=g.dtype) for g in got)
    for whole, part in zip(spread, got):
        whole[batch.offsets] = part
    return spread


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
            r = expected_event_rates(dist, mu, (apd, apd))
            expected = apd.efficiency * mu * dist.p
            nonzero = dist.p > 0
            rel = np.abs(r[nonzero] - expected[nonzero]) / expected[nonzero]
            assert np.max(rel) < 1e-7

    def test_early_bin_example(self):
        apd = ApdSpec(efficiency=0.1, dark_per_gate=0.0)
        r = expected_event_rates(ideal_dist(0), 0.1, (apd, apd))
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
            dist = SlotPortDistribution(p)
            apd = ApdSpec(efficiency=float(rng.random()), dark_per_gate=float(rng.random() * 0.2))
            gates = 3 if rng.random() < 0.7 else 1
            mu = float(rng.random() * 3)
            q = cell_click_probabilities(dist, mu, (apd, apd), gates)
            ref, ref_any = oracle.registration_by_enumeration(q)
            assert np.max(np.abs(expected_event_rates(dist, mu, (apd, apd), gates) - ref)) < 1e-12
            assert abs(any_click_probability(dist, mu, apd, gates) - ref_any) < 1e-12

    def test_single_gate_only_central_slot(self):
        apd = ApdSpec(efficiency=0.5, dark_per_gate=1e-3)
        r = expected_event_rates(ideal_dist(0), 0.2, (apd, apd), gates=1)
        assert np.all(r[0] == 0.0) and np.all(r[2] == 0.0)
        assert np.all(r[1] > 0.0)

    def test_monotone_in_signal_weak_regime(self):
        # registration of first-slot cells grows with mu, eta and d while
        # per-cell click probabilities stay below 1/2
        base = dict(mu=0.1, eta=0.2, d=1e-4)
        dist = ideal_dist(0)

        def s1_rate(mu, eta, d):
            apd = ApdSpec(efficiency=eta, dark_per_gate=d)
            return expected_event_rates(dist, mu, (apd, apd))[0].sum()

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
            apd = ApdSpec(dark_per_gate=d)
            p3 = any_click_probability(dark_only_dist(), 0.0, apd, gates=3)
            p1 = any_click_probability(dark_only_dist(), 0.0, apd, gates=1)
            expected = (1 - (1 - d) ** 6) / (1 - (1 - d) ** 2)
            assert abs(p3 / p1 - expected) < 1e-9 * expected

    def test_ratio_approaches_three(self):
        d = 1e-9
        ratio = (1 - (1 - d) ** 6) / (1 - (1 - d) ** 2)
        apd = ApdSpec(dark_per_gate=d)
        got = any_click_probability(dark_only_dist(), 0.0, apd, gates=3) / any_click_probability(
            dark_only_dist(), 0.0, apd, gates=1
        )
        assert abs(got - 3.0) < 1e-7 and abs(got - ratio) < 1e-7


class TestGateCount:
    @pytest.mark.parametrize("gates", [1, 2, 3])
    def test_bound_covers_the_armed_dark_counts(self, gates):
        """On vacuum the bound is the any-click total of the armed cells, the
        dark counts of ``gates`` slots, to within its 1e-12 rounding margin."""
        apds = (ApdSpec(dark_per_gate=1e-3),) * 2
        total = first_fire_table(cell_click_probabilities(dark_only_dist(), 0.0, apds, gates))[-1]
        bound = click_bound(dark_only_dist(), 0.0, apds, gates)
        assert total <= bound <= total + 1e-12
        assert abs(total - (1.0 - (1.0 - 1e-3) ** (2 * gates))) < 1e-15

    @pytest.mark.parametrize("gates", [0, 4])
    @pytest.mark.parametrize("fn", [cell_click_probabilities, click_bound, expected_event_rates])
    def test_other_gate_counts_refused(self, fn, gates):
        with pytest.raises(ValueError, match="^gates must be 1, 2 or 3, got"):
            fn(dark_only_dist(), 0.0, (ApdSpec(),) * 2, gates)


class TestDetectPulse:
    def test_no_light_no_dark_never_fires(self):
        apd = ApdSpec(dark_per_gate=0.0)
        q = cell_click_probabilities(ideal_dist(0), 0.0, (apd, apd))
        registered, _, _, any_click = detect_alike(q, 1000, np.random.default_rng(1))
        assert not np.any(registered) and not np.any(any_click)

    def test_bright_pulses_register_only_first_slot(self):
        # with the early slot saturating, any surviving single-click event
        # must be in S1: later slots are shadowed by the first-fire rule
        apd = ApdSpec(efficiency=1.0, dark_per_gate=0.0)
        q = cell_click_probabilities(ideal_dist(0), 50.0, (apd, apd))
        rng = RngHandle(7).indexed_stream(DOMAIN_DETECT, 0)
        registered, slot, _, _ = detect_alike(q, 10_000_000, rng)
        n_events = int(np.count_nonzero(registered))
        assert n_events > 0
        assert np.all(slot[registered] == 0)

    def test_batch_sampler_matches_rates(self):
        apd = ApdSpec(efficiency=0.2, dark_per_gate=1e-4)
        dist = ideal_dist(2)
        n = 10_000_000
        q = cell_click_probabilities(dist, 0.5, (apd, apd))
        rng = RngHandle(99).indexed_stream(DOMAIN_DETECT, 0)
        registered, slot, port, _ = detect_alike(q, n, rng)
        r = expected_event_rates(dist, 0.5, (apd, apd))
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
        q = cell_click_probabilities(dark_only_dist(), 0.0, (apd, apd))
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


# (incoming distribution, mu, (D0, D1) detectors, gates per pulse)
SAMPLER_CASES = {
    "asymmetric": (
        ideal_dist(2), 0.5,
        (ApdSpec(efficiency=0.05, dark_per_gate=1e-3), ApdSpec(efficiency=0.4, dark_per_gate=1e-2)), 3,
    ),
    "single_gate": (ideal_dist(0), 2.0, (ApdSpec(efficiency=0.5, dark_per_gate=1e-2),) * 2, 1),
    "two_gate": (ideal_dist(1), 2.0, (ApdSpec(efficiency=0.5, dark_per_gate=1e-2),) * 2, 2),
    "high_click": (ideal_dist(0), 4.0, (ApdSpec(efficiency=1.0, dark_per_gate=0.05),) * 2, 3),
}


class TestFirstFireSampler:
    @pytest.mark.parametrize("case", SAMPLER_CASES)
    def test_matches_bernoulli_oracle_and_exact_law(self, case):
        """Both samplers' counts of all eight outcomes lie within the
        Bernstein band at Z of the law from enumerating click patterns."""
        dist, mu, apds, gates = SAMPLER_CASES[case]
        n = 400_000
        q = cell_click_probabilities(dist, mu, apds, gates)
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

    def test_table_is_the_per_row_closed_form_bit_for_bit(self):
        """Edge-major rows of random click probabilities, with cells at
        exactly 0 and 1 among them, equal the per-row closed form in
        Python floats, every edge the same number."""
        rng = np.random.default_rng(21)
        q = rng.random((6, 3000))
        q[rng.random(q.shape) < 0.15] = 0.0
        q[rng.random(q.shape) < 0.15] = 1.0
        q[:, :500] *= 1e-4  # small probabilities, where rounding matters most
        table = first_fire_table(q)
        assert table.shape == (7, 3000) and table.flags.c_contiguous
        want = np.array([per_pulse.first_fire_row(row) for row in q.T]).T
        assert np.array_equal(table, want)
        assert np.array_equal(first_fire_table(q[:, 7]), want[:, 7])  # one (6,) row

    @pytest.mark.parametrize(
        "apds, gates",
        [
            ((ApdSpec(efficiency=0.1, dark_per_gate=1e-5),) * 2, 3),
            ((ApdSpec(efficiency=0.05, dark_per_gate=1e-3), ApdSpec(efficiency=0.4, dark_per_gate=1e-6)), 3),
            ((ApdSpec(efficiency=0.9, dark_per_gate=1e-2),) * 2, 1),
            ((ApdSpec(efficiency=0.3, dark_per_gate=1e-2),) * 2, 2),
        ],
        ids=["equal", "unequal", "single_gate", "two_gate"],
    )
    def test_drift_bound_covers_every_phase(self, apds, gates):
        """The phase-independent bound is at least the any-click total of
        every incoming state at every receiver phase on a dense grid."""
        amz = AmzSpec(visibility=0.95, excess_loss_db=0.5, phase_offset_rad=0.3)
        phases = np.linspace(-np.pi, np.pi, 20_001)
        states = [canonical_link_state(s).bins[:, 0] for s in CANONICAL_STATES] + [np.zeros(2)]
        for early, late in states:
            for mu in (0.03, 0.5, 5.0):
                bound = click_bound(bob_transform(link_state(early, late), amz), mu, apds, gates)
                cells = np.stack(
                    [np.broadcast_to(c, phases.shape)
                     for row in slot_port_probabilities(early, late, amz, phases) for c in row]
                )
                q = np.zeros_like(cells)
                for j in range(6):
                    q[j] = click_probability(cells[j], mu, apds[j % 2])
                q[{3: [], 2: [4, 5], 1: [0, 1, 4, 5]}[gates]] = 0.0  # ungated cells
                total = first_fire_table(q)[-1]
                assert np.all(total <= bound)
                if apds[0] == apds[1]:
                    assert bound - total.max() < 1e-11  # tight for equal efficiencies


def drifted_rows(early, late, amz: AmzSpec, phases: np.ndarray, mu: float, apds) -> np.ndarray:
    """(7, len(phases)) edge-major first-fire rows of one incoming state at
    receiver phases ``phases``, every cell recomputed from the optics."""
    cells = [np.broadcast_to(c, phases.shape) for row in slot_port_probabilities(early, late, amz, phases) for c in row]
    q = np.stack([click_probability(c, mu, apds[j % 2]) for j, c in enumerate(cells)])
    return first_fire_table(q)


class TestCandidates:
    @pytest.mark.parametrize("p", [0.0066, 0.39])
    def test_count_and_gap_law(self, p):
        """A batch's candidate count is Binomial(m, p) and its gaps are
        geometric: the share of gaps of 1 is p."""
        m = 1 << 20
        batch = draw_candidates(m, p, RngHandle(8).indexed_stream(DOMAIN_DETECT, 0))
        k = batch.offsets.size
        assert len(batch) == m and batch.u.size == k
        assert np.all(np.diff(batch.offsets) > 0) and 0 <= batch.offsets[0] and batch.offsets[-1] < m
        assert np.all((0.0 <= batch.u) & (batch.u < p))
        assert abs(k - m * p) <= per_pulse.bernstein_tolerance(m * p * (1 - p), Z)
        ones = np.count_nonzero(np.diff(batch.offsets, prepend=-1) == 1)
        assert abs(ones - k * p) <= per_pulse.bernstein_tolerance(k * p * (1 - p), Z)
        # Given u < p, u / p is uniform: its mean is 1/2 within the band.
        assert abs(batch.u.sum() / p - k / 2) <= per_pulse.bernstein_tolerance(k / 12, Z)

    def test_bounds_at_the_edges(self):
        rng = np.random.default_rng(4)
        assert draw_candidates(1000, 0.0, rng).offsets.size == 0
        assert draw_candidates(1000, 1e-310, rng).offsets.size == 0  # no overflow warning
        for p in (1.0, 1.0 + 1e-12):
            batch = draw_candidates(1000, p, rng)
            assert np.array_equal(batch.offsets, np.arange(1000)) and np.all(batch.u < 1.0)

    @pytest.mark.parametrize("sigma", [0.3, 0.0], ids=["drift", "steady"])
    def test_candidates_follow_the_per_pulse_law(self, sigma):
        """Counts of all eight outcomes from the candidates, and from the
        per-pulse sampler on every pulse, both lie within the band at Z of
        the exact per-pulse law.  Five incoming states with unequal limits
        (vacuum among them) leave candidates at or above their own row's
        total, which must come out as no click; under drift every pulse
        has its own row."""
        m = 300_000
        amz = AmzSpec(visibility=0.95, excess_loss_db=0.5, phase_offset_rad=0.3)
        apds = (ApdSpec(efficiency=0.3, dark_per_gate=1e-3), ApdSpec(efficiency=0.6, dark_per_gate=1e-2))
        mu = 0.4
        amps = [canonical_link_state(s).bins[:, 0] for s in CANONICAL_STATES] + [np.zeros(2)]
        rng = np.random.default_rng(17)
        states = rng.integers(0, 5, m).astype(np.uint8)
        phases = amz.phase_offset_rad + sigma * rng.standard_normal(m)
        flat = AmzSpec(visibility=0.95, excess_loss_db=0.5)
        cum = np.zeros((m, 7))
        for k, (early, late) in enumerate(amps):
            cum[states == k] = drifted_rows(early, late, flat, phases[states == k], mu, apds).T
        if sigma > 0.0:
            limits = np.array([click_bound(bob_transform(link_state(*a), amz), mu, apds) for a in amps])
        else:
            limits = np.array([cum[states == k][0, -1] for k in range(5)])
        assert np.all(cum[:, -1] <= limits[states])
        law = per_pulse.row_increments(cum)
        want = law.sum(axis=0)
        tol = per_pulse.bernstein_tolerance((law * (1.0 - law)).sum(axis=0), Z)

        batch = draw_candidates(m, limits.max(), np.random.default_rng(18))
        assert not np.all(batch.u < limits[states[batch.offsets]])  # some cannot click
        registered, slot, port, any_click = detect_batch(batch, cum[batch.offsets].T)
        production = outcome_counts(registered, slot, port, any_click)
        production[7] += m - batch.offsets.size
        every = np.bincount(per_pulse.detect_every_pulse(cum, np.random.default_rng(19)), minlength=8)
        for counts in (production, every):
            assert counts.sum() == m
            assert np.all(np.abs(counts - want) <= tol), (counts, want)


class TestDeterminism:
    def test_identical_seed_identical_stream(self):
        apd = ApdSpec(efficiency=0.3, dark_per_gate=1e-4)
        q = cell_click_probabilities(ideal_dist(1), 0.3, (apd, apd))

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

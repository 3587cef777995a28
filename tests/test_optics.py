"""Interferometer model against the independent matrix-network oracle."""

import cmath
import math

import numpy as np
import pytest

import matrix_oracle as oracle
from timebin_bb84.optics import (
    CANONICAL_STATES,
    AmzSpec,
    Basis,
    CanonicalState,
    Port,
    Slot,
    TimeBinState,
    alice_device_state,
    apply_coupler,
    bob_transform,
    calibrate_pm,
    canonical_link_state,
    extinction_db_to_visibility,
    ideal_amz,
    link_state,
    slot_port_probabilities,
    variable_coupler,
    visibility_to_extinction_db,
)

TOL = 1e-12


def matrix_apply(a, b, t):
    return tuple(oracle.coupler_matrix(t) @ np.array([a, b]))


class TestApplyCoupler:
    def test_balanced_basis_input(self):
        out = apply_coupler(1.0, 0.0, 0.5)
        assert cmath.isclose(out[0], 1 / math.sqrt(2), abs_tol=TOL)
        assert cmath.isclose(out[1], 1j / math.sqrt(2), abs_tol=TOL)

    def test_bar_state_identity(self):
        out = apply_coupler(0.0, 1.0, 1.0)
        assert out == (0.0, 1.0)

    def test_interference_closes_one_port(self):
        a, b = 1 / math.sqrt(2), 1j / math.sqrt(2)
        out = apply_coupler(a, b, 0.5)
        expected = matrix_apply(a, b, 0.5)
        assert cmath.isclose(out[0], expected[0], abs_tol=TOL)
        assert cmath.isclose(out[1], expected[1], abs_tol=TOL)
        assert abs(out[0]) < TOL and cmath.isclose(out[1], 1j, abs_tol=TOL)

    @pytest.mark.parametrize("t", [-0.1, 1.1, 2.0])
    def test_transmittance_domain(self, t):
        with pytest.raises(ValueError):
            apply_coupler(1.0, 0.0, t)

    def test_unitarity_random_inputs(self):
        rng = np.random.default_rng(20240917)
        for _ in range(10_000):
            a = complex(rng.normal(), rng.normal())
            b = complex(rng.normal(), rng.normal())
            t = rng.random()
            out_a, out_b = apply_coupler(a, b, t)
            before = abs(a) ** 2 + abs(b) ** 2
            after = abs(out_a) ** 2 + abs(out_b) ** 2
            assert abs(before - after) < 1e-12 * max(1.0, before)


class TestVariableCoupler:
    @pytest.mark.parametrize(
        "phi,expected",
        [
            (-math.pi / 2, (1.0, 0.0)),
            (+math.pi / 2, (0.0, 1j)),
            (0.0, ((1 + 1j) / 2, (1 + 1j) / 2)),
        ],
    )
    def test_steering(self, phi, expected):
        out = variable_coupler(phi)
        # oracle: Y-branch, phase on second arm, balanced coupler
        ref = matrix_apply(1 / math.sqrt(2), cmath.exp(1j * phi) / math.sqrt(2), 0.5)
        for got, want, ref_val in zip(out, expected, ref):
            assert cmath.isclose(got, want, abs_tol=TOL)
            assert cmath.isclose(got, ref_val, abs_tol=TOL)

    def test_always_unit_norm(self):
        for phi in np.linspace(-math.pi, math.pi, 41):
            a, b = variable_coupler(phi)
            assert abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) < TOL

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            variable_coupler(math.nan)


def _solve_phase_for_zero_long_arm() -> float:
    """Oracle: scan+refine the modulator phase nulling the long arm."""
    phis = np.linspace(-math.pi, math.pi, 100_001)
    mags = [abs(variable_coupler(p)[1]) for p in phis]
    return float(phis[int(np.argmin(mags))])


class TestCalibration:
    def test_z0_phase_nulls_long_arm(self):
        assert abs(calibrate_pm()[CanonicalState(Basis.Z, 0)] - _solve_phase_for_zero_long_arm()) < 1e-4

    def test_z1_phase_nulls_short_arm(self):
        phi = calibrate_pm()[CanonicalState(Basis.Z, 1)]
        assert abs(variable_coupler(phi)[0]) < TOL

    @pytest.mark.parametrize("state", CANONICAL_STATES)
    def test_device_state_fidelity(self, state):
        target = canonical_link_state(state).bins[:, 0]
        device = alice_device_state(state).bins[:, 0]
        norm = np.linalg.norm(device)
        fidelity = abs(np.vdot(target, device / norm)) ** 2
        assert abs(fidelity - 1.0) < TOL


class TestAlicePrepare:
    def test_z0_is_early_bin(self):
        state = canonical_link_state(CanonicalState(Basis.Z, 0))
        assert abs(state.bins[0, 0] - 1.0) < TOL
        assert abs(state.bins[1, 0]) < TOL

    def test_x1_is_antisymmetric_superposition(self):
        state = canonical_link_state(CanonicalState(Basis.X, 1))
        r = 1 / math.sqrt(2)
        assert cmath.isclose(state.bins[0, 0], r, abs_tol=TOL)
        assert cmath.isclose(state.bins[1, 0], -r, abs_tol=TOL)

    def test_default_transmittance(self):
        # the final coupler's monitor port takes half, excess loss the rest
        t = alice_device_state(CanonicalState(Basis.Z, 0)).total_probability()
        assert abs(t - 0.5 * 10 ** (-0.2)) < TOL
        assert abs(t - 0.3155) < 1e-4

    @pytest.mark.parametrize("state", CANONICAL_STATES)
    def test_device_norm_equals_transmittance(self, state):
        spec = AmzSpec(excess_loss_db=1.3)
        t = 0.5 * spec.excess_transmittance
        assert abs(alice_device_state(state, spec).total_probability() - t) < TOL


EXPECTED_TABLES = {
    "Z0": [[0.25, 0.25], [0.25, 0.25], [0.0, 0.0]],
    "Z1": [[0.0, 0.0], [0.25, 0.25], [0.25, 0.25]],
    "X0": [[0.125, 0.125], [0.0, 0.5], [0.125, 0.125]],
    "X1": [[0.125, 0.125], [0.5, 0.0], [0.125, 0.125]],
}


class TestBobTransform:
    @pytest.mark.parametrize("state", CANONICAL_STATES)
    def test_four_state_tables_vs_oracle(self, state):
        dist = bob_transform(canonical_link_state(state), ideal_amz())
        ref = oracle.receiver_table(oracle.CANONICAL_BINS[state.label()])
        assert np.max(np.abs(dist.p - ref)) < TOL
        assert np.max(np.abs(dist.p - EXPECTED_TABLES[state.label()])) < TOL
        assert abs(dist.p_lost) < TOL

    def test_orthogonality_edges(self):
        early = bob_transform(canonical_link_state(CANONICAL_STATES[0]), ideal_amz())
        late = bob_transform(canonical_link_state(CANONICAL_STATES[1]), ideal_amz())
        assert early.p[Slot.S3].sum() == 0.0
        assert late.p[Slot.S1].sum() == 0.0

    def test_x_state_port_exclusivity(self):
        plus = bob_transform(canonical_link_state(CANONICAL_STATES[2]), ideal_amz())
        minus = bob_transform(canonical_link_state(CANONICAL_STATES[3]), ideal_amz())
        assert plus.p[Slot.S2, Port.D0] == 0.0
        assert minus.p[Slot.S2, Port.D1] == 0.0

    def test_excess_loss_goes_to_p_lost(self):
        spec = AmzSpec(excess_loss_db=2.0)
        dist = bob_transform(canonical_link_state(CANONICAL_STATES[0]), spec)
        assert abs(dist.p.sum() - 10 ** (-0.2)) < TOL
        assert abs(dist.p.sum() + dist.p_lost - 1.0) < TOL

    def test_structural_errors(self):
        three_bins = TimeBinState(np.zeros((3, 1), complex))
        with pytest.raises(ValueError):
            bob_transform(three_bins, ideal_amz())
        two_ports = TimeBinState(np.zeros((2, 2), complex))
        with pytest.raises(ValueError):
            bob_transform(two_ports, ideal_amz())

    def test_probability_bookkeeping_random_states(self):
        rng = np.random.default_rng(8811)
        for _ in range(10_000):
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            norm = np.linalg.norm(amps)
            amps *= rng.random() / norm  # arbitrary total probability <= 1
            spec = AmzSpec(
                excess_loss_db=float(rng.random() * 5),
                phase_offset_rad=float(rng.uniform(-math.pi, math.pi)),
                visibility=float(rng.random()),
            )
            dist = bob_transform(link_state(*amps), spec)
            assert abs(dist.p.sum() + dist.p_lost - 1.0) < 1e-12
            assert np.all(dist.p >= 0.0)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(4242)
        for _ in range(10_000):
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            amps /= np.linalg.norm(amps) * (1 + rng.random())
            spec = AmzSpec(
                excess_loss_db=float(rng.random() * 3),
                phase_offset_rad=float(rng.uniform(-math.pi, math.pi)),
                visibility=float(rng.random()),
            )
            theta = rng.uniform(0, 2 * math.pi)
            base = bob_transform(link_state(*amps), spec)
            rotated = bob_transform(link_state(*(amps * cmath.exp(1j * theta))), spec)
            assert np.max(np.abs(base.p - rotated.p)) < 1e-12

    def test_visibility_law_port_split(self):
        v = 0.9802
        for state, major_port in ((CANONICAL_STATES[2], Port.D1), (CANONICAL_STATES[3], Port.D0)):
            for delta in (0.0, 0.3, -1.1):
                spec = AmzSpec(excess_loss_db=0.0, visibility=v, phase_offset_rad=delta)
                dist = bob_transform(canonical_link_state(state), spec)
                want_major = (1 + v * math.cos(delta)) / 4
                want_minor = (1 - v * math.cos(delta)) / 4
                assert abs(dist.p[Slot.S2, major_port] - want_major) < TOL
                assert abs(dist.p[Slot.S2, Port(1 - major_port)] - want_minor) < TOL

    def test_phase_derivative_finite_difference(self):
        rng = np.random.default_rng(99)
        v = 0.77
        state = canonical_link_state(CANONICAL_STATES[2])
        h = 1e-6
        for delta in rng.uniform(-math.pi, math.pi, size=5):
            def s2d0(d):
                spec = AmzSpec(excess_loss_db=0.0, visibility=v, phase_offset_rad=float(d))
                return bob_transform(state, spec).p[Slot.S2, Port.D0]

            numeric = (s2d0(delta + h) - s2d0(delta - h)) / (2 * h)
            analytic = v * math.sin(delta) / 4.0
            assert abs(numeric - analytic) < 1e-6

    def test_per_pulse_arrays_match_oracle(self):
        # one call over arrays of amplitudes and phases equals the matrix
        # network evaluated pulse by pulse
        rng = np.random.default_rng(2718)
        n = 200
        amps = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        phases = rng.uniform(-math.pi, math.pi, n)
        spec = AmzSpec(excess_loss_db=0.7, visibility=0.9)
        table = np.array(slot_port_probabilities(amps[:, 0], amps[:, 1], spec, phases))
        assert table.shape == (3, 2, n)
        for i in range(n):
            ref = oracle.receiver_table(amps[i], visibility=0.9, delta=phases[i], loss=spec.excess_transmittance)
            assert np.max(np.abs(table[:, :, i] - ref)) < TOL


class TestExtinction:
    def test_no_interference_is_zero_db(self):
        assert visibility_to_extinction_db(0.0) == 0.0

    def test_twenty_db_point(self):
        assert abs(visibility_to_extinction_db(0.9802) - 20.0) < 0.01

    def test_round_trip(self):
        for v in np.linspace(0.0, 0.999999, 50):
            db = visibility_to_extinction_db(float(v))
            assert abs(extinction_db_to_visibility(db) - v) < 1e-12

    def test_perfect_visibility_signals_infinity(self):
        assert visibility_to_extinction_db(1.0) == math.inf
        assert extinction_db_to_visibility(math.inf) == 1.0

    @pytest.mark.parametrize("v", [-0.2, 1.2])
    def test_domain(self, v):
        with pytest.raises(ValueError):
            visibility_to_extinction_db(v)


class TestTypes:
    def test_state_norm_guard(self):
        with pytest.raises(ValueError):
            link_state(1.0, 1.0)  # total probability 2

    def test_state_shape_guard(self):
        with pytest.raises(ValueError):
            TimeBinState(np.zeros(4, complex))

    def test_distribution_guards(self):
        from timebin_bb84.optics import SlotPortDistribution

        with pytest.raises(ValueError):
            SlotPortDistribution(np.full((3, 2), 0.2), 0.5)  # sums to 1.7
        with pytest.raises(ValueError):
            SlotPortDistribution(np.full((2, 2), 0.1), 0.6)

    def test_amz_spec_guards(self):
        with pytest.raises(ValueError):
            AmzSpec(visibility=1.5)
        with pytest.raises(ValueError):
            AmzSpec(excess_loss_db=-1.0)

    def test_canonical_state_guard(self):
        with pytest.raises(ValueError):
            CanonicalState(Basis.Z, 2)

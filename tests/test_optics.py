"""Interferometer model against the independent matrix-network oracle."""

import cmath
import math

import numpy as np
import pytest

import matrix_oracle as oracle
from timebin_bb84.optics import (
    CANONICAL_STATES,
    CELL_STATE,
    PM_PHASES,
    AmzSpec,
    Basis,
    CanonicalState,
    PhaseSpec,
    Port,
    Slot,
    TimeBinState,
    alice_device_amplitudes,
    apply_coupler,
    bob_transform,
    canonical_link_state,
    extinction_db_to_visibility,
    ideal_amz,
    link_state,
    slot_port_probabilities,
    visibility_to_extinction_db,
)
from timebin_bb84.config import SessionConfig
from timebin_bb84.session import _prepared_amplitudes

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


def device_by_network(phi, offset=0.0):
    """Oracle: the transmitter as 2x2 matrix products.  Y-branch, phase on the
    second arm and balanced coupler make the (short, long) arms; the long arm
    takes the tuned -pi/2 plus the offset; each arm enters the output coupler
    alone, in its own time bin."""
    c = oracle.coupler_matrix(0.5)
    short, long_ = c @ np.array([1.0, np.exp(1j * phi)]) / math.sqrt(2)
    long_ *= np.exp(1j * (offset - math.pi / 2))
    return (c @ np.array([short, 0.0]))[0], (c @ np.array([0.0, long_]))[0]


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
        # ``expected`` are the (short, long) arm amplitudes; the output
        # coupler passes half of each arm's power into its bin
        out = alice_device_amplitudes(phi)
        for got, want, ref_val in zip(out, expected, device_by_network(phi)):
            assert cmath.isclose(got * math.sqrt(2), want, abs_tol=TOL)
            assert cmath.isclose(got, ref_val, abs_tol=TOL)

    def test_half_power_at_every_phase_and_offset(self):
        phis = np.linspace(-math.pi, math.pi, 41)
        for offset in (0.0, 0.7, -2.9):
            early, late = alice_device_amplitudes(phis, PhaseSpec(phase_offset_rad=offset))
            assert np.max(np.abs(np.abs(early) ** 2 + np.abs(late) ** 2 - 0.5)) < TOL

    def test_non_finite_rejected(self):
        for phi in (math.nan, math.inf, [0.0, -math.inf]):
            with pytest.raises(ValueError, match="phi must be finite"):
                alice_device_amplitudes(phi)


def _solve_phase_for_zero_long_arm() -> float:
    """Oracle: scan the modulator phase nulling the late bin (the long arm)."""
    phis = np.linspace(-math.pi, math.pi, 100_001)
    return float(phis[int(np.argmin(np.abs(alice_device_amplitudes(phis)[1])))])


class TestCalibration:
    def test_z0_phase_nulls_long_arm(self):
        assert abs(PM_PHASES[0] - _solve_phase_for_zero_long_arm()) < 1e-4

    def test_z1_phase_nulls_short_arm(self):
        assert abs(alice_device_amplitudes(PM_PHASES[1])[0]) < TOL

    @pytest.mark.parametrize("state", CANONICAL_STATES)
    def test_device_state_fidelity(self, state):
        target = canonical_link_state(state).bins[:, 0]
        device = np.array(alice_device_amplitudes(PM_PHASES[CANONICAL_STATES.index(state)]))
        norm = np.linalg.norm(device)
        fidelity = abs(np.vdot(target, device / norm)) ** 2
        assert abs(fidelity - 1.0) < TOL

    def test_one_call_is_the_per_state_calls(self):
        spec = PhaseSpec(phase_offset_rad=0.3)
        together = np.array(alice_device_amplitudes(PM_PHASES, spec))
        for k, phi in enumerate(PM_PHASES):
            assert np.array_equal(together[:, k], alice_device_amplitudes(phi, spec))


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
        # the final coupler's monitor port takes half; the device's own loss
        # is not modelled, since the attenuator after it fixes mu
        early, late = alice_device_amplitudes(PM_PHASES[0])
        assert abs(abs(early) ** 2 + abs(late) ** 2 - 0.5) < TOL

    @pytest.mark.parametrize("state", CANONICAL_STATES)
    def test_device_norm_equals_transmittance(self, state):
        phi = PM_PHASES[CANONICAL_STATES.index(state)]
        for spec in (PhaseSpec(phase_offset_rad=0.7), SessionConfig().alice_amz):
            early, late = alice_device_amplitudes(phi, spec)
            assert abs(abs(early) ** 2 + abs(late) ** 2 - 0.5) < TOL

    @pytest.mark.parametrize("offset", [0.3, -1.1])
    def test_device_state_is_the_prepared_state(self, offset):
        """Normalized, the device state at a phase offset is the session's
        prepared state up to a global phase."""
        spec = PhaseSpec(phase_offset_rad=offset)
        devices = np.transpose(alice_device_amplitudes(PM_PHASES, spec))
        for device, prepared in zip(devices, _prepared_amplitudes(spec), strict=True):
            fidelity = abs(np.vdot(prepared, device / np.linalg.norm(device))) ** 2
            assert abs(fidelity - 1.0) < TOL


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
        assert abs(dist.p.sum() - 1.0) < TOL  # a lossless receiver loses nothing

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
        # with a norm deficit too, the six cells hold the excess
        # transmittance times the input norm
        for state in CANONICAL_STATES:
            link = canonical_link_state(state).scaled(0.6)
            norm = np.sum(np.abs(link.bins) ** 2)
            assert abs(bob_transform(link, spec).p.sum() - spec.excess_transmittance * norm) < TOL

    def test_structural_errors(self):
        with pytest.raises(ValueError, match="shape"):
            TimeBinState(np.zeros((3, 1), complex))  # three bins
        with pytest.raises(ValueError, match="shape"):
            TimeBinState(np.zeros((2, 2), complex))  # two ports

    def test_probability_bookkeeping_random_states(self):
        """The six cells sum to the excess transmittance times |a|^2 + |b|^2:
        the S2 cross term cancels between the two ports."""
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
            assert abs(dist.p.sum() - spec.excess_transmittance * np.sum(np.abs(amps) ** 2)) < 1e-12
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


class TestCellState:
    def test_agrees_with_oracle_classification(self):
        # CELL_STATE[cell] is the index 2 * basis + bit of the state a
        # click in that slot-major cell reads as
        for cell, state in enumerate(CELL_STATE):
            basis, bit = oracle.classify_cell(cell // 2, cell % 2)
            assert CANONICAL_STATES[state].label() == f"{basis}{bit}"


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

    def test_negative_extinction_is_refused(self):
        with pytest.raises(ValueError, match="extinction ratio must be >= 0 dB"):
            extinction_db_to_visibility(-0.5)


class TestTypes:
    def test_state_norm_guard(self):
        with pytest.raises(ValueError):
            link_state(1.0, 1.0)  # total probability 2

    def test_state_shape_guard(self):
        with pytest.raises(ValueError):
            TimeBinState(np.zeros(4, complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.inf], ids=["nan", "inf", "imaginary_inf"])
    def test_state_finite_guard(self, bad):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            TimeBinState(np.array([[bad], [0.0]], complex))

    def test_distribution_guards(self):
        from timebin_bb84.optics import SlotPortDistribution

        with pytest.raises(ValueError):
            SlotPortDistribution(np.full((3, 2), 0.2))  # sums to 1.2
        with pytest.raises(ValueError):
            SlotPortDistribution(np.full((2, 2), 0.1))

    def test_amz_spec_guards(self):
        with pytest.raises(ValueError):
            AmzSpec(visibility=1.5)
        with pytest.raises(ValueError):
            AmzSpec(excess_loss_db=-1.0)

    def test_canonical_state_guard(self):
        with pytest.raises(ValueError):
            CanonicalState(Basis.Z, 2)

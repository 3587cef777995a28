"""Complex-amplitude model of the time-bin interferometer train.

Alice's transmitter is a balanced interferometer with a phase modulator in
one arm (acting as a variable-ratio coupler) feeding an unbalanced
interferometer whose long arm delays light by one time bin (5 ns).  Bob's
receiver is a matching unbalanced interferometer whose two output ports
feed single-photon detectors.  A photon sent as a two-bin amplitude pair
can reach Bob in one of three time slots:

    S1  short path in both devices        -> early bin, no interference
    S2  short+long or long+short          -> the two paths interfere
    S3  long path in both devices         -> late bin, no interference

Amplitudes are plain ``complex`` numbers.  Every coupler uses the fixed
unitary convention

    [[sqrt(t),        i*sqrt(1-t)],
     [i*sqrt(1-t),    sqrt(t)   ]]

so that all derived probabilities are reproducible.  Finite interference
contrast is parameterised by a visibility V that scales the S2 cross term;
the corresponding extinction ratio is (1+V)/(1-V).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

NORM_TOL = 1e-12


class Basis(Enum):
    """Encoding basis: Z is the arrival-time pair, X the superpositions."""

    Z = "Z"
    X = "X"


class Slot(IntEnum):
    """Arrival time slot at Bob's detectors."""

    S1 = 0
    S2 = 1
    S3 = 2


class Port(IntEnum):
    """Bob's detector port. D1 collects the summed (in-phase) S2 output."""

    D0 = 0
    D1 = 1


@dataclass(frozen=True)
class CanonicalState:
    """One of the four signal states: (Z,0) early, (Z,1) late, (X,b) superpositions."""

    basis: Basis
    bit: int

    def __post_init__(self) -> None:
        if self.bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {self.bit}")

    def label(self) -> str:
        return f"{self.basis.value}{self.bit}"


# Fixed engine ordering of the four canonical states.
CANONICAL_STATES: tuple[CanonicalState, ...] = (
    CanonicalState(Basis.Z, 0),
    CanonicalState(Basis.Z, 1),
    CanonicalState(Basis.X, 0),
    CanonicalState(Basis.X, 1),
)

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# Normalized two-bin link amplitudes (early, late) per canonical state.
_CANONICAL_AMPLITUDES: dict[CanonicalState, tuple[complex, complex]] = {
    CANONICAL_STATES[0]: (1.0 + 0.0j, 0.0j),
    CANONICAL_STATES[1]: (0.0j, 1.0 + 0.0j),
    CANONICAL_STATES[2]: (_SQRT_HALF + 0.0j, _SQRT_HALF + 0.0j),
    CANONICAL_STATES[3]: (_SQRT_HALF + 0.0j, -_SQRT_HALF + 0.0j),
}


@dataclass(frozen=True)
class TimeBinState:
    """Per-bin, per-port complex amplitudes of a single-photon wavepacket.

    ``bins`` has shape (n_bins, n_ports); squared moduli sum to at most 1,
    any deficit being probability already lost upstream.
    """

    bins: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.bins, dtype=complex)
        if arr.ndim != 2:
            raise ValueError("bins must be a 2-D (n_bins, n_ports) array")
        if not np.all(np.isfinite(arr.view(float))):
            raise ValueError("amplitudes must be finite")
        total = float(np.sum(np.abs(arr) ** 2))
        if total > 1.0 + NORM_TOL:
            raise ValueError(f"total probability {total} exceeds 1")
        object.__setattr__(self, "bins", arr)

    @property
    def n_bins(self) -> int:
        return self.bins.shape[0]

    @property
    def port_count(self) -> int:
        return self.bins.shape[1]

    def total_probability(self) -> float:
        return float(np.sum(np.abs(self.bins) ** 2))

    def scaled(self, amplitude_factor: complex) -> "TimeBinState":
        return TimeBinState(self.bins * amplitude_factor)


def link_state(early: complex, late: complex) -> TimeBinState:
    """Two-bin single-port state as carried on the fiber link."""
    return TimeBinState(np.array([[early], [late]], dtype=complex))


def vacuum_state() -> TimeBinState:
    return link_state(0.0, 0.0)


def canonical_link_state(state: CanonicalState) -> TimeBinState:
    early, late = _CANONICAL_AMPLITUDES[state]
    return link_state(early, late)


@dataclass(frozen=True)
class AmzSpec:
    """Unbalanced-interferometer device parameters.

    The long arm delays light by one time bin (5 ns for the modeled
    device).  excess_loss_db is loss beyond the intrinsic 3 dB of the
    output coupler.  phase_offset_rad is a deviation from the calibrated
    interference point and visibility the contrast of the S2 interference.
    phase_jitter_rad, when nonzero, adds independent Gaussian phase noise
    per pulse (thermal drift).
    """

    excess_loss_db: float = 2.0
    phase_offset_rad: float = 0.0
    visibility: float = 1.0
    phase_jitter_rad: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.excess_loss_db) and self.excess_loss_db >= 0):
            raise ValueError("excess_loss_db must be finite and >= 0")
        if not math.isfinite(self.phase_offset_rad):
            raise ValueError("phase_offset_rad must be finite")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")
        if not (math.isfinite(self.phase_jitter_rad) and self.phase_jitter_rad >= 0):
            raise ValueError("phase_jitter_rad must be finite and >= 0")

    @property
    def excess_transmittance(self) -> float:
        return 10.0 ** (-self.excess_loss_db / 10.0)


def ideal_amz() -> AmzSpec:
    """Lossless, perfectly aligned device; used for analytic baselines."""
    return AmzSpec(excess_loss_db=0.0)


@dataclass(frozen=True)
class SlotPortDistribution:
    """Probabilities over 3 arrival slots x 2 detector ports.

    p_lost absorbs device loss, channel loss and the unused monitor port,
    so that ``p.sum() + p_lost == 1``.
    """

    p: np.ndarray
    p_lost: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.p, dtype=float)
        if arr.shape != (3, 2):
            raise ValueError("p must have shape (3, 2)")
        if np.any(arr < -NORM_TOL):
            raise ValueError("probabilities must be non-negative")
        total = float(arr.sum()) + self.p_lost
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities + p_lost = {total}, expected 1")
        object.__setattr__(self, "p", np.clip(arr, 0.0, None))


def apply_coupler(a: complex, b: complex, t: float) -> tuple[complex, complex]:
    """2x2 coupler with power transmittance t on the bar path.

    Returns (sqrt(t)*a + i*sqrt(1-t)*b, i*sqrt(1-t)*a + sqrt(t)*b); unitary,
    so |a|^2 + |b|^2 is preserved.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {t}")
    bar = math.sqrt(t)
    cross = 1j * math.sqrt(1.0 - t)
    return bar * a + cross * b, cross * a + bar * b


def variable_coupler(phi: float) -> tuple[complex, complex]:
    """Variable-ratio coupler built from a balanced interferometer.

    A Y-branch splits the input 50/50, the modulated arm picks up exp(i*phi),
    and a balanced coupler recombines.  Returns the (short-arm, long-arm)
    amplitudes feeding the delay stage: ((1 + i e^{i phi})/2, (i + e^{i phi})/2).
    Power steers fully to the short arm at phi = -pi/2 and to the long arm
    at phi = +pi/2.
    """
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    rot = cmath.exp(1j * phi)
    return apply_coupler(_SQRT_HALF, _SQRT_HALF * rot, 0.5)


def calibrate_pm() -> dict[CanonicalState, float]:
    """Modulator phase settings that prepare each canonical state."""
    return {
        CANONICAL_STATES[0]: -math.pi / 2.0,
        CANONICAL_STATES[1]: +math.pi / 2.0,
        CANONICAL_STATES[2]: 0.0,
        CANONICAL_STATES[3]: math.pi,
    }


def alice_device_state(state: CanonicalState, spec: AmzSpec | None = None) -> TimeBinState:
    """Physical link state from the full transmitter model.

    Composes the variable-ratio coupler at the calibrated phase, the one-bin
    delay with the thermally tuned long-arm phase, and the output coupler
    (whose second output is the monitor port and counts as loss).  Agrees
    with :func:`canonical_link_state` up to a global phase; total
    probability equals the device transmittance, 0.5 times the excess
    transmittance.  In a session the mean photon number is fixed
    downstream by the attenuator, so the session starts from the
    normalized canonical states.
    """
    spec = spec if spec is not None else AmzSpec()
    phi = calibrate_pm()[state]
    a_short, a_long = variable_coupler(phi)
    # The long arm's carrier phase is thermally tuned to -pi/2, cancelling
    # the output coupler's cross-coupling i; phase_offset_rad is the
    # residual miscalibration.
    a_long = a_long * cmath.exp(1j * (spec.phase_offset_rad - math.pi / 2.0))
    amp = math.sqrt(spec.excess_transmittance)
    early, _ = apply_coupler(a_short, 0.0, 0.5)   # early bin: short arm only
    late, _ = apply_coupler(0.0, a_long, 0.5)     # late bin: long arm only
    return link_state(amp * early, amp * late)


def slot_port_probabilities(early, late, spec: AmzSpec, phase=None):
    """Slot/port probabilities after the receiver interferometer, elementwise.

    ``early`` and ``late`` are the link amplitudes of the two bins and
    ``phase`` the long-arm phase (``spec.phase_offset_rad`` when None).
    They broadcast together, so one call covers one state or one pulse per
    array element.  Each input bin splits 50/50; the long arm is delayed by
    one bin and carries phase exp(i*phase).  Port D0 collects the
    difference of adjacent-bin amplitudes, D1 the sum, so at perfect
    calibration the (X,0) state exits entirely on D1 in slot S2 and (X,1)
    on D0.  The S2 cross term 2*V*Re(exp(i*phase)*early*conj(late)) is
    scaled by the visibility V, and every cell by the excess transmittance.

    Returns the rows (S1, S2, S3), each a (D0, D1) pair; ``np.array`` of the
    result is the slot-major (3, 2, ...) table.
    """
    if phase is None:
        phase = spec.phase_offset_rad
    inter = early * np.conj(late)
    cross = 2.0 * spec.visibility * (np.cos(phase) * inter.real - np.sin(phase) * inter.imag)
    r0 = np.abs(early) ** 2
    r1 = np.abs(late) ** 2
    loss = spec.excess_transmittance
    edge_early = loss * r0 / 4.0
    edge_late = loss * r1 / 4.0
    # Where the cross term cancels the intensity, rounding can leave -1 ulp.
    s2_d0 = np.maximum(loss * (r0 + r1 - cross) / 4.0, 0.0)
    s2_d1 = np.maximum(loss * (r0 + r1 + cross) / 4.0, 0.0)
    return (edge_early, edge_early), (s2_d0, s2_d1), (edge_late, edge_late)


def bob_transform(state: TimeBinState, spec: AmzSpec) -> SlotPortDistribution:
    """Slot/port probabilities of one link state after the receiver
    interferometer (see :func:`slot_port_probabilities`); excess loss and
    any norm deficit of the input go to p_lost.
    """
    if state.port_count != 1 or state.n_bins != 2:
        raise ValueError(
            f"expected a 2-bin single-port link state, got {state.n_bins} bins x "
            f"{state.port_count} ports"
        )
    p = np.array(slot_port_probabilities(state.bins[0, 0], state.bins[1, 0], spec), dtype=float)
    return SlotPortDistribution(p=p, p_lost=1.0 - float(p.sum()))


def visibility_to_extinction_db(visibility: float) -> float:
    """Extinction ratio 10*log10((1+V)/(1-V)) in dB; V=1 gives +inf."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    if visibility == 1.0:
        return math.inf
    return 10.0 * math.log10((1.0 + visibility) / (1.0 - visibility))


def extinction_db_to_visibility(extinction_db: float) -> float:
    """Inverse of :func:`visibility_to_extinction_db`."""
    if extinction_db < 0:
        raise ValueError("extinction ratio must be >= 0 dB")
    if math.isinf(extinction_db):
        return 1.0
    ratio = 10.0 ** (extinction_db / 10.0)
    return (ratio - 1.0) / (ratio + 1.0)

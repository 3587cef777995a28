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

Amplitudes are ``complex`` numbers or arrays of them.  Every coupler uses
the fixed unitary convention

    [[sqrt(t),        i*sqrt(1-t)],
     [i*sqrt(1-t),    sqrt(t)   ]]

so that all derived probabilities are reproducible.  Finite interference
contrast is parameterised by a visibility V that scales the S2 cross term;
the corresponding extinction ratio is (1+V)/(1-V).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .fields import check_fields, within

NORM_TOL = 1e-12
# Largest phase jitter: past a few pi the wrapped phase is uniform anyway, and
# a leg's math.hypot of two jitters times any float64 normal stays finite.
MAX_PHASE_JITTER_RAD = 1e6


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
    bit: int = within(low=0, high=1)
    __post_init__ = check_fields

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

# Normalized two-bin link amplitudes (early, late), one row per canonical state.
CANONICAL_AMPLITUDES = np.array(
    [[1.0, 0.0], [0.0, 1.0], [_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=complex
)

# Canonical-state index that a click in each slot-major (slot, port) cell
# reads as: S1 -> (Z,0), S3 -> (Z,1), S2 -> (X,1) on D0 and (X,0) on D1.
CELL_STATE = np.array([0, 0, 3, 2, 1, 1], dtype=np.uint8)


@dataclass(frozen=True)
class TimeBinState:
    """Complex (early, late) amplitudes of a single-photon wavepacket on the
    link, as a (2, 1) ``bins`` array; squared moduli sum to at most 1, any
    deficit being probability already lost upstream.
    """

    bins: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.bins, dtype=complex)
        if arr.shape != (2, 1):
            raise ValueError(f"bins must have shape (2, 1), got {arr.shape}")
        if not np.all(np.isfinite(arr.view(float))):
            raise ValueError("amplitudes must be finite")
        total = float(np.sum(np.abs(arr) ** 2))
        if total > 1.0 + NORM_TOL:
            raise ValueError(f"total probability {total} exceeds 1")
        object.__setattr__(self, "bins", arr)

    def scaled(self, amplitude_factor: complex) -> "TimeBinState":
        return TimeBinState(self.bins * amplitude_factor)


def link_state(early: complex, late: complex) -> TimeBinState:
    """Two-bin single-port state as carried on the fiber link."""
    return TimeBinState(np.array([[early], [late]], dtype=complex))


def vacuum_state() -> TimeBinState:
    return link_state(0.0, 0.0)


def canonical_link_state(state: CanonicalState) -> TimeBinState:
    return link_state(*CANONICAL_AMPLITUDES[CANONICAL_STATES.index(state)])


@dataclass(frozen=True)
class PhaseSpec:
    """Long-arm phase of an unbalanced interferometer: an offset from the
    calibrated point plus, when phase_jitter_rad > 0, independent Gaussian
    noise per pulse (thermal drift).  The transmitter has only these:
    nothing interferes there, and the attenuator after it fixes mu."""

    phase_offset_rad: float = 0.0
    phase_jitter_rad: float = within(0.0, 0.0, MAX_PHASE_JITTER_RAD)
    __post_init__ = check_fields


@dataclass(frozen=True)
class AmzSpec(PhaseSpec):
    """Interferometer whose outputs are detected: the long arm delays light
    by one 5 ns time bin, excess_loss_db is loss beyond the output coupler's
    intrinsic 3 dB and visibility the contrast of the S2 interference."""

    excess_loss_db: float = within(2.0, 0.0)
    visibility: float = within(1.0, 0.0, 1.0)

    @property
    def excess_transmittance(self) -> float:
        return 10.0 ** (-self.excess_loss_db / 10.0)


def ideal_amz() -> AmzSpec:
    """Lossless, perfectly aligned device; used for analytic baselines."""
    return AmzSpec(excess_loss_db=0.0)


@dataclass(frozen=True)
class SlotPortDistribution:
    """Probabilities over 3 arrival slots x 2 detector ports; the remainder
    up to 1 is lost to device loss, channel loss and the unused monitor port.
    """

    p: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.p, dtype=float)
        if arr.shape != (3, 2):
            raise ValueError("p must have shape (3, 2)")
        if np.any(arr < -NORM_TOL) or arr.sum() > 1.0 + 1e-9:
            raise ValueError("probabilities must be non-negative and sum to at most 1")
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


# Modulator phase that prepares each canonical state, in CANONICAL_STATES order.
PM_PHASES = np.array([-math.pi / 2.0, math.pi / 2.0, 0.0, math.pi])


def alice_device_amplitudes(phi, spec: PhaseSpec | None = None):
    """Link amplitudes (early, late) of the transmitter at modulator phase
    ``phi``, elementwise; ``PM_PHASES`` gives the four states in one call.

    A Y-branch splits the input 50/50, the modulated arm picks up exp(i*phi)
    and a balanced coupler recombines: a variable-ratio coupler that steers
    all power to the short arm at phi = -pi/2 and to the long arm at +pi/2.
    The long arm is delayed one bin at the thermally tuned phase (``spec``'s
    offset), and the output coupler's second output is the monitor port, so
    total probability is 0.5.  The attenuator after the device fixes the mean
    photon number, so its own loss is not modelled.  Normalized, each state
    is the session's prepared state up to a global phase.
    """
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise ValueError("phi must be finite")
    spec = spec if spec is not None else PhaseSpec()
    a_short, a_long = apply_coupler(_SQRT_HALF, _SQRT_HALF * np.exp(1j * phi), 0.5)
    # The long arm's carrier phase is thermally tuned to -pi/2, cancelling
    # the output coupler's cross-coupling i; phase_offset_rad is the
    # residual miscalibration.
    a_long = a_long * np.exp(1j * (spec.phase_offset_rad - math.pi / 2.0))
    early, _ = apply_coupler(a_short, 0.0, 0.5)   # early bin: short arm only
    late, _ = apply_coupler(0.0, a_long, 0.5)     # late bin: long arm only
    return early, late


def interference_terms(early, late):
    """The :func:`s2_weights` inputs of link amplitudes, elementwise:
    |early|^2 + |late|^2 and the real and imaginary parts of early*conj(late)."""
    inter = early * np.conj(late)
    return np.abs(early) ** 2 + np.abs(late) ** 2, inter.real, inter.imag


def s2_weights(intensity, re, im, spec: AmzSpec, phase):
    """(D0, D1) weights of slot S2 at long-arm phase ``phase``, elementwise: the
    only phase-dependent cells, shared by the tables and the drifting legs.  The
    cross term 2*V*Re(exp(i*phase)*early*conj(late)) is scaled by the visibility."""
    cross = (2.0 * spec.visibility) * (np.cos(phase) * re - np.sin(phase) * im)
    loss = spec.excess_transmittance
    # Where the cross term cancels the intensity, rounding can leave -1 ulp.
    return (np.maximum(loss * (intensity - cross) / 4.0, 0.0),
            np.maximum(loss * (intensity + cross) / 4.0, 0.0))


def slot_port_probabilities(early, late, spec: AmzSpec, phase=None):
    """Slot/port probabilities after the receiver interferometer, elementwise.

    ``early`` and ``late`` are the link amplitudes of the two bins and
    ``phase`` the long-arm phase (``spec.phase_offset_rad`` when None).
    They broadcast together, so one call covers one state or one pulse per
    array element.  Each input bin splits 50/50; the long arm is delayed by
    one bin and carries phase exp(i*phase).  Port D0 collects the
    difference of adjacent-bin amplitudes, D1 the sum, so at perfect
    calibration the (X,0) state exits entirely on D1 in slot S2 and (X,1)
    on D0.  S2 comes from :func:`s2_weights`; the edge slots are a quarter
    of their bin's intensity, scaled by the excess transmittance.

    Returns the rows (S1, S2, S3), each a (D0, D1) pair; ``np.array`` of the
    result is the slot-major (3, 2, ...) table.
    """
    if phase is None:
        phase = spec.phase_offset_rad
    loss = spec.excess_transmittance
    edge_early = loss * np.abs(early) ** 2 / 4.0
    edge_late = loss * np.abs(late) ** 2 / 4.0
    s2 = s2_weights(*interference_terms(early, late), spec, phase)
    return (edge_early, edge_early), s2, (edge_late, edge_late)


def bob_transform(state: TimeBinState, spec: AmzSpec) -> SlotPortDistribution:
    """Slot/port probabilities of one link state after the receiver
    interferometer (see :func:`slot_port_probabilities`)."""
    return SlotPortDistribution(np.array(slot_port_probabilities(*state.bins[:, 0], spec), dtype=float))


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

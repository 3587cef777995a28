"""Intercept-resend adversary with a receiver-identical apparatus.

The attacker cannot choose a measurement basis in this scheme: her
interferometer, like the legitimate receiver's, sorts each pulse into a
time slot (and port) passively.  She classifies whatever outcome she gets,
re-prepares the corresponding canonical state at full amplitude and
forwards it; pulses that produce no outcome are suppressed (vacuum
forwarded).  Because her measurement is the passive three-slot one rather
than a random two-basis projection, the induced error rate is worth
deriving by exhaustive enumeration instead of assuming the textbook 25%:
the enumeration confirms exactly 1/4 in both bases for ideal devices.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .optics import (
    CANONICAL_STATES,
    AmzSpec,
    Basis,
    Port,
    Slot,
    TimeBinState,
    bob_transform,
    canonical_link_state,
    ideal_amz,
    slot_port_probabilities,
    vacuum_state,
)

# Flattened-cell (slot-major) classification to canonical-state index; 6 = no
# outcome -> vacuum resend.
VACUUM_INDEX = 4
OUTCOME_TO_STATE_INDEX = np.array([0, 0, 3, 2, 1, 1, VACUUM_INDEX], dtype=np.uint8)


@dataclass(frozen=True)
class EveSpec:
    """Attack configuration; the apparatus defaults to a lossless, perfectly
    aligned copy of the receiver."""

    enabled: bool = False
    apparatus: AmzSpec = field(default_factory=ideal_amz)


def outcome_probabilities(state: TimeBinState, spec: EveSpec) -> np.ndarray:
    """(7,) vector: six slot/port outcome probabilities plus no-outcome."""
    dist = bob_transform(state, spec.apparatus)
    flat = dist.p.reshape(6)
    return np.concatenate([flat, [1.0 - flat.sum()]])


def resend_state(outcome: int) -> TimeBinState:
    """Canonical state (or vacuum) for a flattened outcome index."""
    idx = int(OUTCOME_TO_STATE_INDEX[outcome])
    if idx == VACUUM_INDEX:
        return vacuum_state()
    return canonical_link_state(CANONICAL_STATES[idx])


def cumulative_outcomes(early, late, spec: EveSpec, phase=None) -> np.ndarray:
    """Cumulative probabilities (..., 6) of the six slot/port outcomes
    (slot-major) for link amplitudes ``early``/``late``, which broadcast
    with ``phase`` as in :func:`slot_port_probabilities`.  The remainder up
    to 1 is the no-outcome branch."""
    cells = [p for row in slot_port_probabilities(early, late, spec.apparatus, phase) for p in row]
    return np.cumsum(np.stack(np.broadcast_arrays(*cells), axis=-1), axis=-1)


def drifted_columns(amps: np.ndarray, states: np.ndarray, spec: EveSpec, phase: np.ndarray):
    """Yield the cumulative outcome probabilities of :func:`cumulative_outcomes`
    for pulses with per-pulse attacker phases ``phase``, one (n,) column at
    a time.  Pulse i has the link amplitudes ``amps[states[i]]``.

    Each incoming state is evaluated with scalar amplitudes and the running
    sum adds the cells in cumulative_outcomes' order, so every column is
    bit-identical to that function's; only the two phase-dependent S2 cells
    are held per pulse.
    """
    edges = np.empty((2, len(amps)))
    s2 = np.empty((2, len(states)))
    for k, (early, late) in enumerate(amps):
        mask = states == k
        s1, s2[:, mask], s3 = slot_port_probabilities(early, late, spec.apparatus, phase[mask])
        edges[:, k] = s1[0], s3[0]
    early_cell, late_cell = edges[:, states]
    column = early_cell
    yield column
    for cell in (early_cell, s2[0], s2[1], late_cell, late_cell):
        column = column + cell
        yield column


def attack_batch(
    n: int, columns: Iterable[np.ndarray], rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the attacker's outcome for each of ``n`` pulses from one
    float64 uniform per pulse.

    ``columns`` yields the six cumulative outcome probabilities (slot-major,
    see :func:`cumulative_outcomes`) one column at a time, each with one
    entry per pulse: a per-state table column gathered by input state, or
    :func:`drifted_columns` under phase drift.  So no (n, 6) float array is
    built per batch.  A uniform draw beyond the last entry is no outcome.
    Returns (outcome index 0..6, resent-state index 0..4) per pulse.
    """
    u = rng.random(n)
    outcomes = np.zeros(n, dtype=np.uint8)
    for column in columns:
        outcomes += u >= column
    return outcomes, OUTCOME_TO_STATE_INDEX[outcomes]


def _classify_cell(cell: int) -> tuple[Basis, int]:
    slot, port = Slot(cell // 2), Port(cell % 2)
    if slot == Slot.S1:
        return Basis.Z, 0
    if slot == Slot.S3:
        return Basis.Z, 1
    return Basis.X, 0 if port == Port.D1 else 1


def enumerate_attack_qber(
    spec: EveSpec, bob_spec: AmzSpec | None = None
) -> dict[Basis, float]:
    """Exact sifted QBER per basis via the full probability tree.

    Single-photon abstraction: each stage yields an outcome with
    probability equal to its cell weight.  The transmitter's four states
    are equiprobable; only receiver outcomes whose measured basis matches
    the preparation basis contribute (the sifted set).  Channel loss
    between the attacker and receiver scales every branch equally and so
    cancels; it is omitted.
    """
    bob_spec = bob_spec if bob_spec is not None else ideal_amz()
    if not spec.enabled:
        return {Basis.Z: 0.0, Basis.X: 0.0}
    errors = {Basis.Z: 0.0, Basis.X: 0.0}
    sifted = {Basis.Z: 0.0, Basis.X: 0.0}
    for state in CANONICAL_STATES:
        weight_state = 0.25
        eve_probs = outcome_probabilities(canonical_link_state(state), spec)
        for outcome in range(6):  # no-outcome branch forwards vacuum: no events
            w1 = float(eve_probs[outcome])
            if w1 == 0.0:
                continue
            forwarded = resend_state(outcome)
            bob_probs = bob_transform(forwarded, bob_spec).p.reshape(6)
            for cell in range(6):
                w2 = float(bob_probs[cell])
                if w2 == 0.0:
                    continue
                measured_basis, measured_bit = _classify_cell(cell)
                if measured_basis != state.basis:
                    continue
                branch = weight_state * w1 * w2
                sifted[measured_basis] += branch
                if measured_bit != state.bit:
                    errors[measured_basis] += branch
    return {b: (errors[b] / sifted[b] if sifted[b] > 0 else 0.0) for b in (Basis.Z, Basis.X)}

"""Intercept-resend adversary with a receiver-identical apparatus.

The attacker cannot choose a measurement basis in this scheme: her
interferometer, like the legitimate receiver's, sorts each pulse into a
time slot (and port) passively.  She classifies whatever outcome she gets,
re-prepares the corresponding canonical state at full amplitude and
forwards it; pulses that produce no outcome are suppressed (vacuum
forwarded).  Because her measurement is the passive three-slot one rather
than a random two-basis projection, the induced error rate is worth
computing exactly, over every (sent state, attacker outcome, receiver
cell) branch, instead of assuming the textbook 25%: the computation
confirms exactly 1/4 in both bases for ideal devices.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .detection import cumulative_edges, sample_outcomes
from .optics import (
    CANONICAL_AMPLITUDES,
    CANONICAL_STATES,
    CELL_STATE,
    AmzSpec,
    Basis,
    ideal_amz,
    slot_port_probabilities,
)

# Resent-state index per attacker outcome: the cell's canonical state, and
# for outcome 6 (none) the vacuum.
VACUUM_INDEX = 4
OUTCOME_TO_STATE_INDEX = np.append(CELL_STATE, np.uint8(VACUUM_INDEX))


@dataclass(frozen=True)
class EveSpec:
    """Attack configuration; the apparatus defaults to a lossless, perfectly
    aligned copy of the receiver."""

    enabled: bool = False
    apparatus: AmzSpec = field(default_factory=ideal_amz)


def cumulative_outcomes(early, late, spec: EveSpec) -> np.ndarray:
    """Cumulative probabilities (6, ...) of the six slot/port outcomes
    (slot-major) for link amplitudes ``early``/``late``, edge-major, one
    contiguous row per edge.  The remainder up to 1 is the no-outcome branch."""
    cells = slot_port_probabilities(early, late, spec.apparatus)
    return cumulative_edges([p for row in cells for p in row])


def attack_batch(u: np.ndarray, rows: Iterable[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The attacker's outcome for each pulse from its uniform ``u`` and its
    :func:`cumulative_outcomes` row, given edge by edge as for
    :func:`detection.sample_outcomes`; a uniform beyond the last edge is no
    outcome.  Returns (outcome index 0..6, resent-state index 0..4)."""
    outcomes = sample_outcomes(u, rows)
    return outcomes, OUTCOME_TO_STATE_INDEX[outcomes]


def enumerate_attack_qber(
    spec: EveSpec, bob_spec: AmzSpec | None = None
) -> dict[Basis, float]:
    """Exact sifted QBER per basis over every (sent state, attacker
    outcome, receiver cell) branch.

    Single-photon abstraction: each stage yields an outcome with
    probability equal to its cell weight.  ``eve[k, o]`` is the weight of
    outcome o for sent state k, ``bob[j, c]`` that of receiver cell c for
    resent state j; outcome o resends state ``CELL_STATE[o]``, so
    ``eve @ bob[CELL_STATE]`` weighs each (sent state, receiver cell)
    pair.  The no-outcome branch forwards vacuum and yields no events.
    The transmitter's four states are equiprobable; only receiver cells
    whose read basis matches the sent one contribute (the sifted set).
    Channel loss between the attacker and receiver scales every branch
    equally and so cancels; it is omitted.
    """
    bob_spec = bob_spec if bob_spec is not None else ideal_amz()
    if not spec.enabled:
        return {Basis.Z: 0.0, Basis.X: 0.0}
    early, late = CANONICAL_AMPLITUDES.T
    eve = np.array(slot_port_probabilities(early, late, spec.apparatus)).reshape(6, -1).T
    bob = np.array(slot_port_probabilities(early, late, bob_spec)).reshape(6, -1).T
    joint = eve @ bob[CELL_STATE]
    sent = np.arange(len(CANONICAL_STATES))[:, None]
    sifted = np.where(CELL_STATE >> 1 == sent >> 1, joint, 0.0)
    errors = np.where(CELL_STATE != sent, sifted, 0.0)
    # Rows 0-1 are the Z states, rows 2-3 the X states.
    n_sifted = sifted.reshape(2, -1).sum(axis=1)
    n_errors = errors.reshape(2, -1).sum(axis=1)
    return {
        b: float(n_errors[i] / n_sifted[i]) if n_sifted[i] > 0 else 0.0
        for i, b in enumerate((Basis.Z, Basis.X))
    }

"""Per-pulse references for the event-driven production code.

The package samples detection only for the candidates of a batch, the
pulses whose uniform lies below a click bound, and computes the
transmitter's choices on demand.  The references here do neither: they
hold or evaluate something for every pulse, and share no sampling code
with the package.
"""

import numpy as np


class ArrayTrain:
    """A transmitter train stored as arrays, for tests that build one by
    hand; it answers ``choices`` like ``protocol.PulseTrain``."""

    def __init__(self, bits, bases):
        self.bits = np.asarray(bits, dtype=np.uint8)
        self.bases = np.asarray(bases, dtype=np.uint8)
        assert self.bits.shape == self.bases.shape and self.bits.ndim == 1

    def __len__(self) -> int:
        return self.bits.size

    def choices(self, idx):
        return self.bits[idx], self.bases[idx]


def every_pulse_row(rows) -> np.ndarray:
    """Each pulse's cumulative row as an (n, K) table, from ``rows`` given
    edge by edge as to ``detection.sample_outcomes``."""
    return np.stack(list(rows), axis=-1)


def first_fire_row(q) -> list[float]:
    """One pulse's seven cumulative first-fire edges from its six
    slot-major click probabilities ``q``, in Python floats: registration
    (s, j) is shadow_s * q[s, j] * (1 - q[s, 1-j]), where shadow_s is the
    product over earlier slots of (1 - q[s', 0]) * (1 - q[s', 1]); the
    discard adds shadow_s * q[s, 0] * q[s, 1] over the slots; the edges
    are running sums from the left."""
    edges, total, shadow, discard = [], 0.0, 1.0, 0.0
    for s in range(3):
        q0, q1 = float(q[2 * s]), float(q[2 * s + 1])
        for registered in (shadow * q0 * (1.0 - q1), shadow * q1 * (1.0 - q0)):
            total += registered
            edges.append(total)
        discard += shadow * q0 * q1
        shadow *= (1.0 - q0) * (1.0 - q1)
    edges.append(total + discard)
    return edges


def outcomes_every_pulse(u: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Outcome of each pulse: the number of its row's edges at or below
    its uniform."""
    return (u[:, None] >= cum).sum(axis=1)


def detect_every_pulse(cum: np.ndarray, rng: np.random.Generator):
    """First-fire detection from one uniform per pulse and every pulse's
    full (7,) row, the (n, 7) ``cum``.  Returns per-pulse first-fire
    outcomes: 0..5 the (slot, port) cells slot-major, 6 the double-click
    discard, 7 no click."""
    u = rng.random(len(cum))
    return outcomes_every_pulse(u, cum)


def row_increments(cum: np.ndarray) -> np.ndarray:
    """Outcome probabilities of cumulative (..., K) rows: (..., K + 1),
    the last being the remainder up to 1 (no click, or no outcome)."""
    return np.diff(cum, prepend=0.0, append=1.0, axis=-1)


def bernstein_tolerance(var, z: float) -> np.ndarray:
    """Two-sided Bernstein tolerance at ``z`` on a sum of independent
    draws in [0, 1] whose variance is ``var``."""
    return z * z / 6.0 + np.sqrt(z**4 / 36.0 + z * z * np.asarray(var))

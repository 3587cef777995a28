"""Photon statistics, gated detector clicks, and first-fire registration.

A weak coherent pulse with mean photon number mu arriving at a detector
cell with probability weight p produces a click with probability

    1 - (1 - d) * exp(-eta * mu * p)

where eta is the detection efficiency and d the dark-count probability per
gate.  With three gated slots there are six (slot, port) cells per pulse;
a conventional single-gate receiver gates only the central slot, which is
the baseline used to quantify the tripled dark-count exposure.

Registration applies the first-fire rule: only the earliest slot with at
least one click counts, which also neutralises after-pulsing from earlier
avalanches.  If both ports click in that slot the pulse is discarded.

All randomness flows through :class:`RngHandle`, which derives named
substreams (one per domain, batch or sweep point) from a single 64-bit
seed, so that identical seed and configuration reproduce identical event
streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optics import Slot, SlotPortDistribution

N_CELLS = 6  # 3 slots x 2 ports, flattened slot-major


@dataclass(frozen=True)
class SourceSpec:
    """Pulsed weak-coherent source; mu is the mean photon number per pulse
    at the transmitter output (after its attenuator)."""

    mu: float = 0.1

    def __post_init__(self) -> None:
        if self.mu < 0:
            raise ValueError("mu must be >= 0")


@dataclass(frozen=True)
class ApdSpec:
    """Gated avalanche photodiode.

    gates_per_pulse = 3 arms every slot; 1 arms only the central slot
    (single-gate baseline).  A pulse whose first firing slot clicks on both
    ports is discarded.  Defaults for efficiency and dark counts are
    typical 1.55 um InGaAs values, not measured device figures.
    """

    efficiency: float = 0.1
    dark_per_gate: float = 1e-5
    gates_per_pulse: int = 3

    def __post_init__(self) -> None:
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if not 0.0 <= self.dark_per_gate < 1.0:
            raise ValueError("dark_per_gate must lie in [0, 1)")
        if self.gates_per_pulse not in (1, 3):
            raise ValueError("gates_per_pulse must be 1 or 3")


# Substream domains; the derivation rule is
#   numpy.random.SeedSequence((seed, domain[, index]))
# with index = batch number for batched domains (DOMAIN_JITTER uses 2*batch
# for the attacker's leg and 2*batch + 1 for the receiver's), or sweep-point
# number.  The rule is part of the reproducibility contract and must not
# change between releases.
DOMAIN_ALICE = 1
DOMAIN_EVE = 2
DOMAIN_DETECT = 3
DOMAIN_SAMPLE = 4
DOMAIN_SWEEP = 5
DOMAIN_JITTER = 6


@dataclass(frozen=True)
class RngHandle:
    """Root of all randomness: a 64-bit seed plus named substreams."""

    seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")

    def stream(self, domain: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((self.seed, domain)))

    def indexed_stream(self, domain: int, index: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((self.seed, domain, index)))

    def child_seed(self, domain: int, index: int) -> int:
        """A derived 64-bit seed (used for per-point sweep sessions)."""
        ss = np.random.SeedSequence((self.seed, domain, index))
        return int(ss.generate_state(1, dtype=np.uint64)[0])


ApdPair = tuple[ApdSpec, ApdSpec]


def as_apd_pair(apd: ApdSpec | ApdPair) -> ApdPair:
    """Accept one spec for both ports or an explicit (D0, D1) pair."""
    if isinstance(apd, ApdSpec):
        return (apd, apd)
    d0, d1 = apd
    if d0.gates_per_pulse != d1.gates_per_pulse:
        raise ValueError("both detectors must use the same gating scheme")
    return (d0, d1)


def click_probability(p_slot_port, mu_arrived: float, apd: ApdSpec):
    """Per-gate click probability of (slot, port) cells with probability
    weights ``p_slot_port`` (a scalar or an array of any shape)."""
    if mu_arrived < 0 or np.any(np.asarray(p_slot_port) < 0):
        raise ValueError("probability weight and mu must be >= 0")
    return 1.0 - (1.0 - apd.dark_per_gate) * np.exp(
        -apd.efficiency * mu_arrived * p_slot_port
    )


def cell_click_probabilities(
    dist: SlotPortDistribution, mu_arrived: float, apd: ApdSpec | ApdPair
) -> np.ndarray:
    """Flattened (6,) click probabilities; ungated cells are zero."""
    pair = as_apd_pair(apd)
    q = np.stack([click_probability(dist.p[:, port], mu_arrived, pair[port]) for port in (0, 1)], axis=1)
    if pair[0].gates_per_pulse == 1:
        q[[Slot.S1, Slot.S3]] = 0.0
    return q.reshape(N_CELLS)


def sample_clicks(qcells: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli click matrix for per-cell probabilities of shape (..., 6).

    Uniforms are drawn as float32: the quantisation (~6e-8) is far below
    any statistical resolution reachable here, and it halves the memory
    traffic of large batches.
    """
    u = rng.random(np.shape(qcells), dtype=np.float32)
    return u < qcells


def register_first_fire(clicks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply first-fire registration to a (..., 6) click matrix.

    Returns (registered, slot, port) arrays; slot/port are only meaningful
    where registered is True.  A pulse whose earliest firing slot has both
    ports clicking is discarded.
    """
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


def detect_batch(
    qcells: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised detection for an (n, 6) click-probability array.

    Returns (registered, slot, port, any_click); any_click counts pulses
    with at least one click regardless of the double-click discard, which
    is the quantity exposed to dark counts.
    """
    clicks = sample_clicks(qcells, rng)
    registered, slot, port = register_first_fire(clicks)
    return registered, slot, port, clicks.any(axis=-1)


def expected_event_rates(
    dist: SlotPortDistribution, mu_arrived: float, apd: ApdSpec | ApdPair
) -> np.ndarray:
    """Exact per-cell registration probabilities under first-fire.

    Cell (s, j) registers iff no earlier gated slot clicked, port j clicked
    and the opposite port did not:

        r[s, j] = prod_{s' < s} (1-q[s',0])(1-q[s',1]) * q[s,j] * (1-q[s,1-j])

    This closed form is the oracle for the Monte Carlo sampler.
    """
    q = cell_click_probabilities(dist, mu_arrived, apd).reshape(3, 2)
    r = np.zeros((3, 2))
    shadow = 1.0
    for s in range(3):
        r[s, 0] = shadow * q[s, 0] * (1.0 - q[s, 1])
        r[s, 1] = shadow * q[s, 1] * (1.0 - q[s, 0])
        shadow *= (1.0 - q[s, 0]) * (1.0 - q[s, 1])
    return r


def any_click_probability(
    dist: SlotPortDistribution, mu_arrived: float, apd: ApdSpec | ApdPair
) -> float:
    """Probability that at least one gated cell clicks (pre-discard)."""
    q = cell_click_probabilities(dist, mu_arrived, apd)
    return 1.0 - float(np.prod(1.0 - q))

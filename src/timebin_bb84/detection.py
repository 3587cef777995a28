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
So a pulse has eight outcomes: six (slot, port) registrations, the
discard, and no click.  Their cumulative probabilities have a closed form
(:func:`first_fire_table`), and :func:`detect_batch` samples each pulse's
outcome from one uniform with :func:`sample_outcomes`, the sampler the
attacker uses too.  Most pulses of a lossy link cannot click: a pulse
whose uniform is at or above an upper bound on its click probability is
"no click" without further work, and only the rest get their exact row
evaluated.

All randomness flows through :class:`RngHandle`, which derives named
substreams (one per domain, batch or sweep point) from a single 64-bit
seed, so that identical seed and configuration reproduce identical event
streams.
"""

from __future__ import annotations

import math
from collections.abc import Callable
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
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise ValueError("mu must be finite and >= 0")


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
# number.  Per batch of m pulses, DOMAIN_ALICE gives one integers(0, 4)
# uint8 state per pulse (bit = s & 1, basis = s >> 1), DOMAIN_EVE one
# float64 uniform per pulse, DOMAIN_DETECT one float64 uniform per pulse,
# and each DOMAIN_JITTER leg one standard normal per pulse.  The rule and
# these draws are part of the reproducibility contract and must not change
# between releases.
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


def _first_fire_increments(q) -> np.ndarray:
    """(..., 7) probabilities of the first-fire outcomes; see first_fire_table."""
    q = np.asarray(q, dtype=float)
    q0, q1 = q[..., 0::2], q[..., 1::2]
    silent = (1.0 - q0) * (1.0 - q1)
    shadow = np.ones_like(silent)
    shadow[..., 1] = silent[..., 0]
    shadow[..., 2] = silent[..., 0] * silent[..., 1]
    increments = np.empty(q.shape[:-1] + (N_CELLS + 1,))
    increments[..., 0:N_CELLS:2] = shadow * q0 * (1.0 - q1)
    increments[..., 1:N_CELLS:2] = shadow * q1 * (1.0 - q0)
    increments[..., N_CELLS] = (shadow * q0 * q1).sum(axis=-1)
    return increments


def first_fire_table(q) -> np.ndarray:
    """Cumulative first-fire outcome probabilities for (..., 6) per-cell
    click probabilities ``q`` (slot-major).

    Returns (..., 7): the six (slot, port) registrations in slot-major
    order, then the double-click discard.  The remainder up to 1 is "no
    click", so the last entry is the probability that any gated cell
    clicks.  Cell (s, j) registers iff no earlier slot clicked, port j
    clicked and the opposite port did not:

        r[s, j] = prod_{s' < s} (1-q[s',0])(1-q[s',1]) * q[s,j] * (1-q[s,1-j])

    and the pulse is discarded iff both ports click in its first firing
    slot.  :func:`expected_event_rates` and :func:`any_click_probability`
    read the same closed form.
    """
    return np.cumsum(_first_fire_increments(q), axis=-1)


def click_bound(dist: SlotPortDistribution, mu_arrived: float, apd: ApdSpec | ApdPair) -> float:
    """Upper bound on the any-click probability of ``dist`` at every
    receiver phase: 1 - prod(1-d) * exp(-eta_max * mu * p_total).

    Only the two S2 cells depend on the phase, and they always sum to the
    same weight, so p_total (the gated weight of ``dist``) does not.  The
    added 1e-12 covers rounding: the totals :func:`first_fire_table`
    computes can exceed the exact value by a few ulps.
    """
    pair = as_apd_pair(apd)
    gates = pair[0].gates_per_pulse
    p_total = float(dist.p[Slot.S2].sum() if gates == 1 else dist.p.sum())
    eta_max = max(a.efficiency for a in pair)
    dark = ((1.0 - pair[0].dark_per_gate) * (1.0 - pair[1].dark_per_gate)) ** gates
    return 1.0 - dark * math.exp(-eta_max * mu_arrived * p_total) + 1e-12


def sample_outcomes(
    u: np.ndarray,
    states: np.ndarray,
    n_states: int,
    rows: Callable[[int, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Outcome of each pulse from its uniform ``u`` and incoming state.

    The pulses are taken one state at a time: for each k < ``n_states``,
    ``rows(k, idx)`` gets the ascending indices ``idx`` of the pulses in
    state k and returns cumulative outcome probabilities, either the
    state's (K,) table row or, under phase drift, one (len(idx), K) row
    per pulse.  A pulse's outcome is the number of row edges at or below
    its uniform, so K means none of the K outcomes the row lists.  This
    one sampler serves the attacker (:func:`eavesdrop.attack_batch`) and
    the receiver (:func:`detect_batch`).
    """
    outcomes = np.zeros(len(u), dtype=np.uint8)
    for k in range(n_states):
        idx = np.flatnonzero(states == k)
        u_k = u[idx]
        count = np.zeros(idx.size, dtype=np.uint8)
        for edge in np.transpose(rows(k, idx)):
            count += u_k >= edge
        outcomes[idx] = count
    return outcomes


def detect_batch(
    states: np.ndarray,
    limits: np.ndarray,
    rows: Callable[[int, np.ndarray], np.ndarray],
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """First-fire detection of a batch from one float64 uniform per pulse.

    ``states`` holds each pulse's incoming-state index and ``limits`` one
    entry per state: at least the any-click probability (the last entry of
    the :func:`first_fire_table` row) of every pulse in that state, or a
    bound on it.  A pulse whose uniform is at or above its state's limit
    cannot click, so only the others, the candidates, are sampled by
    :func:`sample_outcomes`.  ``rows(k, idx)`` takes the batch indices of
    the candidates in state k and returns the state's (7,) first-fire row
    or one (len(idx), 7) row per pulse.  The result equals sampling every
    pulse.

    Returns per-pulse (registered, slot, port, any_click); slot and port
    are zero where registered is False, and any_click counts double-click
    discards too, which is the quantity exposed to dark counts.
    """
    n = len(states)
    u = rng.random(n)
    candidates = np.flatnonzero(u < limits[states])
    outcome = sample_outcomes(
        u[candidates], states[candidates], len(limits), lambda k, idx: rows(k, candidates[idx])
    )
    registered = np.zeros(n, dtype=bool)
    any_click = np.zeros(n, dtype=bool)
    slot = np.zeros(n, dtype=np.uint8)
    port = np.zeros(n, dtype=np.uint8)
    cell = outcome < N_CELLS
    hits = candidates[cell]
    registered[hits] = True
    slot[hits] = outcome[cell] // 2
    port[hits] = outcome[cell] % 2
    any_click[candidates[outcome <= N_CELLS]] = True
    return registered, slot, port, any_click


def expected_event_rates(
    dist: SlotPortDistribution, mu_arrived: float, apd: ApdSpec | ApdPair
) -> np.ndarray:
    """Exact (3, 2) per-cell registration probabilities under first-fire:
    the six cell increments of :func:`first_fire_table`."""
    q = cell_click_probabilities(dist, mu_arrived, apd)
    return _first_fire_increments(q)[:N_CELLS].reshape(3, 2)


def any_click_probability(
    dist: SlotPortDistribution, mu_arrived: float, apd: ApdSpec | ApdPair
) -> float:
    """Probability that at least one gated cell clicks (pre-discard): the
    total of :func:`first_fire_table`."""
    return float(first_fire_table(cell_click_probabilities(dist, mu_arrived, apd))[N_CELLS])

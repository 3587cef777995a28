"""Photon statistics, gated detector clicks, and first-fire registration.

A weak coherent pulse with mean photon number mu arriving at a detector
cell with probability weight p produces a click with probability

    1 - (1 - d) * exp(-eta * mu * p)

where eta is the detection efficiency and d the dark-count probability per
gate.  With three gated slots there are six (slot, port) cells per pulse;
the baselines gate two (S3 dark: the conventional one-edge-slot receiver)
or only the central one (for the tripled dark-count exposure).

Registration applies the first-fire rule: only the earliest slot with at
least one click counts, which also neutralises after-pulsing from earlier
avalanches.  If both ports click in that slot the pulse is discarded.
So a pulse has eight outcomes: six (slot, port) registrations, the
discard, and no click.  Their cumulative probabilities have a closed form
(:func:`first_fire_table`), and a pulse's outcome is sampled from one
uniform and its own row with :func:`sample_outcomes`, the sampler the
attacker uses too.  Rows are edge-major: n pulses' rows of K edges are a
(K, n) array, one contiguous row per edge, and their click probabilities
a (6, n) array, cells on the leading axis.  Click probabilities and the
drift bound take (3, 2, ...) slot/port weight arrays, so one call over
``optics.slot_port_probabilities`` of k states gives their (6, k) table;
only :func:`expected_event_rates`, the one-state oracle API of the tests
and the benchmark's checks, takes a ``SlotPortDistribution``.  Most
pulses of a lossy link cannot click: a pulse whose uniform is at or above
an upper bound ``p`` on every click probability is "no click" without
further work.  So :func:`draw_candidates` draws only the pulses whose
uniform lies below ``p`` (the candidates), as geometric gaps between
positions, and gives each the uniform ``p * v``, ``v`` uniform on [0, 1):
exactly the law of a uniform given that it lies below ``p``.
:func:`detect_batch` then evaluates only those candidates; the session
calls it once per slice of up to 2^16 of a batch's candidates, each slice
a :class:`Candidates` of its own over the pulses it spans.

All randomness flows through :class:`RngHandle`, which derives named
substreams (one per domain, batch or sweep point) from a single 64-bit
seed, so that identical seed and configuration reproduce identical event
streams.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
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
    """Gated avalanche photodiode; both of a receiver's detectors are gated
    together (``SessionConfig.gates_per_pulse``).  A pulse whose first
    firing slot clicks on both ports is discarded.  Defaults for efficiency
    and dark counts are typical 1.55 um InGaAs values, not measured device
    figures.
    """

    efficiency: float = 0.1
    dark_per_gate: float = 1e-5

    def __post_init__(self) -> None:
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if not 0.0 <= self.dark_per_gate < 1.0:
            raise ValueError("dark_per_gate must lie in [0, 1)")


# Substream domains; the derivation rule is
#   numpy.random.SeedSequence((seed, domain[, index]))
# with index = batch number for batched domains (DOMAIN_JITTER uses 2*batch
# for the attacker's leg and 2*batch + 1 for the receiver's), or sweep-point
# number.  DOMAIN_ALICE gives one 64-bit key (child_seed with index 0),
# from which protocol.PulseTrain computes each pulse's state.  Per batch,
# DOMAIN_DETECT gives the candidates (draw_candidates): standard
# exponentials for the gaps between candidate positions, drawn in blocks
# until the batch is passed, then one float64 uniform per candidate.
# DOMAIN_EVE (attacker on) gives one float64 uniform per candidate and each
# drifting DOMAIN_JITTER leg one standard normal per candidate.  The rule
# and these draws are part of the reproducibility contract and must not
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
        """A derived 64-bit seed: the transmitter's DOMAIN_ALICE key
        (index 0) and the seeds of per-point sweep sessions."""
        ss = np.random.SeedSequence((self.seed, domain, index))
        return int(ss.generate_state(1, dtype=np.uint64)[0])


ApdPair = tuple[ApdSpec, ApdSpec]


def click_probability(p_slot_port, mu_arrived: float, apd: ApdSpec):
    """Per-gate click probability of (slot, port) cells with probability
    weights ``p_slot_port`` (a scalar or an array of any shape)."""
    if mu_arrived < 0 or np.any(np.asarray(p_slot_port) < 0):
        raise ValueError("probability weight and mu must be >= 0")
    return 1.0 - (1.0 - apd.dark_per_gate) * np.exp(
        -apd.efficiency * mu_arrived * p_slot_port
    )


def _ungated_slots(gates: int) -> list[Slot]:
    """The slots left dark by ``gates`` gates per pulse: S3 first, then S1."""
    if gates not in (1, 2, 3):
        raise ValueError(f"gates must be 1, 2 or 3, got {gates}")
    return [Slot.S3, Slot.S1][: 3 - gates]


def cell_click_probabilities(w, mu_arrived: float, apds: ApdPair, gates: int = 3) -> np.ndarray:
    """(6, ...) click probabilities, cells slot-major, of (3, 2, ...)
    slot/port weights ``w`` (one state's (3, 2) table, or k states' as
    ``np.array(slot_port_probabilities(...))`` gives them) with the (D0, D1)
    detectors ``apds``, both armed in ``gates`` slots per pulse (see
    :func:`_ungated_slots`).  Ungated cells are zero."""
    w = np.asarray(w, dtype=float)
    q = np.stack([click_probability(w[:, port], mu_arrived, apds[port]) for port in (0, 1)], axis=1)
    q[_ungated_slots(gates)] = 0.0
    return q.reshape((N_CELLS,) + w.shape[2:])


def _first_fire_increments(q):
    """The seven first-fire outcome probabilities of (6, ...) click
    probabilities ``q``, one array per outcome in edge order; see
    :func:`first_fire_table`."""
    shadow, discard = 1.0, 0.0
    for s in range(3):
        q0, q1 = q[2 * s], q[2 * s + 1]
        n0, n1 = 1.0 - q0, 1.0 - q1
        r0, r1 = shadow * q0, shadow * q1
        yield r0 * n1
        yield r1 * n0
        discard = discard + r0 * q1
        shadow = shadow * (n0 * n1)
    yield discard


def cumulative_edges(increments: list) -> np.ndarray:
    """Running sums of K broadcastable outcome probabilities, added one
    after another: a (K, ...) array with one contiguous row per edge."""
    edges = np.empty((len(increments),) + np.broadcast_shapes(*map(np.shape, increments)))
    edges[0] = increments[0]
    for k in range(1, len(increments)):
        np.add(edges[k - 1], increments[k], out=edges[k, ...])
    return edges


def first_fire_table(q) -> np.ndarray:
    """Cumulative first-fire outcome probabilities for (6, ...) per-cell
    click probabilities ``q``, cells slot-major on the leading axis.

    Returns (7, ...) edges, edge-major: the six (slot, port) registrations
    in slot-major order, then the double-click discard, one contiguous
    row per edge.  The remainder up to 1 is "no click", so the last edge
    is the probability that any gated cell clicks.  Cell (s, j) registers
    iff no earlier slot clicked, port j clicked and the opposite port did
    not:

        r[s, j] = prod_{s' < s} (1-q[s',0])(1-q[s',1]) * q[s,j] * (1-q[s,1-j])

    and the pulse is discarded iff both ports click in its first firing
    slot.  :func:`expected_event_rates` reads the same closed form.
    """
    return cumulative_edges(list(_first_fire_increments(np.asarray(q, dtype=float))))


def click_bound(w, mu_arrived: float, apds: ApdPair, gates: int = 3) -> float:
    """Upper bound on the any-click probability at every receiver phase of
    each state whose (3, 2, ...) slot/port weights are ``w``, the largest
    over the trailing axis: 1 - prod(1-d) * exp(-eta_max * mu * p_total).

    Only the two S2 cells depend on the phase, and they always sum to the
    same weight, so p_total (a state's gated weight) does not.  The bound
    grows with p_total, so the largest state's is every state's.  The
    added 1e-12 covers rounding: the totals :func:`first_fire_table`
    computes can exceed the exact value by a few ulps.  A probability
    cannot exceed 1, so neither does the bound.
    """
    p_total = float(np.delete(w, _ungated_slots(gates), axis=0).sum(axis=(0, 1)).max())
    eta_max = max(a.efficiency for a in apds)
    dark = ((1.0 - apds[0].dark_per_gate) * (1.0 - apds[1].dark_per_gate)) ** gates
    return min(1.0, 1.0 - dark * math.exp(-eta_max * mu_arrived * p_total) + 1e-12)


def sample_outcomes(u: np.ndarray, rows: Iterable[np.ndarray]) -> np.ndarray:
    """Outcome of each pulse from its uniform ``u`` and its own row of K
    cumulative outcome probabilities, given edge by edge: ``rows`` yields K
    arrays shaped like ``u`` (a (K, n) edge-major array qualifies).  The
    outcome is the number of edges at or below the uniform, so K means none
    of the K outcomes.  The attacker (:func:`eavesdrop.attack_batch`) and the
    receiver (:func:`detect_batch`) both sample with it."""
    count = np.zeros(len(u), dtype=np.uint8)
    for edge in rows:
        count += u >= edge
    return count


@dataclass(frozen=True)
class Candidates:
    """The pulses of a batch of ``size`` pulses that can click: ``offsets``
    holds their ascending positions in the batch and ``u`` their detection
    uniforms.  A slice of a batch's candidates keeps their batch positions,
    with ``size`` the pulses the slice spans, so the sizes of a batch's
    slices add up to its own.  ``len()`` is ``size``."""

    size: int
    offsets: np.ndarray
    u: np.ndarray

    def __len__(self) -> int:
        return self.size


def draw_candidates(m: int, p: float, rng: np.random.Generator) -> Candidates:
    """The pulses of an m-pulse batch whose detection uniform lies below ``p``.

    Their positions are separated by geometric gaps on {1, 2, ...} with
    success probability ``p``, each ``floor(E / -log1p(-p)) + 1`` with E
    standard exponential; the exponentials are drawn in blocks of about
    ``m * p`` until the positions pass the batch.  Then each candidate gets
    the uniform ``p * v``, v uniform on [0, 1).  ``p <= 0`` gives no
    candidates and ``p >= 1`` every pulse.
    """
    if p >= 1.0:
        offsets = np.arange(m)
    elif p <= 0.0:
        offsets = np.empty(0, dtype=np.int64)
    else:
        rate = -math.log1p(-p)
        block = int(m * p + 6.0 * math.sqrt(m * p)) + 16
        blocks = []
        last = -1
        while last < m - 1:
            # A gap past the batch ends it, so gaps are capped at m + 1; the
            # cap also keeps a tiny rate's overflow out of the integer cast.
            gaps = rng.standard_exponential(block)
            with np.errstate(over="ignore"):
                gaps /= rate
            positions = np.minimum(gaps, m, out=gaps).astype(np.int64)
            positions[0] += last
            positions += 1
            np.cumsum(positions, out=positions)
            blocks.append(positions)
            last = int(positions[-1])
        offsets = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        offsets = offsets[: np.searchsorted(offsets, m)]
    u = rng.random(offsets.size)
    u *= min(p, 1.0)
    return Candidates(m, offsets, u)


def detect_batch(
    batch: Candidates, rows: Iterable[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """First-fire detection of the candidates of a batch.

    ``rows`` gives the candidates' :func:`first_fire_table` rows one edge
    at a time as for :func:`sample_outcomes`: seven arrays of one edge per
    candidate, such as a (7, n) edge-major table.  The candidates must
    have been drawn with a ``p`` at least every pulse's any-click
    probability (the row's last entry), so a pulse that is not a candidate
    cannot click.

    Returns per-candidate (registered, slot, port, any_click).  slot and
    port are meaningful only where registered; any_click counts
    double-click discards too, which is the quantity exposed to dark counts.
    """
    outcome = sample_outcomes(batch.u, rows)
    return outcome < N_CELLS, outcome // 2, outcome % 2, outcome <= N_CELLS


def expected_event_rates(dist: SlotPortDistribution, mu_arrived: float, apds: ApdPair,
                         gates: int = 3) -> np.ndarray:
    """Exact (3, 2) first-fire registration probabilities per cell with
    ``gates`` slots armed: the six cell increments of :func:`first_fire_table`.
    The one-state oracle of the benchmark's checks and the tests."""
    q = cell_click_probabilities(dist.p, mu_arrived, apds, gates)
    return np.array(list(_first_fire_increments(q))[:N_CELLS]).reshape(3, 2)

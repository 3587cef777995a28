"""End-to-end session orchestration: source -> transmitter -> channel
(-> attacker) -> receiver -> detectors -> sifting protocol -> summary.

Pulses are processed in fixed-size batches with per-batch random
substreams, so results are reproducible for a given (seed, config) and the
batches could in principle be evaluated in parallel and merged by pulse
index.  A station sees at most five distinct incoming states (the four
canonical ones plus vacuum when the attacker suppresses a pulse), and
``_link(config)`` builds both once per session.  Each states its outcome
law once, as a head and a tail (``_receiver``, ``_attacker``) that
``_station`` turns into rows: the head is a state's first two edges, which
no phase moves, and the tail the increments from S2 on, from
``optics.s2_weights`` at the pulse's phase.  A station's table is its rows
of all states at the leg's offset, which a steady leg (sigma 0) only
gathers; the receiver's vacuum column gives the dark registration rate.
``_detect_events`` samples both stations' rows with
``detection.sample_outcomes``.

The transmitter's choices come from one 64-bit DOMAIN_ALICE key through
the counter-based ``PulseTrain``, so they cost nothing until read.  Per
batch, ``detection.draw_candidates`` draws the pulses whose detection
uniform lies below p, the largest any-click probability of the incoming
states (under receiver drift, a phase-independent bound on it).  A pulse
that is not a candidate cannot click whatever the attacker forwards, so
everything else runs on the candidates only, well under 1% of pulses on a
25 km link; the substreams they draw on are listed in ``detection``.
After the batch's draws, one pass walks its candidates in slices of
2^16, small enough that a slice's temporaries stay in cache: each slice
is hashed into transmitter states, attacked, given its receiver rows,
detected and compacted at once into its events (pulse, slot, port and
transmitter state).  The slices' events are concatenated after the last
batch, and the per-slice lists and batch arrays are freed before sifting.
The summary reads the events' transmitter states from this pass rather
than hashing them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import eavesdrop
from .channel import transmittance
from .config import SessionConfig, with_values
from .detection import (
    DOMAIN_ALICE,
    DOMAIN_DETECT,
    DOMAIN_EVE,
    DOMAIN_JITTER,
    DOMAIN_SAMPLE,
    DOMAIN_SWEEP,
    N_CELLS,
    ApdSpec,
    Candidates,
    RngHandle,
    cell_click_probabilities,
    click_bound,
    click_probability,
    detect_batch,
    draw_candidates,
    first_fire_increments,
    running_sums,
)
from .optics import (
    CANONICAL_AMPLITUDES,
    CANONICAL_STATES,
    AmzSpec,
    PhaseSpec,
    interference_terms,
    s2_weights,
    slot_port_probabilities,
)
# Unused here: the benchmark's tracer wraps ``session.bob_transform`` and
# reports its calls, which the run path no longer makes.
from .optics import bob_transform  # noqa: F401
from .protocol import (
    ClassifiedEvents,
    InsufficientKeyError,
    PulseTrain,
    SiftedKey,
    classify_arrays,
    run_protocol,
)

BATCH_SIZE = 1 << 20  # fixed: part of the reproducibility contract


@dataclass(frozen=True)
class SessionSummary:
    """Counts and rates of one completed session.

    conclusive_count is the basis-matched subset of events_registered that
    survives sifting (before sample disclosure).  dark_fraction_estimate is
    the exact expected number of dark-count registrations (n times the
    vacuum column's rate) over the observed events_registered, capped at 1.
    qber is the protocol's sampled estimate, while the true_* fields are
    simulator diagnostics computed by comparing both stations' full sifted
    strings, which no real deployment could do.  summary.csv has one column
    per field, in this order.
    """

    pulses_sent: int
    events_registered: int
    conclusive_count: int
    sifted_length: int
    qber: float
    sifted_rate_per_pulse: float
    dark_fraction_estimate: float
    conclusive_z: int
    conclusive_x: int
    true_qber: float
    true_qber_z: float
    true_qber_x: float


@dataclass
class SessionResult:
    summary: SessionSummary
    alice_key: SiftedKey
    bob_key: SiftedKey
    records: PulseTrain
    classifications: ClassifiedEvents


def summarize(
    n: int,
    classifications: ClassifiedEvents,
    sent: np.ndarray,
    key: SiftedKey,
    dark_register_prob: float,
) -> SessionSummary:
    """Counts, rates and diagnostic error rates of a finished session of
    ``n`` pulses; ``sent`` holds the transmitter's state index of each
    event's pulse, ``key`` is the transmitter's sifted key and
    ``dark_register_prob`` the per-pulse registration probability of dark
    counts alone."""
    ev = classifications
    # Masks over all events: a boolean gather of the matched half costs
    # more than these elementwise passes.
    matched = (sent >> 1) == ev.bases
    errors = matched & ((sent & 1) != ev.bits)
    z_mask = ev.bases == 0
    conclusive = int(np.count_nonzero(matched))
    conclusive_z = int(np.count_nonzero(matched & z_mask))
    conclusive_x = conclusive - conclusive_z

    def _rate(err_mask: np.ndarray, denom: int) -> float:
        return float(np.count_nonzero(err_mask)) / denom if denom else 0.0

    return SessionSummary(
        pulses_sent=n,
        events_registered=len(ev),
        conclusive_count=conclusive,
        sifted_length=len(key),
        qber=key.qber_estimate,
        sifted_rate_per_pulse=conclusive / n,
        dark_fraction_estimate=min(n * dark_register_prob / len(ev), 1.0),
        conclusive_z=conclusive_z,
        conclusive_x=conclusive_x,
        true_qber=_rate(errors, conclusive),
        true_qber_z=_rate(errors & z_mask, conclusive_z),
        true_qber_x=_rate(errors & ~z_mask, conclusive_x),
    )


# ---------------------------------------------------------------------------
# The link: per-state tables and per-candidate rows
# ---------------------------------------------------------------------------


def _prepared_amplitudes(alice_amz: PhaseSpec) -> np.ndarray:
    """Canonical amplitudes with the transmitter's phase offset on the late bin."""
    amps = CANONICAL_AMPLITUDES.copy()
    amps[:, 1] *= np.exp(1j * alice_amz.phase_offset_rad)
    return amps


def _station(incoming, spec: AmzSpec, sigma: float, head, tail):
    """``(table, rows)`` of a station fed the states ``incoming``: a state's row
    is its ``head`` edges, then the running sums of ``tail(s2, states)`` onto
    the second, ``s2`` the S2 weights at the phase.  ``table`` holds each
    state's row at the leg's offset; ``rows(states, normals, chunk)`` gathers it
    if sigma is 0, else gives each candidate's at ``offset + sigma * normals[chunk]``."""
    terms = interference_terms(*incoming.T)
    def rows(states, normals, chunk):
        phases = spec.phase_offset_rad + sigma * normals[chunk]
        s2 = s2_weights(*(t.take(states) for t in terms), spec, phases)
        edge0, edge1 = (edge.take(states) for edge in head)
        return [edge0, edge1, *running_sums(tail(s2, states), edge1)]
    table = np.array(rows(np.arange(len(incoming)), np.zeros(len(incoming)), slice(None)))
    if sigma == 0.0:
        return table, lambda states, normals, chunk: (edge.take(states) for edge in table)
    return table, rows


def _receiver(q_table, mu: float, apds):
    """The receiver's ``(head, tail)`` for states with (6, k) click probabilities
    ``q_table``: the first-fire recurrence on the S1 clicks, resumed from each
    state's S1 shadow and discard on the S2 clicks and the state's S3 clicks."""
    (r0, r1, discard), shadow = first_fire_increments(q_table[:2])
    def tail(s2, states):
        q_s2 = [click_probability(w, mu, apd) for w, apd in zip(s2, apds)]
        q = [*q_s2, *(c.take(states) for c in q_table[4:])]
        return first_fire_increments(q, shadow.take(states), discard.take(states))[0]
    return list(running_sums([r0, r1])), tail


def _attacker(cells):
    """The attacker's ``(head, tail)`` for states with slot/port weights ``cells``:
    her six outcomes are the cells, so her S1 weights, S2 weights and S3 weights."""
    return list(running_sums(cells[0])), lambda s2, states: [*s2, *(w.take(states) for w in cells[2])]


def _arrived(config: SessionConfig, amplitudes: np.ndarray):
    """``amplitudes`` and the vacuum scaled by the fiber, and their (3, 2, k) receiver weights."""
    arrived = math.sqrt(transmittance(config.channel)) * np.vstack([amplitudes, np.zeros(2)])
    return arrived, np.array(slot_port_probabilities(*arrived.T, config.bob_amz))


def _link(config: SessionConfig):
    """The session's sampling law: the attacker's rows (None when she is off),
    both legs' sigmas (attacker, receiver), the receiver's rows, the candidate
    bound and the per-pulse registration probability of dark counts alone."""
    apds, gates, mu = (config.apd_d0, config.apd_d1), config.gates_per_pulse, config.source.mu
    # The phase riding on a prepared state's late bin combines with the
    # receiver-arm offset inside slot_port_probabilities, so the effective
    # interference phase per leg is (receiver offset - transmitter offset).
    prepared = _prepared_amplitudes(config.alice_amz)
    jitter, bob_amz, eve_amz = config.alice_amz.phase_jitter_rad, config.bob_amz, config.eve.apparatus
    eve_rows, incoming, sigmas = None, prepared, (0.0, math.hypot(jitter, bob_amz.phase_jitter_rad))
    if config.eve.enabled:
        sigmas = (math.hypot(jitter, eve_amz.phase_jitter_rad), bob_amz.phase_jitter_rad)
        cells = slot_port_probabilities(*prepared.T, eve_amz)
        _, eve_rows = _station(prepared, eve_amz, sigmas[0], *_attacker(cells))
        # Re-prepared states are fresh canonical ones, or vacuum (the last
        # column) for a suppressed pulse: only the receiver's own jitter
        # acts on the final leg.
        incoming = CANONICAL_AMPLITUDES
    incoming, weights = _arrived(config, incoming)
    q_table = cell_click_probabilities(weights, mu, apds, gates)
    table, bob_rows = _station(incoming, bob_amz, sigmas[1], *_receiver(q_table, mu, apds))
    # Under receiver drift a pulse's click probability moves with its
    # phase, so candidates are drawn below a phase-independent bound.
    p = click_bound(weights, mu, apds, gates) if sigmas[1] > 0.0 else table[-1].max()
    return eve_rows, sigmas, bob_rows, p, float(table[N_CELLS - 1, -1])


_ROW_CHUNK = 1 << 16  # candidates per slice of a batch's pass


def _candidate_slices(batch: Candidates):
    """``batch`` in slices of up to _ROW_CHUNK candidates, at least one:
    (slice, Candidates) pairs.  Each slice but the first starts at its first
    candidate's pulse, so the slices' sizes add up to the batch's."""
    m = batch.offsets.size
    for c0 in range(0, max(m, 1), _ROW_CHUNK):
        c1 = min(c0 + _ROW_CHUNK, m)
        begin = int(batch.offsets[c0]) if c0 else 0
        end = int(batch.offsets[c1]) if c1 < m else batch.size
        chunk = slice(c0, c1)
        yield chunk, Candidates(end - begin, batch.offsets[chunk], batch.u[chunk])


# ---------------------------------------------------------------------------
# Main entry points
# ---------------------------------------------------------------------------


def run_session(config: SessionConfig) -> SessionResult:
    """Simulate a full key-distribution session.

    Raises InsufficientKeyError when the sifted key cannot support the
    configured disclosure fraction (including empty sessions).
    """
    rng = RngHandle(config.seed)
    n = config.n_pulses
    if n == 0:
        raise InsufficientKeyError("zero-pulse session yields no key to sample")

    records = PulseTrain(n, rng.child_seed(DOMAIN_ALICE, 0))
    classifications, sent, dark_register_prob = _detect_events(config, records, rng)
    key_a, key_b, _ = run_protocol(
        records, classifications, config.sample_fraction, rng.stream(DOMAIN_SAMPLE)
    )
    summary = summarize(n, classifications, sent, key_a, dark_register_prob)
    return SessionResult(summary, key_a, key_b, records, classifications)


def _detect_events(config: SessionConfig, records: PulseTrain, rng: RngHandle):
    """The session's registered events, the transmitter state of each one's
    pulse and the per-pulse registration probability of dark counts alone.
    Every per-batch and per-slice array is freed on return."""
    n = config.n_pulses
    eve_rows, sigmas, bob_rows, p, dark_register_prob = _link(config)
    events: list[tuple[np.ndarray, ...]] = []  # (pulse, slot, port, sent) per slice

    n_batches = (n + BATCH_SIZE - 1) // BATCH_SIZE
    for b in range(n_batches):
        lo = b * BATCH_SIZE
        hi = min(lo + BATCH_SIZE, n)
        batch = draw_candidates(hi - lo, p, rng.indexed_stream(DOMAIN_DETECT, b))
        m = batch.offsets.size
        eve_u = rng.indexed_stream(DOMAIN_EVE, b).random(m) if eve_rows is not None else None
        eve_normals, bob_normals = (
            rng.indexed_stream(DOMAIN_JITTER, 2 * b + leg).standard_normal(m) if s > 0.0 else None
            for leg, s in enumerate(sigmas))

        # One pass over cache-sized slices of the candidates, each station
        # sampling from its own rows (see _station).  The receiver's rows stay
        # bound until the next slice's replace them: freed at once, they let
        # the allocator trim the heap top and fault it back in on every slice.
        for chunk, cand in _candidate_slices(batch):
            pulses = lo + cand.offsets
            sent = records.states(pulses)
            states = sent.astype(np.intp)
            if eve_rows is not None:
                _, resent = eavesdrop.attack_batch(eve_u[chunk], eve_rows(states, eve_normals, chunk))
                states = resent.astype(np.intp)
            rows = bob_rows(states, bob_normals, chunk)
            registered, slot, port, _ = detect_batch(cand, rows)
            at = np.flatnonzero(registered)
            events.append((pulses.take(at), slot.take(at), port.take(at), sent.take(at)))

    idx, slots, ports, sent = (np.concatenate(column) for column in zip(*events))
    del events  # the slices' arrays go before classifying allocates
    return ClassifiedEvents(idx, *classify_arrays(slots, ports)), sent, dark_register_prob


# ---------------------------------------------------------------------------
# Exact profile and parameter sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileRow:
    state: str
    slot: str
    port: str
    probability: float


def profile_rows(config: SessionConfig, sampled_pulses: int = 0) -> list[ProfileRow]:
    """Per-state intensity profile rows: the transmitter's two output bins
    followed by the receiver's six slot/port probabilities.

    With sampled_pulses > 0 the receiver probabilities are estimated by
    Monte Carlo instead: per-cell click frequencies, with all three slots
    gated, are inverted through the detector response, emulating a
    classical intensity measurement.  The rows describe the light, so the
    gate count does not enter either mode.  The transmitter rows stay
    analytic in both modes.
    """
    if isinstance(sampled_pulses, bool) or not 0 <= sampled_pulses < 2**63:
        raise ValueError(f"sampled_pulses must be >= 0 and below 2**63 (int64 counts), got {sampled_pulses}")
    rng = RngHandle(config.seed)
    apds = (config.apd_d0, config.apd_d1)
    prepared = _prepared_amplitudes(config.alice_amz)
    _, weights = _arrived(config, prepared)
    rows: list[ProfileRow] = []
    for k, state in enumerate(CANONICAL_STATES):
        label, w = state.label(), weights[..., k]
        if sampled_pulses > 0:
            w = _sampled_cell_probabilities(w, config.source.mu, apds, sampled_pulses,
                                            rng.indexed_stream(DOMAIN_DETECT, 1000 + k))
        rows += [ProfileRow(label, f"bin{b}", "link", float(abs(prepared[k, b]) ** 2)) for b in (0, 1)]
        rows += [ProfileRow(label, f"S{s + 1}", f"D{j}", float(w[s, j])) for s in range(3) for j in (0, 1)]
    return rows


def _sampled_cell_probabilities(w: np.ndarray, mu: float, apds: tuple[ApdSpec, ApdSpec], n_pulses: int,
                                rng: np.random.Generator) -> np.ndarray:
    """Invert empirical click frequencies of the (3, 2) weights ``w``, all
    three slots gated, through the detector response; each cell's click
    count over ``n_pulses`` pulses is one binomial draw."""
    counts = rng.binomial(n_pulses, cell_click_probabilities(w, mu, apds))
    freq = counts / n_pulses
    p = np.zeros(6)
    for cell in range(6):
        apd = apds[cell % 2]
        eff = apd.efficiency * mu
        if eff <= 0.0:
            continue
        surv = (1.0 - min(freq[cell], 1.0 - 1e-12)) / (1.0 - apd.dark_per_gate)
        p[cell] = max(0.0, -math.log(surv) / eff)
    return p.reshape(3, 2)


# Sweep axis -> the config values it sets.
SWEEP_AXES = {
    "length_km": ("channel.length_km",),
    "mu": ("source.mu",),
    "dark": ("apd_d0.dark_per_gate", "apd_d1.dark_per_gate"),
}


def sweep(config: SessionConfig, axis: str, values: list) -> list[tuple[float, SessionSummary]]:
    """Run one session per value along an axis, with derived sub-seeds: each
    value, a number or its text, is read as ``with_values`` reads it.  Every
    point's config is built, and so checked, before the first runs."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {tuple(SWEEP_AXES)}")
    if not values:
        raise ValueError("sweep requires at least one value")
    root = RngHandle(config.seed)
    configs = [
        with_values(config, {**dict.fromkeys(SWEEP_AXES[axis], value),
                             "session.seed": root.child_seed(DOMAIN_SWEEP, i)})
        for i, value in enumerate(values)
    ]
    return [(float(value), run_session(cfg).summary) for value, cfg in zip(values, configs)]

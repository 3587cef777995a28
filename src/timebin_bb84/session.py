"""End-to-end session orchestration: source -> transmitter -> channel
(-> attacker) -> receiver -> detectors -> sifting protocol -> summary.

Pulses are processed in fixed-size batches with per-batch random
substreams, so results are reproducible for a given (seed, config) and the
batches could in principle be evaluated in parallel and merged by pulse
index.  A session sees at most five distinct incoming states (the four
canonical ones plus vacuum when the attacker suppresses a pulse), so click
and attack-outcome probabilities come from per-state tables, each built in
one broadcast call over the states' amplitudes; the receiver's always has
the vacuum column, which gives the dark registration rate.  Both
stations sample with ``detection.sample_outcomes`` from each pulse's own
cumulative row: its state's table row, taken one edge at a time.  On a
receiver leg with phase drift (sigma > 0) only the two S2 cells move with
the phase, so per-state constants from the tables give the rest of a row
and per candidate only ``optics.s2_weights`` and what follows is computed.
A drifting attacker's rows are ``eavesdrop.cumulative_outcomes`` of the
candidates' amplitudes and phases, in broadcast calls.  Rows are
edge-major: the tables are (K, k) over the k states, one contiguous row
per edge.

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
The summary and the in-process transmitter read the events' transmitter
states from this pass rather than hashing them again.
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
    first_fire_table,
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
# Per-state click-probability tables
# ---------------------------------------------------------------------------


def _prepared_amplitudes(alice_amz: PhaseSpec) -> np.ndarray:
    """Canonical amplitudes with the transmitter's phase offset on the late bin."""
    amps = CANONICAL_AMPLITUDES.copy()
    amps[:, 1] *= np.exp(1j * alice_amz.phase_offset_rad)
    return amps


def _drifting_receiver(incoming, q_table, cum_table, bob_amz: AmzSpec, mu: float, apds):
    """Rows of a drifting receiver's candidates, a function of their states
    and phases: only S2 moves with the phase, so each state's interference
    terms, first two edges, S1 shadow and discard and S3 clicks are kept,
    and the first-fire recurrence resumes at S2."""
    (_, _, s1_discard), s1_shadow = first_fire_increments(q_table[:2])
    consts = [*interference_terms(*incoming.T), *cum_table[:2], s1_shadow, s1_discard, *q_table[4:]]
    def rows(states, phases):
        intensity, re, im, edge0, edge1, shadow, discard, q_s3_d0, q_s3_d1 = (c.take(states) for c in consts)
        s2 = s2_weights(intensity, re, im, bob_amz, phases)
        q_s2 = [click_probability(w, mu, apd) for w, apd in zip(s2, apds)]
        increments, _ = first_fire_increments([*q_s2, q_s3_d0, q_s3_d1], shadow, discard)
        return [edge0, edge1, *running_sums(increments, edge1)]
    return rows


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
        records, classifications, config.sample_fraction, rng.stream(DOMAIN_SAMPLE), sent=sent
    )
    summary = summarize(n, classifications, sent, key_a, dark_register_prob)
    return SessionResult(summary, key_a, key_b, records, classifications)


def _detect_events(config: SessionConfig, records: PulseTrain, rng: RngHandle):
    """The session's registered events, the transmitter state of each one's
    pulse and the per-pulse registration probability of dark counts alone.
    Every per-batch and per-slice array is freed on return."""
    n = config.n_pulses
    apds, gates = (config.apd_d0, config.apd_d1), config.gates_per_pulse
    mu = config.source.mu

    # The phase riding on a prepared state's late bin combines with the
    # receiver-arm offset inside slot_port_probabilities, so the effective
    # interference phase per leg is (receiver offset - transmitter offset).
    prepared = _prepared_amplitudes(config.alice_amz)
    bob_amz = config.bob_amz
    eve_on = config.eve.enabled
    if eve_on:
        eve_cum = eavesdrop.cumulative_outcomes(*prepared.T, config.eve)
        sigma_eve_leg = math.hypot(
            config.alice_amz.phase_jitter_rad, config.eve.apparatus.phase_jitter_rad
        )
        # Re-prepared states are fresh canonical ones, or vacuum (the last
        # column) for a suppressed pulse: only the receiver's own jitter
        # acts on the final leg.
        incoming = CANONICAL_AMPLITUDES
        sigma_bob_leg = config.bob_amz.phase_jitter_rad
    else:
        incoming = prepared
        sigma_bob_leg = math.hypot(
            config.alice_amz.phase_jitter_rad, config.bob_amz.phase_jitter_rad
        )

    # The fiber scales every amplitude by sqrt(transmittance).
    incoming = math.sqrt(transmittance(config.channel)) * np.vstack([incoming, np.zeros(2)])
    # Cell-major tables: (3, 2, k) weights, (6, k) click probabilities,
    # (7, k) cumulative edges.
    weights = np.array(slot_port_probabilities(*incoming.T, bob_amz))
    q_table = cell_click_probabilities(weights, mu, apds, gates)
    cum_table = first_fire_table(q_table)
    # Under receiver drift a pulse's click probability moves with its
    # phase, so candidates are drawn below a phase-independent bound.
    if sigma_bob_leg > 0.0:
        p = click_bound(weights, mu, apds, gates)
        bob_drifted = _drifting_receiver(incoming, q_table, cum_table, bob_amz, mu, apds)
    else:
        p = cum_table[-1].max()

    events: list[tuple[np.ndarray, ...]] = []  # (pulse, slot, port, sent) per slice

    n_batches = (n + BATCH_SIZE - 1) // BATCH_SIZE
    for b in range(n_batches):
        lo = b * BATCH_SIZE
        hi = min(lo + BATCH_SIZE, n)
        batch = draw_candidates(hi - lo, p, rng.indexed_stream(DOMAIN_DETECT, b))
        m = batch.offsets.size
        if eve_on:
            eve_u = rng.indexed_stream(DOMAIN_EVE, b).random(m)
            if sigma_eve_leg > 0.0:
                eve_normals = rng.indexed_stream(DOMAIN_JITTER, 2 * b).standard_normal(m)
        if sigma_bob_leg > 0.0:
            bob_normals = rng.indexed_stream(DOMAIN_JITTER, 2 * b + 1).standard_normal(m)

        # One pass over cache-sized slices of the candidates.  Each station
        # samples every candidate from its own cumulative row: on a
        # drifting receiver leg the S2 term of its phase on its state's
        # constants, on a drifting attacker leg broadcast calls over the
        # slice's amplitudes and phases, else its state's table row, taken
        # one edge at a time so that no (K, n) gather is held.
        for chunk, cand in _candidate_slices(batch):
            pulses = lo + cand.offsets
            sent = records.states(pulses)
            states = sent.astype(np.intp)
            if eve_on:
                if sigma_eve_leg > 0.0:
                    phases = config.eve.apparatus.phase_offset_rad + sigma_eve_leg * eve_normals[chunk]
                    eve_rows = eavesdrop.cumulative_outcomes(
                        *prepared.T.take(states, axis=1), config.eve, phases)
                else:
                    eve_rows = (edge.take(states) for edge in eve_cum)
                _, resent = eavesdrop.attack_batch(eve_u[chunk], eve_rows)
                states = resent.astype(np.intp)
            if sigma_bob_leg > 0.0:
                phases = bob_amz.phase_offset_rad + sigma_bob_leg * bob_normals[chunk]
                bob_rows = bob_drifted(states, phases)
            else:
                bob_rows = (edge.take(states) for edge in cum_table)
            registered, slot, port, _ = detect_batch(cand, bob_rows)
            at = np.flatnonzero(registered)
            events.append((pulses.take(at), slot.take(at), port.take(at), sent.take(at)))

    idx, slots, ports, sent = (np.concatenate(column) for column in zip(*events))
    del events  # the slices' arrays go before classifying allocates
    return ClassifiedEvents(idx, *classify_arrays(slots, ports)), sent, float(cum_table[N_CELLS - 1, -1])


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
    if not 0 <= sampled_pulses < 2**63:
        raise ValueError(f"sampled_pulses must be >= 0 and below 2**63 (int64 counts), got {sampled_pulses}")
    rng = RngHandle(config.seed)
    apds = (config.apd_d0, config.apd_d1)
    prepared = _prepared_amplitudes(config.alice_amz)
    arrived = math.sqrt(transmittance(config.channel)) * prepared
    weights = np.array(slot_port_probabilities(*arrived.T, config.bob_amz))
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


def sweep(config: SessionConfig, axis: str, values: list[float]) -> list[tuple[float, SessionSummary]]:
    """Run one session per value along an axis, with derived sub-seeds.
    Every point's config is built, and so checked, before the first runs."""
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
    return [(value, run_session(cfg).summary) for value, cfg in zip(values, configs)]

"""End-to-end session orchestration: source -> transmitter -> channel
(-> attacker) -> receiver -> detectors -> sifting protocol -> summary.

Pulses are processed in fixed-size batches with per-batch random
substreams, so results are reproducible for a given (seed, config) and the
batches could in principle be evaluated in parallel and merged by pulse
index.  Within a batch everything is vectorised over numpy arrays.  A
session sees at most five distinct incoming states (the four canonical
ones plus vacuum when the attacker suppresses a pulse), so click and
attack-outcome probabilities come from per-state tables.  Both stations
sample with ``detection.sample_outcomes``, one incoming state at a time:
each gets a per-state ``rows(k, idx)`` that returns the state's table row,
or under phase drift one row per pulse, recomputed from the pulses'
phases through the same optics and click formulas.

Per batch of m pulses the substreams give: DOMAIN_ALICE one
integers(0, 4) state per pulse, written as bit = s & 1 and basis = s >> 1;
DOMAIN_EVE (attacker on) one float64 uniform per pulse; DOMAIN_JITTER one
standard normal per pulse for each drifting leg (index 2*batch for the
attacker's, 2*batch + 1 for the receiver's); DOMAIN_DETECT one float64
uniform per pulse, which picks the pulse's first-fire outcome.  Detection
is thinned: a pulse whose uniform is at or above its state's click
probability (under receiver drift, a phase-independent bound on it) cannot
click, so the receiver's drifted S2 cells and first-fire row are computed
only for the others, well under 1% of pulses on a 25 km link.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import eavesdrop
from .channel import ChannelSpec, transmittance
from .config import SessionConfig
from .detection import (
    DOMAIN_ALICE,
    DOMAIN_DETECT,
    DOMAIN_EVE,
    DOMAIN_JITTER,
    DOMAIN_SAMPLE,
    DOMAIN_SWEEP,
    ApdSpec,
    RngHandle,
    cell_click_probabilities,
    click_bound,
    click_probability,
    detect_batch,
    expected_event_rates,
    first_fire_table,
)
from .optics import (
    CANONICAL_STATES,
    AmzSpec,
    Slot,
    SlotPortDistribution,
    bob_transform,
    canonical_link_state,
    link_state,
    slot_port_probabilities,
)
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

    events_registered counts detector registrations before any
    conventional-mode filtering; conclusive_count the basis-matched subset
    that survives sifting (before sample disclosure).  qber is the
    protocol's sampled estimate, while the true_* fields are simulator
    diagnostics computed by comparing both stations' full sifted strings,
    which no real deployment could do.
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

    CSV_COLUMNS = (
        "pulses_sent",
        "events_registered",
        "conclusive_count",
        "sifted_length",
        "qber",
        "sifted_rate_per_pulse",
        "dark_fraction_estimate",
        "conclusive_z",
        "conclusive_x",
        "true_qber",
        "true_qber_z",
        "true_qber_x",
    )


@dataclass
class SessionResult:
    summary: SessionSummary
    alice_key: SiftedKey
    bob_key: SiftedKey
    records: PulseTrain
    classifications: ClassifiedEvents


def summarize(
    records: PulseTrain,
    classifications: ClassifiedEvents,
    key: SiftedKey,
    events_registered: int,
    dark_register_prob: float,
) -> SessionSummary:
    """Counts, rates and diagnostic error rates of a finished session;
    ``key`` is the transmitter's sifted key and ``dark_register_prob`` the
    per-pulse registration probability of dark counts alone."""
    n = len(records)
    ev = classifications
    matched = records.bases[ev.pulse_indices] == ev.bases
    kept_idx = ev.pulse_indices[matched]
    kept_bases = ev.bases[matched]
    errors = records.bits[kept_idx] != ev.bits[matched]
    conclusive = int(kept_idx.size)
    z_mask = kept_bases == 0
    conclusive_z = int(np.count_nonzero(z_mask))
    conclusive_x = conclusive - conclusive_z

    def _rate(err_mask: np.ndarray, denom: int) -> float:
        return float(np.count_nonzero(err_mask)) / denom if denom else 0.0

    return SessionSummary(
        pulses_sent=n,
        events_registered=events_registered,
        conclusive_count=conclusive,
        sifted_length=len(key),
        qber=key.qber_estimate,
        sifted_rate_per_pulse=conclusive / n,
        dark_fraction_estimate=min(n * dark_register_prob / events_registered, 1.0),
        conclusive_z=conclusive_z,
        conclusive_x=conclusive_x,
        true_qber=_rate(errors, conclusive),
        true_qber_z=_rate(errors & z_mask, conclusive_z),
        true_qber_x=_rate(errors & ~z_mask, conclusive_x),
    )


# ---------------------------------------------------------------------------
# Per-state click-probability tables
# ---------------------------------------------------------------------------


def _canonical_amplitudes() -> np.ndarray:
    """(4, 2) complex (early, late) link amplitudes of the canonical states."""
    return np.array([canonical_link_state(s).bins[:, 0] for s in CANONICAL_STATES])


def _prepared_amplitudes(alice_amz: AmzSpec) -> np.ndarray:
    """Canonical amplitudes with the transmitter's phase offset on the late bin."""
    amps = _canonical_amplitudes()
    amps[:, 1] *= np.exp(1j * alice_amz.phase_offset_rad)
    return amps


def _through_fiber(amps: np.ndarray, chan: ChannelSpec) -> np.ndarray:
    """The fiber scales every amplitude by sqrt(transmittance)."""
    return math.sqrt(transmittance(chan)) * amps


def _receiver_distributions(arrived: np.ndarray, bob_amz: AmzSpec) -> list[SlotPortDistribution]:
    return [bob_transform(link_state(early, late), bob_amz) for early, late in arrived]


def _drifted_rows(
    q_row: np.ndarray,
    early: complex,
    late: complex,
    phases: np.ndarray,
    bob_amz: AmzSpec,
    mu: float,
    apds: tuple[ApdSpec, ApdSpec],
) -> np.ndarray:
    """(len(phases), 7) first-fire rows of one incoming state, with link
    amplitudes ``early``/``late``, at receiver phases ``phases``.  Only the
    two S2 cells depend on the phase; the others keep the state's table
    click probabilities ``q_row``."""
    q = np.tile(q_row, (len(phases), 1))
    _, s2, _ = slot_port_probabilities(early, late, bob_amz, phases)
    for port in (0, 1):
        q[:, 2 * Slot.S2 + port] = click_probability(s2[port], mu, apds[port])
    return first_fire_table(q)


# ---------------------------------------------------------------------------
# Main entry points
# ---------------------------------------------------------------------------


def run_session(config: SessionConfig) -> SessionResult:
    """Simulate a full key-distribution session.

    Raises InsufficientKeyError when the sifted key cannot support the
    configured disclosure fraction (including empty sessions).
    """
    config.validate()
    rng = RngHandle(config.seed)
    n = config.n_pulses
    if n == 0:
        raise InsufficientKeyError("zero-pulse session yields no key to sample")

    apds = (config.apd_d0, config.apd_d1)
    mu = config.source.mu

    # The phase riding on a prepared state's late bin combines with the
    # receiver-arm offset inside slot_port_probabilities, so the effective
    # interference phase per leg is (receiver offset - transmitter offset).
    prepared = _prepared_amplitudes(config.alice_amz)
    bob_amz = config.bob_amz
    eve_on = config.eve.enabled
    if eve_on:
        eve_cum = eavesdrop.cumulative_outcomes(prepared[:, 0], prepared[:, 1], config.eve)
        sigma_eve_leg = math.hypot(
            config.alice_amz.phase_jitter_rad, config.eve.apparatus.phase_jitter_rad
        )
        # Re-prepared states are fresh canonical ones, or vacuum for a
        # suppressed pulse: only the receiver's own jitter acts on the
        # final leg.
        incoming = np.vstack([_canonical_amplitudes(), np.zeros(2)])
        sigma_bob_leg = config.bob_amz.phase_jitter_rad
    else:
        incoming = prepared
        sigma_bob_leg = math.hypot(
            config.alice_amz.phase_jitter_rad, config.bob_amz.phase_jitter_rad
        )

    incoming = _through_fiber(incoming, config.channel)
    dists = _receiver_distributions(incoming, bob_amz)
    q_table = np.stack([cell_click_probabilities(d, mu, apds) for d in dists])
    cum_table = first_fire_table(q_table)
    # Under receiver drift a pulse's click probability moves with its
    # phase, so candidates are thinned against a phase-independent bound.
    limits = (
        np.array([click_bound(d, mu, apds) for d in dists])
        if sigma_bob_leg > 0.0
        else cum_table[:, -1]
    )

    bits_all = np.empty(n, dtype=np.uint8)
    bases_all = np.empty(n, dtype=np.uint8)
    ev_idx: list[np.ndarray] = []
    ev_slot: list[np.ndarray] = []
    ev_port: list[np.ndarray] = []
    events_registered = 0

    n_batches = (n + BATCH_SIZE - 1) // BATCH_SIZE
    for b in range(n_batches):
        lo = b * BATCH_SIZE
        hi = min(lo + BATCH_SIZE, n)
        m = hi - lo
        state_idx = rng.indexed_stream(DOMAIN_ALICE, b).integers(0, 4, size=m, dtype=np.uint8)
        np.bitwise_and(state_idx, 1, out=bits_all[lo:hi])
        np.right_shift(state_idx, 1, out=bases_all[lo:hi])

        # Each station samples its outcomes one incoming state k at a time;
        # rows(k, idx) is the state's table row, or under drift one row per
        # pulse at idx from that pulse's phase.
        if eve_on:
            if sigma_eve_leg > 0.0:
                j_rng = rng.indexed_stream(DOMAIN_JITTER, 2 * b)
                deltas = config.eve.apparatus.phase_offset_rad + sigma_eve_leg * j_rng.standard_normal(m)
                eve_rows = lambda k, idx: eavesdrop.cumulative_outcomes(
                    *prepared[k], config.eve, deltas[idx]
                )
            else:
                eve_rows = lambda k, idx: eve_cum[k]
            _, det_idx = eavesdrop.attack_batch(state_idx, eve_rows, rng.indexed_stream(DOMAIN_EVE, b))
        else:
            det_idx = state_idx

        if sigma_bob_leg > 0.0:
            normals = rng.indexed_stream(DOMAIN_JITTER, 2 * b + 1).standard_normal(m)
            bob_rows = lambda k, idx: _drifted_rows(
                q_table[k], *incoming[k], bob_amz.phase_offset_rad + sigma_bob_leg * normals[idx],
                bob_amz, mu, apds,
            )
        else:
            bob_rows = lambda k, idx: cum_table[k]

        d_rng = rng.indexed_stream(DOMAIN_DETECT, b)
        registered, slot, port, _ = detect_batch(det_idx, limits, bob_rows, d_rng)
        events_registered += int(np.count_nonzero(registered))
        keep = registered
        if config.conventional_mode:
            keep = registered & (slot != Slot.S3)
        where = np.nonzero(keep)[0]
        ev_idx.append(where.astype(np.int64) + lo)
        ev_slot.append(slot[where])
        ev_port.append(port[where])

    records = PulseTrain(bits_all, bases_all)
    idx = np.concatenate(ev_idx) if ev_idx else np.empty(0, np.int64)
    slots = np.concatenate(ev_slot) if ev_slot else np.empty(0, np.uint8)
    ports = np.concatenate(ev_port) if ev_port else np.empty(0, np.uint8)
    meas_bases, meas_bits = classify_arrays(slots, ports)
    classifications = ClassifiedEvents(idx, meas_bases, meas_bits)

    key_a, key_b, _ = run_protocol(
        records, classifications, config.sample_fraction, rng.stream(DOMAIN_SAMPLE)
    )

    vacuum_dist = SlotPortDistribution(np.zeros((3, 2)), 1.0)
    dark_register = float(expected_event_rates(vacuum_dist, 0.0, apds).sum())
    return SessionResult(
        summary=summarize(records, classifications, key_a, events_registered, dark_register),
        alice_key=key_a,
        bob_key=key_b,
        records=records,
        classifications=classifications,
    )


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
    Monte Carlo instead: per-cell click frequencies are inverted through
    the detector response, emulating a classical intensity measurement.
    The transmitter rows stay analytic in both modes.
    """
    config.validate()
    rng = RngHandle(config.seed)
    apds = (config.apd_d0, config.apd_d1)
    prepared = _prepared_amplitudes(config.alice_amz)
    dists = _receiver_distributions(_through_fiber(prepared, config.channel), config.bob_amz)
    rows: list[ProfileRow] = []
    for k, state in enumerate(CANONICAL_STATES):
        label = state.label()
        amps = prepared[k]
        rows.append(ProfileRow(label, "bin0", "link", float(abs(amps[0]) ** 2)))
        rows.append(ProfileRow(label, "bin1", "link", float(abs(amps[1]) ** 2)))
        if sampled_pulses > 0:
            p = _sampled_cell_probabilities(
                dists[k], config.source.mu, apds, sampled_pulses,
                rng.indexed_stream(DOMAIN_DETECT, 1000 + k),
            )
        else:
            p = dists[k].p
        for slot_i, slot_name in enumerate(("S1", "S2", "S3")):
            for port_i, port_name in enumerate(("D0", "D1")):
                rows.append(ProfileRow(label, slot_name, port_name, float(p[slot_i, port_i])))
    return rows


def _sampled_cell_probabilities(
    dist: SlotPortDistribution,
    mu: float,
    apds: tuple[ApdSpec, ApdSpec],
    n_pulses: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Invert empirical click frequencies through the detector response."""
    q = cell_click_probabilities(dist, mu, apds).astype(np.float32)
    counts = np.zeros(6, dtype=np.int64)
    remaining = n_pulses
    while remaining > 0:
        m = min(remaining, BATCH_SIZE)
        u = rng.random((m, 6), dtype=np.float32)
        counts += (u < q).sum(axis=0)
        remaining -= m
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


SWEEP_AXES = ("length_km", "mu", "dark")


def sweep(config: SessionConfig, axis: str, values: list[float]) -> list[tuple[float, SessionSummary]]:
    """Run one session per value along an axis, with derived sub-seeds."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    if not values:
        raise ValueError("sweep requires at least one value")
    root = RngHandle(config.seed)
    results = []
    for i, value in enumerate(values):
        sub_seed = root.child_seed(DOMAIN_SWEEP, i)
        cfg = _with_axis_value(config, axis, value)
        cfg = dataclasses.replace(cfg, seed=sub_seed)
        results.append((value, run_session(cfg).summary))
    return results


def _with_axis_value(config: SessionConfig, axis: str, value: float) -> SessionConfig:
    if axis == "length_km":
        return dataclasses.replace(
            config, channel=dataclasses.replace(config.channel, length_km=value)
        )
    if axis == "mu":
        return dataclasses.replace(
            config, source=dataclasses.replace(config.source, mu=value)
        )
    return dataclasses.replace(
        config,
        apd_d0=dataclasses.replace(config.apd_d0, dark_per_gate=value),
        apd_d1=dataclasses.replace(config.apd_d1, dark_per_gate=value),
    )

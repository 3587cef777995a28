"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Statistical criteria use fixed seeds; tolerances are the contractual ones,
with Monte Carlo operating points chosen so that model bias (first-fire
shadowing at finite mu*eta) stays far inside the statistical bands.
"""

import math
import time

import numpy as np
import pytest

import matrix_oracle as oracle
from timebin_bb84.channel import ChannelSpec
from timebin_bb84.cli import main
from timebin_bb84.config import SessionConfig
from timebin_bb84.detection import (
    DOMAIN_DETECT,
    ApdSpec,
    RngHandle,
    SourceSpec,
    cell_click_probabilities,
    detect_batch,
    draw_candidates,
    first_fire_table,
)
from timebin_bb84.eavesdrop import EveSpec, enumerate_attack_qber
from timebin_bb84.optics import (
    CANONICAL_STATES,
    AmzSpec,
    Basis,
    SlotPortDistribution,
    apply_coupler,
    bob_transform,
    extinction_db_to_visibility,
    link_state,
)
from timebin_bb84.session import profile_rows, run_session


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {num}: {status} - {description}{suffix}")
    assert ok, f"criterion {num} failed: {description} {suffix}"


def lossless_config(**overrides) -> SessionConfig:
    base = dict(
        bob_amz=AmzSpec(excess_loss_db=0.0),
        channel=ChannelSpec(length_km=0.0),
        apd_d0=ApdSpec(efficiency=0.1, dark_per_gate=0.0),
        apd_d1=ApdSpec(efficiency=0.1, dark_per_gate=0.0),
        source=SourceSpec(mu=0.1),
        sample_fraction=0.01,
    )
    base.update(overrides)
    return SessionConfig(**base)


def test_criterion_1_four_state_profile():
    """Exact per-state distributions against the matrix-network oracle."""
    start = time.perf_counter()
    rows = profile_rows(lossless_config())
    elapsed = time.perf_counter() - start
    by_key = {(r.state, r.slot, r.port): r.probability for r in rows}

    expected = {
        "Z0": {("S1", "D0"): 0.25, ("S1", "D1"): 0.25, ("S2", "D0"): 0.25,
               ("S2", "D1"): 0.25, ("S3", "D0"): 0.0, ("S3", "D1"): 0.0},
        "Z1": {("S1", "D0"): 0.0, ("S1", "D1"): 0.0, ("S2", "D0"): 0.25,
               ("S2", "D1"): 0.25, ("S3", "D0"): 0.25, ("S3", "D1"): 0.25},
        "X0": {("S1", "D0"): 0.125, ("S1", "D1"): 0.125, ("S2", "D0"): 0.0,
               ("S2", "D1"): 0.5, ("S3", "D0"): 0.125, ("S3", "D1"): 0.125},
        "X1": {("S1", "D0"): 0.125, ("S1", "D1"): 0.125, ("S2", "D0"): 0.5,
               ("S2", "D1"): 0.0, ("S3", "D0"): 0.125, ("S3", "D1"): 0.125},
    }
    max_err = 0.0
    for state in CANONICAL_STATES:
        label = state.label()
        ref = oracle.receiver_table(oracle.CANONICAL_BINS[label])
        for (slot, port), want in expected[label].items():
            got = by_key[(label, slot, port)]
            s_i, p_i = int(slot[1]) - 1, int(port[1])
            max_err = max(max_err, abs(got - want), abs(got - ref[s_i, p_i]))
    # edge slots distinguish the time-basis states; the central-slot port
    # distinguishes the superposition states
    pattern_ok = (
        by_key[("Z0", "S1", "D0")] > 0.0 == by_key[("Z0", "S3", "D0")]
        and by_key[("Z1", "S3", "D0")] > 0.0 == by_key[("Z1", "S1", "D0")]
        and by_key[("X0", "S2", "D1")] > 0.0 == by_key[("X0", "S2", "D0")]
        and by_key[("X1", "S2", "D0")] > 0.0 == by_key[("X1", "S2", "D1")]
    )
    report(
        1,
        "four-state profile equals coupler-matrix oracle to 1e-12 in < 1 s",
        max_err < 1e-12 and pattern_ok and elapsed < 1.0,
        f"max dev {max_err:.2e}, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_2_extinction_error_link():
    """20 dB extinction ratio implies (1-V)/2 ~ 1% errors in the phase basis."""
    start = time.perf_counter()
    v = extinction_db_to_visibility(20.0)
    cfg = lossless_config(
        bob_amz=AmzSpec(excess_loss_db=0.0, visibility=v),
        apd_d0=ApdSpec(efficiency=1.0, dark_per_gate=0.0),
        apd_d1=ApdSpec(efficiency=1.0, dark_per_gate=0.0),
        n_pulses=45_000_000,
        seed=220_001,
    )
    s = run_session(cfg).summary
    elapsed = time.perf_counter() - start
    ok = (
        s.conclusive_x >= 1_000_000
        and abs(s.true_qber_x - 0.0099) <= 0.0010
        and s.true_qber_z == 0.0
        and elapsed < 60.0
    )
    report(
        2,
        "X-basis QBER at 20 dB extinction = 0.0099 +/- 0.0010 over >= 1e6 bits",
        ok,
        f"qber_x {s.true_qber_x:.5f} over {s.conclusive_x} bits, {elapsed:.1f} s",
    )


def test_criterion_3_twofold_key_rate():
    """Both edge slots contribute key: Z yield doubles vs the two-gate
    receiver, whose late slot S3 is not gated."""
    kw = dict(
        source=SourceSpec(mu=0.02),
        apd_d0=ApdSpec(efficiency=1.0, dark_per_gate=0.0),
        apd_d1=ApdSpec(efficiency=1.0, dark_per_gate=0.0),
        n_pulses=10_000_000,
        seed=330_001,
    )
    full = run_session(lossless_config(**kw)).summary
    conv = run_session(lossless_config(gates_per_pulse=2, **kw)).summary
    ratio = full.conclusive_z / conv.conclusive_z
    report(
        3,
        "full/conventional Z-sifted ratio = 2.00 +/- 0.04 over 1e7 pulses",
        abs(ratio - 2.0) <= 0.04,
        f"ratio {ratio:.4f} ({full.conclusive_z}/{conv.conclusive_z})",
    )


def test_criterion_4_dark_exposure():
    """Three gated slots triple the dark exposure of a single-gate system."""
    d = 1e-3
    n = 10_000_000
    vacuum = SlotPortDistribution(np.zeros((3, 2)))
    analytic_ratio = (1 - (1 - d) ** 6) / (1 - (1 - d) ** 2)

    counts = {}
    p_exact = {}
    for gates in (3, 1):
        apd = ApdSpec(efficiency=0.1, dark_per_gate=d)
        cum = first_fire_table(cell_click_probabilities(vacuum.p, 0.0, (apd, apd), gates))
        p_exact[gates] = float(cum[-1])  # any gated cell clicks
        rng = RngHandle(440_001).indexed_stream(DOMAIN_DETECT, gates)
        batch = draw_candidates(n, cum[-1], rng)
        rows = np.broadcast_to(cum[:, None], (7, batch.offsets.size))
        _, _, _, any_click = detect_batch(batch, rows)
        counts[gates] = int(np.count_nonzero(any_click))

    formula_ok = abs(p_exact[3] / p_exact[1] - analytic_ratio) < 1e-9
    sim_ratio = counts[3] / counts[1]
    # 4-sigma band via the delta method on the two binomial counts
    rel_var = sum(
        (1 - p_exact[g]) / (n * p_exact[g]) for g in (3, 1)
    )
    sigma = analytic_ratio * math.sqrt(rel_var)
    report(
        4,
        "dark-event ratio (3 gates / 1 gate) matches (1-(1-d)^6)/(1-(1-d)^2)",
        formula_ok and abs(sim_ratio - analytic_ratio) <= 4 * sigma,
        f"analytic {analytic_ratio:.4f}, simulated {sim_ratio:.4f} +/- {sigma:.4f}",
    )


def test_criterion_5_intercept_resend():
    """Full-pipeline attack QBER reproduces the exhaustive-tree value."""
    expected = enumerate_attack_qber(EveSpec(enabled=True))
    assert abs(expected[Basis.Z] - 0.25) < 1e-12
    assert abs(expected[Basis.X] - 0.25) < 1e-12

    cfg = lossless_config(
        source=SourceSpec(mu=0.2),
        n_pulses=110_000_000,
        seed=550_001,
        eve=EveSpec(enabled=True),
    )
    s = run_session(cfg).summary
    checks = []
    for got, count, want in (
        (s.true_qber, s.conclusive_count, 0.25),
        (s.true_qber_z, s.conclusive_z, expected[Basis.Z]),
        (s.true_qber_x, s.conclusive_x, expected[Basis.X]),
    ):
        sigma = math.sqrt(want * (1 - want) / count)
        checks.append(abs(got - want) <= 4 * sigma)

    clean = run_session(lossless_config(n_pulses=1_000_000, seed=550_002)).summary
    ok = all(checks) and s.conclusive_count >= 1_000_000 and clean.true_qber == 0.0
    report(
        5,
        "attack QBER = 0.25 within 4 sigma over >= 1e6 sifted bits; no attack -> 0",
        ok,
        f"qber {s.true_qber:.5f} (Z {s.true_qber_z:.5f} / X {s.true_qber_x:.5f}) "
        f"over {s.conclusive_count} bits; clean {clean.true_qber}",
    )


def test_criterion_6_passive_basis():
    """Measured basis: uniform, independent of the sent basis, half conclusive."""
    cfg = lossless_config(n_pulses=10_000_000, seed=660_001)
    result = run_session(cfg)
    ev = result.classifications
    _, alice_bases = result.records.choices(ev.pulse_indices)
    alice_x = alice_bases.astype(bool)
    bob_x = ev.bases.astype(bool)
    n = len(ev)

    counts = np.array(
        [
            [np.count_nonzero(~alice_x & ~bob_x), np.count_nonzero(~alice_x & bob_x)],
            [np.count_nonzero(alice_x & ~bob_x), np.count_nonzero(alice_x & bob_x)],
        ],
        dtype=float,
    )
    row = counts.sum(axis=1, keepdims=True)
    col = counts.sum(axis=0, keepdims=True)
    expected = row @ col / n
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    chi2_threshold = 16.0  # chi-square(1 dof) value with two-sided 4-sigma p-value

    p_z = np.count_nonzero(~bob_x) / n
    sigma_half = math.sqrt(0.25 / n)
    conclusive_fraction = result.summary.conclusive_count / result.summary.events_registered

    ok = (
        chi2 <= chi2_threshold
        and abs(p_z - 0.5) <= 4 * sigma_half
        and abs(conclusive_fraction - 0.5) <= 4 * sigma_half + 1e-3
    )
    report(
        6,
        "measured basis uniform and independent of sent basis; half conclusive",
        ok,
        f"chi2 {chi2:.2f}, P(Z) {p_z:.4f}, P(conclusive) {conclusive_fraction:.4f}",
    )


def test_criterion_7_conservation_properties():
    """Unitarity, normalization and global-phase invariance at 1e-12."""
    rng = np.random.default_rng(770_001)
    n_inputs = 10_000
    worst_unitary = 0.0
    worst_norm = 0.0
    worst_phase = 0.0
    for _ in range(n_inputs):
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        t = float(rng.random())
        out_a, out_b = apply_coupler(a, b, t)
        power = abs(a) ** 2 + abs(b) ** 2
        worst_unitary = max(
            worst_unitary,
            abs(abs(out_a) ** 2 + abs(out_b) ** 2 - power) / max(power, 1.0),
        )

        amps = np.array([a, b]) / math.sqrt(power) * rng.random()
        spec = AmzSpec(
            excess_loss_db=float(rng.random() * 4),
            phase_offset_rad=float(rng.uniform(-math.pi, math.pi)),
            visibility=float(rng.random()),
        )
        # The six cells hold the excess transmittance times the input
        # norm |a|^2 + |b|^2: the S2 cross term cancels between the ports.
        dist = bob_transform(link_state(*amps), spec)
        norm = float(np.sum(np.abs(amps) ** 2))
        worst_norm = max(worst_norm, abs(dist.p.sum() - spec.excess_transmittance * norm))

        rotated = bob_transform(
            link_state(*(amps * np.exp(1j * rng.uniform(0, 2 * math.pi)))), spec
        )
        worst_phase = max(worst_phase, float(np.max(np.abs(dist.p - rotated.p))))
    ok = worst_unitary < 1e-12 and worst_norm < 1e-12 and worst_phase < 1e-12
    report(
        7,
        f"conservation properties over {n_inputs} random inputs at 1e-12",
        ok,
        f"unitarity {worst_unitary:.2e}, norm {worst_norm:.2e}, phase {worst_phase:.2e}",
    )


def test_criterion_8_determinism_and_performance(tmp_path):
    """Byte-identical reruns; a 1e7-pulse session completes in < 60 s."""
    start = time.perf_counter()
    run_session(SessionConfig(n_pulses=10_000_000, seed=880_001))
    elapsed = time.perf_counter() - start

    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = main(
            ["run", "--pulses", "300000", "--seed", "880002", "--out", str(out)]
        )
        assert code == 0
        outs.append(out)
    identical = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("summary.csv", "summary.txt", "alice.key", "bob.key")
    )
    report(
        8,
        "identical seeds give byte-identical outputs; 1e7 pulses in < 60 s",
        identical and elapsed < 60.0,
        f"session {elapsed:.1f} s",
    )

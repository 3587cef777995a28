"""Independent reference implementations used only as test oracles.

These deliberately take different computational routes from the package:
the interferometer is simulated as an explicit time-expanded network of
2x2 matrix products, registration probabilities come from enumerating all
64 click patterns, and the attack error rate from walking the full
probability tree on top of the network simulation.
"""

from __future__ import annotations

import itertools

import numpy as np

COUPLER_CONVENTION = {}


def coupler_matrix(t: float) -> np.ndarray:
    return np.array(
        [
            [np.sqrt(t), 1j * np.sqrt(1.0 - t)],
            [1j * np.sqrt(1.0 - t), np.sqrt(t)],
        ]
    )


def receiver_table(
    bins: np.ndarray, visibility: float = 1.0, delta: float = 0.0, loss: float = 1.0
) -> np.ndarray:
    """(3, 2) slot/port probabilities via explicit network simulation.

    Each input bin is propagated separately: input coupler -> (short, long)
    arms -> long arm delayed one slot with phase exp(i*delta) -> output
    coupler.  Per (slot, port) the short-path and long-path contributions
    are combined with the cross term scaled by the visibility.
    """
    c = coupler_matrix(0.5)
    contributions: dict[tuple[int, int], list[complex]] = {}
    for j, amp in enumerate(np.asarray(bins, dtype=complex)):
        short, long_ = c @ np.array([amp, 0.0])
        long_ *= np.exp(1j * delta)
        # short arrives at slot j into output-coupler input 0; the delayed
        # long arm arrives at slot j+1 into input 1
        contributions.setdefault((j, 0), []).append(short)
        contributions.setdefault((j + 1, 1), []).append(long_)
    p = np.zeros((3, 2))
    for slot in range(3):
        a_in = sum(contributions.get((slot, 0), [0.0]))
        b_in = sum(contributions.get((slot, 1), [0.0]))
        for port in range(2):
            via_short = c[port, 0] * a_in
            via_long = c[port, 1] * b_in
            p[slot, port] = (
                abs(via_short) ** 2
                + abs(via_long) ** 2
                + 2.0 * visibility * (via_short * np.conj(via_long)).real
            )
    return p * loss


CANONICAL_BINS = {
    "Z0": np.array([1.0, 0.0], complex),
    "Z1": np.array([0.0, 1.0], complex),
    "X0": np.array([1.0, 1.0], complex) / np.sqrt(2.0),
    "X1": np.array([1.0, -1.0], complex) / np.sqrt(2.0),
}


def registration_by_enumeration(
    q: np.ndarray, gates3: bool = True
) -> tuple[np.ndarray, float]:
    """Exact per-cell registration probabilities from all 2^6 click patterns.

    Returns ((3, 2) registration matrix, any-click probability).  q is the
    flattened (6,) per-cell click probability; ungated cells must be zero.
    """
    q = np.asarray(q, dtype=float).reshape(6)
    reg = np.zeros((3, 2))
    p_any = 0.0
    for pattern in itertools.product((0, 1), repeat=6):
        prob = 1.0
        for cell, fired in enumerate(pattern):
            prob *= q[cell] if fired else (1.0 - q[cell])
        if prob == 0.0:
            continue
        if any(pattern):
            p_any += prob
        for slot in range(3):
            fired = pattern[2 * slot : 2 * slot + 2]
            if any(fired):
                if fired == (1, 1):
                    break  # double click in the first firing slot: discarded
                reg[slot, fired.index(1)] += prob
                break
    return reg, p_any


def classify_cell(slot: int, port: int) -> tuple[str, int]:
    if slot == 0:
        return "Z", 0
    if slot == 2:
        return "Z", 1
    return ("X", 0) if port == 1 else ("X", 1)


def attack_tree_qber(
    eve_visibility: float = 1.0,
    eve_delta: float = 0.0,
    bob_visibility: float = 1.0,
    bob_delta: float = 0.0,
) -> dict[str, float]:
    """Intercept-resend QBER per basis from the exhaustive branch tree, for
    an attacker and a receiver interferometer of the given visibility and
    phase offset (both lossless: loss scales every branch and cancels)."""
    errors = {"Z": 0.0, "X": 0.0}
    sifted = {"Z": 0.0, "X": 0.0}
    for label, bins in CANONICAL_BINS.items():
        basis, bit = label[0], int(label[1])
        eve_p = receiver_table(bins, visibility=eve_visibility, delta=eve_delta)
        for es, ep in itertools.product(range(3), range(2)):
            w1 = eve_p[es, ep]
            if w1 == 0.0:
                continue
            resend_label = "".join(map(str, classify_cell(es, ep)))
            bob_p = receiver_table(CANONICAL_BINS[resend_label], visibility=bob_visibility, delta=bob_delta)
            for bs, bp in itertools.product(range(3), range(2)):
                mbasis, mbit = classify_cell(bs, bp)
                if mbasis != basis:
                    continue
                branch = 0.25 * w1 * bob_p[bs, bp]
                sifted[mbasis] += branch
                if mbit != bit:
                    errors[mbasis] += branch
    return {b: errors[b] / sifted[b] for b in ("Z", "X")}

"""The benchmark's workloads: their set-up, one timed op, and its checks.

Each workload is a closed loop run by one client: an op starts when the
previous one has ended.  An op's output is checked against exact
expectations built from the package's closed-form oracles
(``expected_event_rates``, ``enumerate_attack_qber``) with a stated
tolerance, never against a digest of the random stream, so a deliberate
change of that stream keeps the checks valid.

Every statistical check is a two-sided Bernstein bound at Z = 6: for a
count that is a sum of n independent Bernoulli(p) draws the check accepts
|observed - n p| <= Z^2/6 + sqrt(Z^4/36 + Z^2 n p (1-p)), which a correct
program misses with probability below 2 exp(-Z^2/2) = 3e-8 per check.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import dataclasses
import io
import math
import shutil
import socket
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from timebin_bb84 import channel, cli, config, detection, eavesdrop, optics, protocol, session

Z = 6.0
GAUSS_HERMITE_NODES = 24  # phase-jitter average; exact to ~1e-15 at sigma = 0.1

# Receiver outcome -> canonical-state index (Z0, Z1, X0, X1) re-prepared by an
# intercept-resend attacker, by flattened (slot, port) cell; 4 = vacuum.  S1
# reads (Z,0), S3 reads (Z,1), S2 on D1 reads (X,0) and S2 on D0 reads (X,1).
_RESEND = (0, 0, 3, 2, 1, 1, 4)
_BASIS_Z, _BASIS_X = 0, 1


@dataclass(frozen=True)
class Expected:
    """Exact per-pulse probabilities of the counts one session reports."""

    registered: float
    conclusive: tuple[float, float]  # per basis (Z, X)
    errors: tuple[float, float]
    # enumerate_attack_qber's value plus the phase-drift term, per basis, and
    # the exact bias of this link (dark counts, multi-photon pulses) from it.
    attack_qber: tuple[float, float] | None = None
    attack_bias: tuple[float, float] = (0.0, 0.0)


@dataclass
class OpOutcome:
    """What an op produced and what its checks found."""

    pulses: int = 0
    sifted_bits: int = 0
    checks: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.problems.append(what)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _cell_rates(state, amz, mu: float, apds, sigma: float) -> np.ndarray:
    """(3, 2) first-fire registration probabilities of one incoming state,
    averaged over Gaussian phase jitter of std ``sigma`` by Gauss-Hermite
    quadrature (the click probability is not linear in the phase)."""
    if sigma == 0.0:
        return detection.expected_event_rates(optics.bob_transform(state, amz), mu, apds)
    nodes, weights = np.polynomial.hermite_e.hermegauss(GAUSS_HERMITE_NODES)
    weights = weights / weights.sum()
    total = np.zeros((3, 2))
    for x, w in zip(nodes, weights):
        shifted = dataclasses.replace(amz, phase_offset_rad=amz.phase_offset_rad + sigma * x)
        dist = optics.bob_transform(state, shifted)
        total += w * detection.expected_event_rates(dist, mu, apds)
    return total


def expected_counts(cfg: config.SessionConfig) -> Expected:
    """Exact expectations for a session of ``cfg`` (conventional mode off)."""
    if cfg.conventional_mode or cfg.alice_amz.phase_jitter_rad or cfg.eve.apparatus.phase_jitter_rad:
        raise ValueError("oracle covers neither conventional mode nor transmitter or attacker jitter")
    apds = (cfg.apd_d0, cfg.apd_d1)
    mu = cfg.source.mu
    amp = math.sqrt(channel.transmittance(cfg.channel))
    sigma = cfg.bob_amz.phase_jitter_rad
    turn = np.exp(1j * cfg.alice_amz.phase_offset_rad)
    prepared = []
    for s in optics.CANONICAL_STATES:
        bins = optics.canonical_link_state(s).bins[:, 0]
        prepared.append(optics.link_state(complex(bins[0]), complex(bins[1] * turn)))

    if cfg.eve.enabled:
        resent = [optics.canonical_link_state(s) for s in optics.CANONICAL_STATES]
        resent.append(optics.vacuum_state())
        bob = [_cell_rates(s.scaled(amp), cfg.bob_amz, mu, apds, sigma) for s in resent]
        rates = []
        for state in prepared:
            eve_p = optics.bob_transform(state, cfg.eve.apparatus).p.reshape(6)
            outcomes = np.append(eve_p, 1.0 - eve_p.sum())
            rates.append(sum(p * bob[_RESEND[o]] for o, p in enumerate(outcomes)))
    else:
        rates = [_cell_rates(s.scaled(amp), cfg.bob_amz, mu, apds, sigma) for s in prepared]

    # Rows are slots S1..S3, columns ports D0, D1; states Z0, Z1, X0, X1.
    conclusive = (
        0.25 * sum(r[0].sum() + r[2].sum() for r in rates[:2]),
        0.25 * sum(r[1].sum() for r in rates[2:]),
    )
    errors = (
        0.25 * (rates[0][2].sum() + rates[1][0].sum()),
        0.25 * (rates[2][1, 0] + rates[3][1, 1]),
    )
    exp = Expected(
        registered=0.25 * sum(float(r.sum()) for r in rates),
        conclusive=(float(conclusive[0]), float(conclusive[1])),
        errors=(float(errors[0]), float(errors[1])),
    )
    if not cfg.eve.enabled:
        return exp
    # For a visibility-1 receiver, a correctly re-prepared X state errs with
    # probability (1 - E[cos d])/2 under phase drift d ~ N(0, sigma^2), where
    # E[cos d] = exp(-sigma^2/2); half the X-basis sifted bits come from such
    # states, so the drift adds (1 - exp(-sigma^2/2))/4 to the X-basis QBER.
    flat_bob = dataclasses.replace(cfg.bob_amz, phase_jitter_rad=0.0)
    ideal = eavesdrop.enumerate_attack_qber(cfg.eve, flat_bob)
    drift = (1.0 - math.exp(-sigma * sigma / 2.0)) / 4.0
    attack = (ideal[optics.Basis.Z], ideal[optics.Basis.X] + drift)
    bias = tuple(abs(errors[b] / conclusive[b] - attack[b]) for b in (_BASIS_Z, _BASIS_X))
    return dataclasses.replace(exp, attack_qber=attack, attack_bias=bias)


def bernstein_tolerance(var: float) -> float:
    """Tolerance at the stated Z on a sum of independent draws in [0, 1]
    whose variance is ``var``."""
    return Z * Z / 6.0 + math.sqrt(Z**4 / 36.0 + Z * Z * var)


def check_summary(out: OpOutcome, s: dict, n: int, sample_fraction: float, exp: Expected) -> None:
    """Check one session summary (``SessionSummary`` fields) against ``exp``."""
    out.expect(s["pulses_sent"] == n, f"pulses_sent {s['pulses_sent']} != {n}")

    def count(label: str, observed: int, p: float) -> None:
        tol = bernstein_tolerance(n * p * (1.0 - p))
        out.expect(
            abs(observed - n * p) <= tol,
            f"{label} {observed} outside {n * p:.1f} +/- {tol:.1f}",
        )

    count("events_registered", s["events_registered"], exp.registered)
    conclusive = (s["conclusive_z"], s["conclusive_x"])
    out.expect(
        sum(conclusive) == s["conclusive_count"], "conclusive_z + conclusive_x != conclusive_count"
    )
    observed_errors = []
    for b, tag, qber in ((_BASIS_Z, "z", s["true_qber_z"]), (_BASIS_X, "x", s["true_qber_x"])):
        errors = round(qber * conclusive[b])
        observed_errors.append(errors)
        count(f"conclusive_{tag}", conclusive[b], exp.conclusive[b])
        count(f"errors_{tag}", errors, exp.errors[b])
        if exp.attack_qber is not None and conclusive[b]:
            q = exp.attack_qber[b]
            tol = Z * math.sqrt(q * (1.0 - q) / conclusive[b]) + exp.attack_bias[b]
            out.expect(
                abs(qber - q) <= tol,
                f"QBER_{tag} {qber:.5f} outside intercept-resend {q:.5f} +/- {tol:.5f}",
            )

    # The disclosed sample is drawn without replacement from the sifted set,
    # which concentrates at least as well as drawing with replacement.
    sifted = s["conclusive_count"]
    disclosed = int(sample_fraction * sifted)
    out.expect(
        s["sifted_length"] == sifted - disclosed,
        f"sifted_length {s['sifted_length']} != {sifted} - {disclosed} disclosed",
    )
    if disclosed:
        q = sum(observed_errors) / sifted
        tol = bernstein_tolerance(disclosed * q * (1.0 - q))
        out.expect(
            abs(s["qber"] * disclosed - q * disclosed) <= tol,
            f"sampled QBER {s['qber']:.5f} outside {q:.5f} +/- {tol / disclosed:.5f}",
        )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def ini_text(overrides: dict[str, dict[str, str]]) -> str:
    """The package's default INI config with ``overrides`` applied."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(config.DEFAULT_CONFIG_TEXT)
    for section, values in overrides.items():
        for key, value in values.items():
            parser[section][key] = value
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


_SUMMARY_INTS = {
    "pulses_sent", "events_registered", "conclusive_count", "sifted_length",
    "conclusive_z", "conclusive_x",
}


def _read_summary(path: Path) -> dict:
    with open(path, newline="") as fh:
        row = next(csv.DictReader(fh))
    return {k: int(v) if k in _SUMMARY_INTS else float(v) for k, v in row.items()}


class CliWorkload:
    """One op is ``timebin-bb84 run`` through ``cli.main`` on an INI config.

    ``n`` is the pulse count per op; the caller may change it between ops.
    """

    def __init__(self, name: str, pulses: int, overrides: dict):
        self.name = name
        self.n = pulses
        self.overrides = overrides

    def setup(self, workdir: Path) -> None:
        self.ini = workdir / f"{self.name}.ini"
        self.ini.write_text(ini_text(self.overrides))
        self.out = workdir / "out"
        cfg = config.parse_config(self.ini)
        self.sample_fraction = cfg.sample_fraction
        self.expected = expected_counts(cfg)

    def op(self, seed: int) -> int:
        argv = [
            "run", "--config", str(self.ini), "--seed", str(seed),
            "--pulses", str(self.n), "--out", str(self.out),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, code: int) -> OpOutcome:
        out = OpOutcome()
        try:
            out.expect(code == 0, f"cli exit code {code}")
            if code != 0:
                return out
            s = _read_summary(self.out / "summary.csv")
            check_summary(out, s, self.n, self.sample_fraction, self.expected)
            hex_len = 2 * math.ceil(s["sifted_length"] / 8)
            keys = []
            for side in ("alice", "bob"):
                key = (self.out / f"{side}.key").read_text().strip()
                out.expect(len(key) == hex_len, f"{side}.key has {len(key)} hex digits, not {hex_len}")
                keys.append(np.unpackbits(np.frombuffer(bytes.fromhex(key), np.uint8)))
            if keys[0].size == keys[1].size:
                # The keys differ exactly where the sifted bits err, less the
                # errors that the disclosed sample revealed.
                disclosed = s["conclusive_count"] - s["sifted_length"]
                wanted = round(s["true_qber"] * s["conclusive_count"]) - round(s["qber"] * disclosed)
                differ = int(np.count_nonzero(keys[0] != keys[1]))
                out.expect(differ == wanted, f"alice.key and bob.key differ in {differ} bits, not {wanted}")
            out.pulses = s["pulses_sent"]
            out.sifted_bits = s["sifted_length"]
            return out
        finally:
            shutil.rmtree(self.out, ignore_errors=True)


def socket_replay(result, sample_fraction: float, seed: int):
    """Re-run the sifting protocol of ``result`` over a connected socket pair.

    The error-estimation sample is drawn from the same substream the session
    used, so a correct replay reproduces the session's keys exactly.
    """
    rng = detection.RngHandle(seed).stream(detection.DOMAIN_SAMPLE)
    sock_a, sock_b = socket.socketpair()
    ta, tb = protocol.SocketTransport(sock_a), protocol.SocketTransport(sock_b)
    try:
        key_a, key_b, _ = protocol.run_protocol(
            result.records, result.classifications, sample_fraction, rng, transports=(ta, tb)
        )
    finally:
        ta.close()
        tb.close()
    return key_a, key_b


class DenseWireWorkload:
    """One op is ``run_session`` on a high-rate link, then a replay of its
    sifting protocol over ``SocketTransport`` endpoints."""

    name = "dense_wire"

    def __init__(self, pulses: int):
        self.n = pulses

    def setup(self, workdir: Path) -> None:
        lossless = optics.AmzSpec(excess_loss_db=0.0)
        apd = detection.ApdSpec(efficiency=1.0)
        self.config = config.SessionConfig(
            source=detection.SourceSpec(mu=0.5),
            alice_amz=lossless,
            bob_amz=dataclasses.replace(
                lossless, visibility=optics.extinction_db_to_visibility(20.0)
            ),
            apd_d0=apd,
            apd_d1=apd,
        )
        self.expected = expected_counts(self.config)

    def op(self, seed: int):
        cfg = dataclasses.replace(self.config, seed=seed, n_pulses=self.n)
        result = session.run_session(cfg)
        return result, socket_replay(result, cfg.sample_fraction, seed)

    def check(self, produced) -> OpOutcome:
        result, (key_a, key_b) = produced
        out = OpOutcome()
        s = dataclasses.asdict(result.summary)
        check_summary(out, s, self.n, self.config.sample_fraction, self.expected)
        for side, mine, theirs in (("alice", result.alice_key, key_a), ("bob", result.bob_key, key_b)):
            same = (
                mine.bits.tobytes() == theirs.bits.tobytes()
                and mine.source_indices.tobytes() == theirs.source_indices.tobytes()
                and mine.qber_estimate == theirs.qber_estimate
            )
            out.expect(same, f"socket replay {side} key differs from run_session's")
        out.pulses = s["pulses_sent"]
        out.sifted_bits = len(result.alice_key)
        return out


WORKLOADS = {
    "paper_default": lambda: CliWorkload("paper_default", 10_000_000, {}),
    "attack_drift": lambda: CliWorkload(
        "attack_drift",
        10_000_000,
        {"eve": {"enabled": "true"}, "bob_amz": {"phase_jitter_rad": "0.1"}},
    ),
    "dense_wire": lambda: DenseWireWorkload(4_000_000),
}

"""Sifting and error-estimation protocol between the two stations.

The measurement basis on the receiving side is passive: the arrival slot
decides it, so the receiver is the one announcing (pulse index, measured
basis) pairs and the transmitter replies with the subset where her
preparation basis matches.  The transmitter's bits never appear on the
classical channel before that reply; only a disclosed sample is revealed
afterwards for error estimation, and those bits are discarded from both
keys.

Message flow (each message exactly once per session):

    A -> B   basis_request      pulse index range of the session
    B -> A   basis_announce     (pulse_idx, basis) of every registered event
    A -> B   match_reply        indices where bases agree (the sifted set)
    A -> B   sample_indices     random subset disclosed for QBER estimation
    B -> A   sample_bits        receiver's bits at the disclosed indices
    A -> B   qber_report        observed mismatch fraction

Messages are line-delimited, self-describing JSON records on byte-stream
transports; the default in-process transport passes the message objects
directly.  Any malformed, out-of-order or out-of-range message aborts the
session.
"""

from __future__ import annotations

import json
import math
import queue
import socket
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .optics import Port, Slot


class ProtocolError(RuntimeError):
    """Session abort: malformed, out-of-order or out-of-range message."""


class InsufficientKeyError(ProtocolError):
    """Not enough sifted bits to disclose an error-estimation sample."""


# ---------------------------------------------------------------------------
# Pulse records and classifications
# ---------------------------------------------------------------------------


class PulseTrain:
    """Transmitter's per-pulse (bit, basis) choices, stored as arrays;
    basis codes are 0 = Z, 1 = X."""

    def __init__(self, bits: np.ndarray, bases: np.ndarray):
        bits = np.asarray(bits, dtype=np.uint8)
        bases = np.asarray(bases, dtype=np.uint8)
        if bits.shape != bases.shape or bits.ndim != 1:
            raise ValueError("bits and bases must be 1-D arrays of equal length")
        self.bits = bits
        self.bases = bases

    def __len__(self) -> int:
        return self.bits.size

    def state_indices(self) -> np.ndarray:
        """Canonical-state index per pulse: (Z,0), (Z,1), (X,0), (X,1)."""
        return (2 * self.bases + self.bits).astype(np.uint8)


class ClassifiedEvents:
    """Receiver-side classified detections, sorted by pulse index."""

    def __init__(self, pulse_indices: np.ndarray, bases: np.ndarray, bits: np.ndarray):
        idx = np.asarray(pulse_indices, dtype=np.int64)
        bases = np.asarray(bases, dtype=np.uint8)
        bits = np.asarray(bits, dtype=np.uint8)
        if not (idx.shape == bases.shape == bits.shape) or idx.ndim != 1:
            raise ValueError("index, basis and bit arrays must be 1-D and equal length")
        if idx.size and np.any(np.diff(idx) <= 0):
            raise ValueError("pulse indices must be strictly increasing")
        self.pulse_indices = idx
        self.bases = bases
        self.bits = bits

    def __len__(self) -> int:
        return self.pulse_indices.size


def classify_arrays(slots: np.ndarray, ports: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map registered (slot, port) events to (basis codes, bits).

    Edge slots carry the arrival-time basis regardless of port (S1 -> (Z,0),
    S3 -> (Z,1)); in the central slot the port carries the superposition
    basis bit (D1 -> (X,0), D0 -> (X,1)).
    """
    slots = np.asarray(slots)
    ports = np.asarray(ports)
    bases = (slots == Slot.S2).astype(np.uint8)
    bits = np.where(slots == Slot.S2, (ports == Port.D0), slots == Slot.S3)
    return bases, bits.astype(np.uint8)


# ---------------------------------------------------------------------------
# Messages and codec
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class BasisRequest:
    start: int
    stop: int


@dataclass(eq=False)
class BobBasisAnnounce:
    indices: np.ndarray
    bases: np.ndarray  # 0 = Z, 1 = X


@dataclass(eq=False)
class AliceMatchReply:
    indices: np.ndarray


@dataclass(eq=False)
class SampleIndices:
    indices: np.ndarray


@dataclass(eq=False)
class SampleBits:
    bits: np.ndarray


@dataclass(eq=False)
class QberReport:
    value: float


ClassicalMessage = (
    BasisRequest | BobBasisAnnounce | AliceMatchReply | SampleIndices | SampleBits | QberReport
)

_BASIS_CHARS = np.array(["Z", "X"])


def encode_message(msg: ClassicalMessage) -> bytes:
    """One self-describing JSON record per message, newline-terminated."""
    if isinstance(msg, BasisRequest):
        obj = {"type": "basis_request", "start": msg.start, "stop": msg.stop}
    elif isinstance(msg, BobBasisAnnounce):
        obj = {
            "type": "basis_announce",
            "indices": np.asarray(msg.indices).tolist(),
            "bases": "".join(_BASIS_CHARS[np.asarray(msg.bases)]),
        }
    elif isinstance(msg, AliceMatchReply):
        obj = {"type": "match_reply", "indices": np.asarray(msg.indices).tolist()}
    elif isinstance(msg, SampleIndices):
        obj = {"type": "sample_indices", "indices": np.asarray(msg.indices).tolist()}
    elif isinstance(msg, SampleBits):
        obj = {"type": "sample_bits", "bits": "".join(map(str, np.asarray(msg.bits).tolist()))}
    elif isinstance(msg, QberReport):
        obj = {"type": "qber_report", "value": msg.value}
    else:
        raise ProtocolError(f"cannot encode message of type {type(msg).__name__}")
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("ascii")


def _scalar(value, types: tuple[type, ...]):
    if type(value) not in types:
        raise ProtocolError(f"expected {' or '.join(t.__name__ for t in types)}, got {value!r}")
    return value


def _indices(value) -> np.ndarray:
    """A flat JSON list of integers as int64; checked by dtype, not per element."""
    arr = np.asarray(value)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind != "i"):
        raise ProtocolError("indices must be a flat list of integers")
    return arr.astype(np.int64, copy=False)


def _symbols(value, alphabet: tuple[bytes, bytes], what: str) -> np.ndarray:
    if not isinstance(value, str):
        raise ProtocolError(f"{what} must be a string")
    arr = np.frombuffer(value.encode("ascii"), dtype="S1")
    if arr.size and not np.all(np.isin(arr, alphabet)):
        raise ProtocolError(f"{what} contains a symbol outside {alphabet}")
    return (arr == alphabet[1]).astype(np.uint8)


def decode_message(line: bytes) -> ClassicalMessage:
    # No field of any message is a boolean, and no valid string field can
    # hold these letters; json would otherwise read true as 1 inside an
    # integer list, where a dtype check cannot see it.
    if b"true" in line or b"false" in line:
        raise ProtocolError("malformed message: messages carry no boolean values")
    try:
        obj = json.loads(line)
        kind = obj["type"]
        if kind == "basis_request":
            return BasisRequest(_scalar(obj["start"], (int,)), _scalar(obj["stop"], (int,)))
        if kind == "basis_announce":
            indices = _indices(obj["indices"])
            bases = _symbols(obj["bases"], (b"Z", b"X"), "basis_announce bases")
            if bases.size != indices.size:
                raise ProtocolError("basis_announce has different numbers of indices and bases")
            return BobBasisAnnounce(indices=indices, bases=bases)
        if kind == "match_reply":
            return AliceMatchReply(_indices(obj["indices"]))
        if kind == "sample_indices":
            return SampleIndices(_indices(obj["indices"]))
        if kind == "sample_bits":
            return SampleBits(_symbols(obj["bits"], (b"0", b"1"), "sample_bits"))
        if kind == "qber_report":
            return QberReport(float(_scalar(obj["value"], (int, float))))
        raise ProtocolError(f"unknown message type {kind!r}")
    except ProtocolError:
        raise
    except (KeyError, ValueError, TypeError, OverflowError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed message: {exc}") from exc


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------

_CLOSED = object()


class QueueTransport:
    """In-process duplex endpoint over a pair of thread-safe queues."""

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue, timeout: float = 120.0):
        self._inbox = inbox
        self._outbox = outbox
        self._timeout = timeout
        self._closed = False

    def send(self, msg: ClassicalMessage) -> None:
        if self._closed:
            raise ProtocolError("send on closed transport")
        self._outbox.put(msg)

    def recv(self) -> ClassicalMessage:
        try:
            item = self._inbox.get(timeout=self._timeout)
        except queue.Empty as exc:
            raise ProtocolError("timed out waiting for peer") from exc
        if item is _CLOSED:
            raise ProtocolError("transport closed by peer")
        return item

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._outbox.put(_CLOSED)


def queue_transport_pair(timeout: float = 120.0) -> tuple[QueueTransport, QueueTransport]:
    a_to_b: queue.Queue = queue.Queue()
    b_to_a: queue.Queue = queue.Queue()
    return (
        QueueTransport(inbox=b_to_a, outbox=a_to_b, timeout=timeout),
        QueueTransport(inbox=a_to_b, outbox=b_to_a, timeout=timeout),
    )


class SocketTransport:
    """Length-delimited (newline) JSON records over a byte-stream socket."""

    def __init__(self, sock: socket.socket, timeout: float = 120.0):
        sock.settimeout(timeout)
        self._sock = sock
        self._reader = sock.makefile("rb")

    def send(self, msg: ClassicalMessage) -> None:
        try:
            self._sock.sendall(encode_message(msg))
        except OSError as exc:
            raise ProtocolError(f"socket send failed: {exc}") from exc

    def recv(self) -> ClassicalMessage:
        try:
            line = self._reader.readline()
        except OSError as exc:
            raise ProtocolError(f"socket recv failed: {exc}") from exc
        if not line:
            raise ProtocolError("transport closed by peer")
        return decode_message(line)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._reader.close()
        self._sock.close()


class RecordingTransport:
    """Wrapper that logs every message with its direction, for inspection."""

    def __init__(self, inner, log: list | None = None):
        self._inner = inner
        self.log = log if log is not None else []

    def send(self, msg: ClassicalMessage) -> None:
        self.log.append(("send", msg))
        self._inner.send(msg)

    def recv(self) -> ClassicalMessage:
        msg = self._inner.recv()
        self.log.append(("recv", msg))
        return msg

    def close(self) -> None:
        self._inner.close()


# ---------------------------------------------------------------------------
# Keys and endpoint state machines
# ---------------------------------------------------------------------------


@dataclass
class SiftedKey:
    """Basis-matched key material with its QBER estimate.

    ``bits`` excludes the disclosed sample; qber_estimate is NaN until the
    estimation phase has run.
    """

    bits: np.ndarray
    source_indices: np.ndarray
    qber_estimate: float = math.nan
    disclosed_count: int = 0

    def __len__(self) -> int:
        return int(self.bits.size)

    def to_hex(self) -> str:
        """Bits packed MSB-first into bytes, zero-padded, lowercase hex."""
        if self.bits.size == 0:
            return ""
        return np.packbits(self.bits).tobytes().hex()


def _expect(msg: ClassicalMessage, kind: type) -> ClassicalMessage:
    if not isinstance(msg, kind):
        raise ProtocolError(
            f"protocol order violation: expected {kind.__name__}, got {type(msg).__name__}"
        )
    return msg


def _require_strictly_increasing(indices: np.ndarray, what: str) -> None:
    if indices.size and np.any(np.diff(indices) <= 0):
        raise ProtocolError(f"{what} indices are not strictly increasing")


def _require_subset(indices: np.ndarray, universe: np.ndarray, what: str) -> np.ndarray:
    """Positions of ``indices`` inside sorted ``universe``; abort if not a subset."""
    pos = np.searchsorted(universe, indices)
    if indices.size:
        inside = pos < universe.size
        ok = inside.copy()
        ok[inside] = universe[pos[inside]] == indices[inside]
        if not np.all(ok):
            raise ProtocolError(f"{what} contains indices outside the agreed set")
    return pos


def _alice_estimate_phase(
    transport, key: SiftedKey, sample_fraction: float, rng: np.random.Generator
) -> SiftedKey:
    kept = key.source_indices
    n_sample = int(sample_fraction * kept.size)
    if n_sample < 1:
        raise InsufficientKeyError(
            f"sifted key of {kept.size} bits cannot support a "
            f"{sample_fraction} disclosure fraction"
        )
    pick = np.sort(rng.choice(kept.size, size=n_sample, replace=False))
    transport.send(SampleIndices(kept[pick]))
    theirs = _expect(transport.recv(), SampleBits)
    if theirs.bits.size != n_sample:
        raise ProtocolError("sample_bits length does not match the disclosed set")
    qber = float(np.mean(theirs.bits != key.bits[pick]))
    transport.send(QberReport(qber))
    keep_mask = np.ones(kept.size, dtype=bool)
    keep_mask[pick] = False
    return SiftedKey(
        bits=key.bits[keep_mask],
        source_indices=kept[keep_mask],
        qber_estimate=qber,
        disclosed_count=n_sample,
    )


def _bob_estimate_phase(transport, key: SiftedKey) -> SiftedKey:
    sample = _expect(transport.recv(), SampleIndices)
    _require_strictly_increasing(sample.indices, "sample")
    pos = _require_subset(sample.indices, key.source_indices, "sample request")
    transport.send(SampleBits(key.bits[pos]))
    report = _expect(transport.recv(), QberReport)
    if not 0.0 <= report.value <= 1.0:
        raise ProtocolError(f"reported QBER {report.value} outside [0, 1]")
    keep_mask = np.ones(key.source_indices.size, dtype=bool)
    keep_mask[pos] = False
    return SiftedKey(
        bits=key.bits[keep_mask],
        source_indices=key.source_indices[keep_mask],
        qber_estimate=report.value,
        disclosed_count=int(sample.indices.size),
    )


class AliceEndpoint:
    """Transmitter-side state machine."""

    def __init__(
        self,
        records: PulseTrain,
        sample_fraction: float | None = None,
        rng: np.random.Generator | None = None,
    ):
        if sample_fraction is not None:
            if not 0.0 < sample_fraction <= 1.0:
                raise ValueError("sample_fraction must lie in (0, 1]")
            if rng is None:
                raise ValueError("error estimation requires an rng")
        self.records = records
        self.sample_fraction = sample_fraction
        self.rng = rng

    def run(self, transport) -> SiftedKey:
        try:
            key = self._sift(transport)
            if self.sample_fraction is not None:
                key = self._estimate(transport, key)
            return key
        except ProtocolError:
            transport.close()
            raise

    def _sift(self, transport) -> SiftedKey:
        n = len(self.records)
        transport.send(BasisRequest(0, n))
        ann = _expect(transport.recv(), BobBasisAnnounce)
        _require_strictly_increasing(ann.indices, "announced")
        if ann.indices.size and (ann.indices[0] < 0 or ann.indices[-1] >= n):
            raise ProtocolError("announced pulse index out of session range")
        matched = self.records.bases[ann.indices] == ann.bases
        kept = ann.indices[matched]
        transport.send(AliceMatchReply(kept))
        return SiftedKey(bits=self.records.bits[kept].copy(), source_indices=kept)

    def _estimate(self, transport, key: SiftedKey) -> SiftedKey:
        return _alice_estimate_phase(transport, key, self.sample_fraction, self.rng)


class BobEndpoint:
    """Receiver-side state machine."""

    def __init__(self, classifications: ClassifiedEvents, expect_estimate: bool = False):
        self.classifications = classifications
        self.expect_estimate = expect_estimate

    def run(self, transport) -> SiftedKey:
        try:
            key = self._sift(transport)
            if self.expect_estimate:
                key = self._estimate(transport, key)
            return key
        except ProtocolError:
            transport.close()
            raise

    def _sift(self, transport) -> SiftedKey:
        req = _expect(transport.recv(), BasisRequest)
        if req.start != 0 or req.stop < req.start:
            raise ProtocolError("malformed basis_request range")
        ev = self.classifications
        if len(ev) and (ev.pulse_indices[0] < req.start or ev.pulse_indices[-1] >= req.stop):
            raise ProtocolError("own detection events fall outside the announced range")
        transport.send(BobBasisAnnounce(ev.pulse_indices, ev.bases))
        reply = _expect(transport.recv(), AliceMatchReply)
        _require_strictly_increasing(reply.indices, "match reply")
        pos = _require_subset(reply.indices, ev.pulse_indices, "match reply")
        return SiftedKey(bits=ev.bits[pos].copy(), source_indices=reply.indices.copy())

    def _estimate(self, transport, key: SiftedKey) -> SiftedKey:
        return _bob_estimate_phase(transport, key)


def _run_pair(alice_fn: Callable[[], SiftedKey], bob_fn: Callable[[], SiftedKey]):
    """Drive both endpoints concurrently; re-raise the first failure."""
    result: dict[str, SiftedKey] = {}
    errors: dict[str, BaseException] = {}

    def bob_runner() -> None:
        try:
            result["bob"] = bob_fn()
        except BaseException as exc:  # noqa: BLE001 - propagated below
            errors["bob"] = exc

    t = threading.Thread(target=bob_runner, name="bob-endpoint")
    t.start()
    try:
        result["alice"] = alice_fn()
    except BaseException as exc:  # noqa: BLE001
        errors["alice"] = exc
    t.join()
    if "alice" in errors:
        raise errors["alice"]
    if "bob" in errors:
        raise errors["bob"]
    return result["alice"], result["bob"]


def sift(
    alice_records: PulseTrain,
    bob_classifications: ClassifiedEvents,
    transports=None,
) -> tuple[SiftedKey, SiftedKey]:
    """Run basis reconciliation; both returned keys share source_indices."""
    if transports is None:
        transports = queue_transport_pair()
    ta, tb = transports
    alice = AliceEndpoint(alice_records)
    bob = BobEndpoint(bob_classifications)
    return _run_pair(lambda: alice.run(ta), lambda: bob.run(tb))


def estimate_qber(
    keys: tuple[SiftedKey, SiftedKey],
    sample_fraction: float,
    rng: np.random.Generator,
    transports=None,
) -> tuple[SiftedKey, SiftedKey]:
    """Disclose a random key sample over the transport and record the QBER."""
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError("sample_fraction must lie in (0, 1]")
    if transports is None:
        transports = queue_transport_pair()
    ta, tb = transports
    key_a, key_b = keys

    def alice_side() -> SiftedKey:
        try:
            return _alice_estimate_phase(ta, key_a, sample_fraction, rng)
        except ProtocolError:
            ta.close()
            raise

    def bob_side() -> SiftedKey:
        try:
            return _bob_estimate_phase(tb, key_b)
        except ProtocolError:
            tb.close()
            raise

    return _run_pair(alice_side, bob_side)


def run_protocol(
    alice_records: PulseTrain,
    bob_classifications: ClassifiedEvents,
    sample_fraction: float,
    rng: np.random.Generator,
    transports=None,
    record: bool = False,
) -> tuple[SiftedKey, SiftedKey, list]:
    """Full session (sifting plus error estimation) over one transport pair.

    With record=True the returned list holds Alice's transcript as
    (direction, message) tuples.
    """
    if transports is None:
        transports = queue_transport_pair()
    ta, tb = transports
    log: list = []
    if record:
        ta = RecordingTransport(ta, log)
    alice = AliceEndpoint(alice_records, sample_fraction, rng)
    bob = BobEndpoint(bob_classifications, expect_estimate=True)
    key_a, key_b = _run_pair(lambda: alice.run(ta), lambda: bob.run(tb))
    return key_a, key_b, log

"""Sifting and error-estimation protocol between the two stations.

The measurement basis on the receiving side is passive: the arrival slot
decides it, so the receiver is the one announcing (pulse index, measured
basis) pairs and the transmitter replies with the positions in that list
where her preparation basis matches.  The transmitter's bits never appear
on the classical channel before that reply; only a disclosed sample is
revealed afterwards for error estimation, and those bits are discarded
from both keys.

Message flow (each message exactly once per session):

    B -> A   basis_announce     (pulse_idx, basis) of every registered event
    A -> B   match_reply        announce positions where bases agree (sifted set)
                                and sifted-set positions disclosed (sample)
    B -> A   sample_bits        receiver's bits at the disclosed positions
    A -> B   qber_report        observed mismatch fraction

Each station is a state machine without I/O: ``start()`` returns its
opening messages (the receiver's announce; the transmitter has none),
``receive(msg)`` checks one incoming message and returns the replies, and
``key`` is set once the session completes.  In process, ``run_protocol``
hands the message objects from one endpoint to the other on the caller's
thread, and the transmitter can read the announced pulses' states from the
caller instead of hashing them.  On a byte stream, ``drive`` runs one
endpoint over a transport; each binary record follows its length, and a
length above the endpoint's ``max_record`` is refused unread.  Any
malformed, out-of-order or out-of-range message aborts the session.

A record is a kind byte (0 announce, 1 match reply, 2 sample bits, 3 QBER
report), then the message's fields in order.  A set of pulse indices or
positions is a u64 count, a u8 width and ``count * width`` bytes of
little-endian unsigned gaps between the strictly increasing indices (the
first gap is the first index + 1).  The width w(m) is the narrowest of 1,
2, 4 or 8 bytes that holds the largest gap m, so ``count`` indices with no
gap above m take at most ``9 + count * w(m)`` bytes: each ``max_record``
is the fullest record whose count and m are the pulse count (announce) or
the event count (match reply).  A bit string (bases, Z = 0 and X = 1, or
disclosed bits) is a u64 count and the ``np.packbits`` bytes, and the QBER
a float64.  Every number is little-endian.
"""

from __future__ import annotations

import math
import socket
import struct
from dataclasses import dataclass

import numpy as np

from .optics import CELL_STATE


class ProtocolError(RuntimeError):
    """Session abort: malformed, out-of-order or out-of-range message."""


class InsufficientKeyError(ProtocolError):
    """Not enough sifted bits to disclose an error-estimation sample."""


# ---------------------------------------------------------------------------
# Pulse records and classifications
# ---------------------------------------------------------------------------


class PulseTrain:
    """Transmitter's per-pulse (bit, basis) choices, computed on demand
    from a 64-bit ``key``, so the train holds no per-pulse data.

    Pulse i's state index s = 2 * basis + bit (basis codes 0 = Z, 1 = X)
    is the top two bits of the SplitMix64 finaliser (Steele, Lea and Flood
    2014) of ``key + i * 0x9E3779B97F4A7C15`` in wrapping 64-bit arithmetic.
    The finaliser's last step, ``z ^= z >> 31``, leaves the top 31 bits of
    z as they are, so the hash stops after the third multiply.
    """

    _CHUNK = 1 << 16  # indices hashed per pass: keeps the temporaries in cache

    def __init__(self, n: int, key: int):
        if not 0 <= n < 2**63 or not 0 <= key < 2**64:
            raise ValueError("a train needs 0 <= n < 2**63 (int64 indices) and a 64-bit unsigned key")
        self.n = n
        self.key = np.uint64(key)

    def __len__(self) -> int:
        return self.n

    def states(self, idx: np.ndarray) -> np.ndarray:
        """uint8 state index of each pulse in ``idx``."""
        idx = np.asarray(idx)
        out = np.empty(idx.size, dtype=np.uint8)
        # Two uint64 buffers serve every chunk; assigning into z converts the
        # indices (a signed array times a uint64 would go to float64).
        buffers = np.empty((2, min(idx.size, self._CHUNK)), dtype=np.uint64)
        for lo in range(0, idx.size, self._CHUNK):
            z, t = buffers[:, : idx.size - lo]
            z[...] = idx[lo : lo + z.size]
            z *= np.uint64(0x9E3779B97F4A7C15)
            z += self.key
            z ^= np.right_shift(z, np.uint64(30), out=t)
            z *= np.uint64(0xBF58476D1CE4E5B9)
            z ^= np.right_shift(z, np.uint64(27), out=t)
            z *= np.uint64(0x94D049BB133111EB)
            out[lo : lo + z.size] = np.right_shift(z, np.uint64(62), out=t)
        return out

    def choices(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(bits, bases) of the pulses in ``idx``."""
        s = self.states(idx)
        return s & 1, s >> 1


def _zeros_and_ones(codes, what: str) -> np.ndarray:
    """``codes`` as uint8, refused before the cast unless integers 0 and 1."""
    codes = np.asarray(codes)
    if codes.dtype.kind not in "biu" or codes.size and (codes.min() < 0 or codes.max() > 1):
        raise ValueError(f"{what} must be integers 0 or 1")
    return codes.astype(np.uint8, copy=False)


class ClassifiedEvents:
    """Receiver-side classified detections, sorted by pulse index."""

    def __init__(self, pulse_indices: np.ndarray, bases: np.ndarray, bits: np.ndarray):
        idx = np.asarray(pulse_indices)
        if idx.dtype.kind not in "iu":
            raise ValueError("pulse indices must be integers")
        idx = idx.astype(np.int64, copy=False)
        bases = _zeros_and_ones(bases, "bases")
        bits = _zeros_and_ones(bits, "bits")
        if not (idx.shape == bases.shape == bits.shape) or idx.ndim != 1:
            raise ValueError("index, basis and bit arrays must be 1-D and equal length")
        if np.any(idx[1:] <= idx[:-1]):
            raise ValueError("pulse indices must be strictly increasing")
        self.pulse_indices = idx
        self.bases = bases
        self.bits = bits

    def __len__(self) -> int:
        return self.pulse_indices.size


# Bit c of each mask is the basis (or the bit) of CELL_STATE[c].
_BASIS_MASK, _BIT_MASK = (np.packbits(CELL_STATE >> k & 1, bitorder="little")[0] for k in (1, 0))


def classify_arrays(slots: np.ndarray, ports: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map registered (slot, port) events to (basis codes, bits).

    Edge slots carry the arrival-time basis regardless of port (S1 -> (Z,0),
    S3 -> (Z,1)); in the central slot the port carries the superposition
    basis bit (D1 -> (X,0), D0 -> (X,1)): the cell's ``CELL_STATE``, whose
    index is 2 * basis + bit, read as one bit of a per-cell mask each.
    """
    cells = 2 * np.asarray(slots, dtype=np.uint8) + np.asarray(ports, dtype=np.uint8)
    return (_BASIS_MASK >> cells) & 1, (_BIT_MASK >> cells) & 1


# ---------------------------------------------------------------------------
# Messages and codec
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class BobBasisAnnounce:
    indices: np.ndarray
    bases: np.ndarray  # 0 = Z, 1 = X


@dataclass(eq=False)
class AliceMatchReply:
    indices: np.ndarray  # announce positions where the bases agree
    sample: np.ndarray  # positions in ``indices`` disclosed for the QBER


@dataclass(eq=False)
class SampleBits:
    bits: np.ndarray


@dataclass(eq=False)
class QberReport:
    value: float


ClassicalMessage = BobBasisAnnounce | AliceMatchReply | SampleBits | QberReport

_GAP_DTYPES = {d.itemsize: d for d in map(np.dtype, ("<u1", "<u2", "<u4", "<u8"))}


def _index_field_cap(count: int, largest: int) -> int:
    """Length of the longest index field of ``count`` gaps none above ``largest``."""
    return 9 + count * next(w for w in _GAP_DTYPES if largest < 256**w)


def _index_field(indices: np.ndarray) -> list:
    gaps = np.diff(np.asarray(indices, dtype=np.int64), prepend=-1)
    if gaps.min(initial=1) < 1:
        raise ProtocolError("cannot encode indices that are negative or not strictly increasing")
    top = int(gaps.max(initial=0))
    dtype = next(d for d in _GAP_DTYPES.values() if top < 256**d.itemsize)
    return [struct.pack("<QB", gaps.size, dtype.itemsize), gaps.astype(dtype)]


def _bit_field(bits: np.ndarray) -> list:
    return [struct.pack("<Q", np.asarray(bits).size), np.packbits(bits)]


def encode_message(msg: ClassicalMessage) -> bytes:
    """One binary record per message: the kind byte, then the fields in
    order, each gap or packed-bit array copied once, by the join."""
    if isinstance(msg, BobBasisAnnounce):
        parts = [b"\0", *_index_field(msg.indices), *_bit_field(msg.bases)]
    elif isinstance(msg, AliceMatchReply):
        parts = [b"\1", *_index_field(msg.indices), *_index_field(msg.sample)]
    elif isinstance(msg, SampleBits):
        parts = [b"\2", *_bit_field(msg.bits)]
    elif isinstance(msg, QberReport):
        parts = [struct.pack("<Bd", 3, msg.value)]
    else:
        raise ProtocolError(f"cannot encode message of type {type(msg).__name__}")
    return b"".join(parts)


def _indices(record: bytes, at: int) -> tuple[np.ndarray, int]:
    """The index field at byte ``at`` as strictly increasing non-negative
    int64 indices, and the offset after it."""
    count, width = struct.unpack_from("<QB", record, at)
    if width not in _GAP_DTYPES:
        raise ProtocolError(f"unknown index width {width}")
    gaps = np.frombuffer(record, _GAP_DTYPES[width], count, at + 9)
    if gaps.min(initial=1) == 0:
        raise ProtocolError("index gap of 0: indices must strictly increase")
    ends = gaps.astype(np.uint64)
    np.cumsum(ends, out=ends)
    # Only when count gaps of this width can pass 2**63 can the sum wrap.
    if count * (256**width - 1) > 2**63 and (ends[-1] > 2**63 or np.any(ends[1:] <= ends[:-1])):
        raise ProtocolError("index gaps sum past the int64 range")
    ends -= np.uint64(1)
    return ends.view(np.int64), at + 9 + count * width


def _bits(record: bytes, at: int, what: str) -> tuple[np.ndarray, int]:
    """The bit field at byte ``at`` as 0s and 1s, and the offset after it."""
    (count,) = struct.unpack_from("<Q", record, at)
    size = -(-count // 8)
    bits = np.unpackbits(np.frombuffer(record, np.uint8, size, at + 8))
    if bits[count:].any():
        raise ProtocolError(f"{what} padding bits are not zero")
    return bits[:count], at + 8 + size


def decode_message(record: bytes) -> ClassicalMessage:
    try:
        kind = record[0]
        if kind == 0:
            indices, at = _indices(record, 1)
            bases, at = _bits(record, at, "basis_announce bases")
            msg = BobBasisAnnounce(indices, bases)
        elif kind == 1:
            indices, at = _indices(record, 1)
            sample, at = _indices(record, at)
            msg = AliceMatchReply(indices, sample)
        elif kind == 2:
            bits, at = _bits(record, 1, "sample_bits")
            msg = SampleBits(bits)
        elif kind == 3:
            msg, at = QberReport(*struct.unpack_from("<d", record, 1)), 9
        else:
            raise ProtocolError(f"unknown message kind {kind}")
        if at != len(record):
            raise ProtocolError(f"{len(record) - at} bytes after the last field")
        return msg
    # np.frombuffer raises OverflowError for a count past the C integer range.
    except (struct.error, ValueError, IndexError, OverflowError) as exc:
        raise ProtocolError(f"malformed message: {exc}") from exc


# ---------------------------------------------------------------------------
# Socket transport
# ---------------------------------------------------------------------------


class SocketTransport:
    """Binary records over a byte-stream socket, each after its length as
    an 8-byte little-endian unsigned integer."""

    def __init__(self, sock: socket.socket, timeout: float = 120.0):
        sock.settimeout(timeout)
        self._sock = sock
        self._reader = sock.makefile("rb")

    def send(self, msg: ClassicalMessage) -> None:
        record = encode_message(msg)
        try:
            self._sock.sendall(struct.pack("<Q", len(record)) + record)
        except OSError as exc:
            raise ProtocolError(f"socket send failed: {exc}") from exc

    def _read(self, size: int) -> bytes:
        """``size`` bytes in requests of at most 16 MiB: the reader sets aside
        each request whole, and the peer's length is only a claim."""
        parts = []
        try:
            while size > 0:
                parts.append(self._reader.read(min(size, 1 << 24)))
                if not parts[-1]:
                    raise ProtocolError("transport closed by peer")
                size -= len(parts[-1])
        except OSError as exc:
            raise ProtocolError(f"socket recv failed: {exc}") from exc
        return b"".join(parts)

    def recv(self, max_record: int) -> ClassicalMessage:
        """Next message; a length above ``max_record`` bytes aborts before
        any of the record is read."""
        (size,) = struct.unpack("<Q", self._read(8))
        if size > max_record:
            raise ProtocolError(f"record of {size} bytes is longer than {max_record}")
        return decode_message(self._read(size))

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._reader.close()
        self._sock.close()


# ---------------------------------------------------------------------------
# Keys and endpoint state machines
# ---------------------------------------------------------------------------


@dataclass
class SiftedKey:
    """Basis-matched key material with its QBER estimate.

    ``bits`` excludes the disclosed sample.
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


def _expect(msg: ClassicalMessage, kind: type | None) -> None:
    if kind is None or not isinstance(msg, kind):
        expected = "nothing, session complete" if kind is None else kind.__name__
        raise ProtocolError(
            f"protocol order violation: expected {expected}, got {type(msg).__name__}"
        )


def _require_increasing_within(
    indices: np.ndarray, size: int, what: str, outside: str = "position outside the agreed set"
) -> None:
    """Abort unless ``indices`` strictly increase inside ``range(size)``;
    ``outside`` completes the error for an index out of that range."""
    if np.any(indices[1:] <= indices[:-1]):
        raise ProtocolError(f"{what} indices are not strictly increasing")
    if indices.size and (indices[0] < 0 or indices[-1] >= size):
        raise ProtocolError(f"{what} {outside}")


def _undisclosed(
    bits: np.ndarray, indices: np.ndarray, sifted: np.ndarray, sample: np.ndarray, qber: float
) -> SiftedKey:
    """The key at announce positions ``sifted`` less the disclosed
    ``sample``, given as positions within ``sifted``, from the
    per-announced-event ``bits`` and pulse ``indices``."""
    at = np.delete(sifted, sample)
    return SiftedKey(bits.take(at), indices.take(at), qber, int(sample.size))


class AliceEndpoint:
    """Transmitter-side state machine: it answers the basis announce with
    the match reply (sifted positions and a sample drawn from ``rng``) and
    the sample bits with the QBER report.  An announce whose index array is
    the very object ``known[0]`` reads its states from ``known[1]``; any
    other, such as one decoded from a transport, is hashed from ``records``."""

    def __init__(self, records: PulseTrain, sample_fraction: float, rng: np.random.Generator, known=None):
        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError("sample_fraction must lie in (0, 1]")
        self.records = records
        self._known = known or (None, None)
        self.sample_fraction = sample_fraction
        self.rng = rng
        n = len(records)  # no announced gap exceeds n; sample bits are shorter
        self.max_record = 1 + _index_field_cap(n, n) + 8 + -(-n // 8)
        self.key: SiftedKey | None = None
        self._next: type | None = BobBasisAnnounce

    def start(self) -> list[ClassicalMessage]:
        return []

    def receive(self, msg: ClassicalMessage) -> list[ClassicalMessage]:
        _expect(msg, self._next)
        if isinstance(msg, BobBasisAnnounce):
            if msg.bases.shape != msg.indices.shape or np.any(msg.bases >> 1):  # any bit but the lowest
                raise ProtocolError("basis_announce needs one basis, 0 or 1, per index")
            sent = self._known[1] if msg.indices is self._known[0] else None
            _require_increasing_within(msg.indices, len(self.records), "announced",
                                       "pulse index out of session range")
            bits, bases = self.records.choices(msg.indices) if sent is None else (sent & 1, sent >> 1)
            matched = np.flatnonzero(bases == msg.bases)
            n_sample = int(self.sample_fraction * matched.size)
            if n_sample < 1:
                raise InsufficientKeyError(
                    f"sifted key of {matched.size} bits cannot support a "
                    f"{self.sample_fraction} disclosure fraction"
                )
            pick = np.sort(self.rng.choice(matched.size, size=n_sample, replace=False))
            self._announced, self._bits, self._sifted, self._sample = msg.indices, bits, matched, pick
            self._next = SampleBits
            return [AliceMatchReply(matched, pick)]
        if msg.bits.size != self._sample.size:
            raise ProtocolError("sample_bits length does not match the disclosed set")
        qber = float(np.mean(msg.bits != self._bits.take(self._sifted.take(self._sample))))
        self.key = _undisclosed(self._bits, self._announced, self._sifted, self._sample, qber)
        self._next = None
        return [QberReport(qber)]


class BobEndpoint:
    """Receiver-side state machine: it opens with the basis announce and
    answers the match reply with its bits at the disclosed positions."""

    def __init__(self, classifications: ClassifiedEvents):
        self.classifications = classifications
        events = len(classifications)  # a reply's positions lie below it
        self.max_record = 1 + 2 * _index_field_cap(events, events)
        self.key: SiftedKey | None = None
        self._next: type | None = AliceMatchReply

    def start(self) -> list[ClassicalMessage]:
        ev = self.classifications
        return [BobBasisAnnounce(ev.pulse_indices, ev.bases)]

    def receive(self, msg: ClassicalMessage) -> list[ClassicalMessage]:
        _expect(msg, self._next)
        ev = self.classifications
        if isinstance(msg, AliceMatchReply):
            _require_increasing_within(msg.indices, len(ev), "match reply")
            _require_increasing_within(msg.sample, msg.indices.size, "sample")
            self._sifted, self._sample = msg.indices, msg.sample
            self._next = QberReport
            return [SampleBits(ev.bits.take(msg.indices.take(msg.sample)))]
        if not 0.0 <= msg.value <= 1.0:
            raise ProtocolError(f"reported QBER {msg.value} outside [0, 1]")
        self.key = _undisclosed(ev.bits, ev.pulse_indices, self._sifted, self._sample, msg.value)
        self._next = None
        return []


def drive(endpoint: AliceEndpoint | BobEndpoint, transport) -> list[ClassicalMessage]:
    """Run ``endpoint`` over ``transport`` until its key is set.

    Returns the messages it sent and received, in order.  On ProtocolError
    the transport is closed, so the peer's ``recv`` aborts too.
    """
    log: list[ClassicalMessage] = []
    try:
        out = endpoint.start()
        while True:
            for msg in out:
                transport.send(msg)
            log += out
            if endpoint.key is not None:
                return log
            msg = transport.recv(endpoint.max_record)
            log.append(msg)
            out = endpoint.receive(msg)
    except ProtocolError:
        transport.close()
        raise


def run_protocol(
    alice_records: PulseTrain,
    bob_classifications: ClassifiedEvents,
    sample_fraction: float,
    rng: np.random.Generator,
    transports=None,
    sent: np.ndarray | None = None,
) -> tuple[SiftedKey, SiftedKey, list[ClassicalMessage]]:
    """Full session (sifting plus error estimation); returns both keys and
    the transcript, every message of the session in wire order.

    ``sent``, the uint8 transmitter state of each event's pulse, spares the
    transmitter hashing the events again in process, where the announce
    carries their own index array; a decoded announce is hashed.

    Without ``transports`` the endpoints exchange message objects on the
    caller's thread.  With a (transmitter, receiver) transport pair each
    endpoint is driven over its own transport; the receiver, which opens
    the session, runs as a future on a worker thread, because a socket pair
    cannot buffer a large announce until the transmitter reads it.
    """
    if sent is not None and np.shape(sent) != bob_classifications.pulse_indices.shape:
        raise ValueError("sent must hold one state per event")
    known = None if sent is None else (bob_classifications.pulse_indices, sent)
    alice = AliceEndpoint(alice_records, sample_fraction, rng, known)
    bob = BobEndpoint(bob_classifications)
    if transports is None:
        wire = [(bob, msg) for msg in alice.start()] + [(alice, msg) for msg in bob.start()]
        i = 0
        while i < len(wire):
            recipient, msg = wire[i]
            sender = alice if recipient is bob else bob
            wire += [(sender, reply) for reply in recipient.receive(msg)]
            i += 1
        return alice.key, bob.key, [msg for _, msg in wire]

    # Imported here: it loads logging, which no in-process session needs.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1, thread_name_prefix="bob-endpoint") as pool:
        bob_side = pool.submit(drive, bob, transports[1])
        # Every message passes through the transmitter, so her log is the
        # whole transcript.
        transcript = drive(alice, transports[0])
    bob_side.result()
    return alice.key, bob.key, transcript

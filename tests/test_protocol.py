"""Sifting/estimation state machines, wire codec and transports."""

import math
import re
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from per_pulse import ArrayTrain
from timebin_bb84 import detection, protocol, session
from timebin_bb84.config import SessionConfig
from timebin_bb84.optics import CELL_STATE, Basis, Port, Slot
from timebin_bb84.protocol import (
    AliceEndpoint,
    AliceMatchReply,
    BobBasisAnnounce,
    BobEndpoint,
    ClassifiedEvents,
    InsufficientKeyError,
    ProtocolError,
    PulseTrain,
    QberReport,
    SampleBits,
    SiftedKey,
    SocketTransport,
    classify_arrays,
    decode_message,
    drive,
    encode_message,
    run_protocol,
)
from timebin_bb84.session import run_session


def random_train(n: int, rng: np.random.Generator) -> ArrayTrain:
    return ArrayTrain(rng.integers(0, 2, n, dtype=np.uint8), rng.integers(0, 2, n, dtype=np.uint8))


def splitmix64(x: int) -> int:
    """The SplitMix64 finaliser in Python integers, as a reference."""
    mask = (1 << 64) - 1
    z = x & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


class TestAliceGenerate:
    """The transmitter's bit and basis choices, as a session makes them."""

    def test_reproducible(self):
        cfg = SessionConfig(n_pulses=20_000, seed=9)
        idx = np.arange(cfg.n_pulses)
        sent = run_session(cfg).records.states(idx)
        again = run_session(cfg).records.states(idx)
        bits, bases = sent & 1, sent >> 1
        assert np.array_equal(bits, again & 1) and np.array_equal(bases, again >> 1)
        assert set(np.unique(bits)) == {0, 1} and set(np.unique(bases)) == {0, 1}

    def test_uniform_frequencies(self):
        n = 1_000_000
        train = run_session(SessionConfig(n_pulses=n, seed=31337)).records
        sent = train.states(np.arange(n))
        bits, bases = sent & 1, sent >> 1
        counts = np.bincount(2 * bases + bits, minlength=4)
        sigma = math.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - n / 4) <= 4 * sigma)

    def test_state_is_top_bits_of_splitmix64(self):
        """Across several hashing chunks, a subset read equals the full
        read, and both equal the Python-integer reference (the complete
        finaliser).  So do indices past 2^32 and near 2^62, under a key near
        2^64 too, given as int64, uint64 or a list."""
        key = 0xDEADBEEF12345678
        train = PulseTrain(200_000, key)
        sent = train.states(np.arange(200_000))
        bits, bases = sent & 1, sent >> 1
        idx = np.array([0, 1, 65_535, 65_536, 131_073, 199_999])
        sub = train.states(idx)
        sub_bits, sub_bases = sub & 1, sub >> 1
        assert np.array_equal(sub_bits, bits[idx]) and np.array_equal(sub_bases, bases[idx])
        for i, bit, basis in zip(idx, sub_bits, sub_bases):
            state = splitmix64(key + int(i) * 0x9E3779B97F4A7C15) >> 62
            assert (bit, basis) == (state & 1, state >> 1)

        far = [2**32 - 1, 2**32, 2**32 + 12_345, 2**40 + 3, 2**62 - 1, 2**62, 2**62 + 2**40 + 7]
        far += list(range(2**62 - 300, 2**62 + 300))
        for key in (0xDEADBEEF12345678, 2**64 - 1, 2**64 - 0x9E3779B97F4A7C15):
            want = [splitmix64(key + i * 0x9E3779B97F4A7C15) >> 62 for i in far]
            train = PulseTrain(2**63 - 1, key)
            for given in (np.array(far, np.int64), np.array(far, np.uint64), far):
                states = train.states(given)
                assert states.dtype == np.uint8 and states.tolist() == want

    def test_train_domain(self):
        for n, key in ((-1, 0), (10, -1), (10, 2**64)):
            with pytest.raises(ValueError):
                PulseTrain(n, key)

    def test_train_holds_at_most_an_int64_index_of_pulses(self):
        assert len(PulseTrain(2**63 - 1, 0)) == 2**63 - 1
        with pytest.raises(ValueError, match=re.escape("0 <= n < 2**63")):
            PulseTrain(2**63, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PulseTrain(True, 1), "0 <= n < 2**63"),
        (lambda: PulseTrain(10, True), "64-bit unsigned key"),
        (lambda: AliceEndpoint(PulseTrain(10, 1), True, np.random.default_rng(0)), "sample_fraction must lie"),
        (lambda: session.profile_rows(SessionConfig(), sampled_pulses=True), "sampled_pulses must be >= 0"),
    ],
    ids=["train_length", "train_key", "sample_fraction", "sampled_pulses"],
)
def test_a_bool_is_no_number(call, message):
    """Python-only numeric arguments refuse a bool, as the config's fields do."""
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


CELLS = [
    (Slot.S1, Port.D0, Basis.Z, 0),
    (Slot.S1, Port.D1, Basis.Z, 0),  # port ignored in edge slots
    (Slot.S3, Port.D0, Basis.Z, 1),
    (Slot.S3, Port.D1, Basis.Z, 1),
    (Slot.S2, Port.D1, Basis.X, 0),
    (Slot.S2, Port.D0, Basis.X, 1),
]


class TestClassify:
    @pytest.mark.parametrize("slot,port,basis,bit", CELLS)
    def test_mapping(self, slot, port, basis, bit):
        bases, bits = classify_arrays(np.array([slot], np.uint8), np.array([port], np.uint8))
        assert bases.tolist() == [1 if basis == Basis.X else 0]
        assert bits.tolist() == [bit]

    def test_vectorised_matches_scalar(self):
        # one call over all six cells agrees with the cell-by-cell table
        slots, ports, basis, bit = zip(*CELLS)
        bases, bits = classify_arrays(np.array(slots, np.uint8), np.array(ports, np.uint8))
        assert bases.tolist() == [1 if b == Basis.X else 0 for b in basis]
        assert bits.tolist() == list(bit)
        # and so does one call over many random events, cell by cell
        rng = np.random.default_rng(17)
        slots = rng.integers(0, 3, 100_000).astype(np.uint8)
        ports = rng.integers(0, 2, 100_000).astype(np.uint8)
        bases, bits = classify_arrays(slots, ports)
        states = CELL_STATE[2 * slots + ports]
        assert bases.dtype == bits.dtype == np.uint8
        assert np.array_equal(bases, states >> 1) and np.array_equal(bits, states & 1)


def make_events(*triples) -> ClassifiedEvents:
    idx, bases, bits = zip(*triples) if triples else ((), (), ())
    return ClassifiedEvents(
        np.array(idx, np.int64), np.array(bases, np.uint8), np.array(bits, np.uint8)
    )


class TestSift:
    def test_matched_basis_kept(self):
        # transmitter sent (Z,0) at pulse 7; receiver measured (Z,0) there
        bits = np.zeros(12, np.uint8)
        bases = np.zeros(12, np.uint8)
        bases[9] = 1  # pulse 9 sent in X
        records = ArrayTrain(bits, bases)
        events = make_events((7, 0, 0), (9, 0, 1))  # receiver measured Z at both
        key_a, key_b, transcript = run_protocol(records, events, 1.0, np.random.default_rng(0))
        # the reply names pulse 7 by its position in the announce
        assert transcript[1].indices.tolist() == [0]
        # the one sifted bit is disclosed, and both stations hold 0 there
        assert transcript[1].sample.tolist() == [0]
        assert key_a.qber_estimate == key_b.qber_estimate == 0.0
        assert len(key_a) == len(key_b) == 0

    def test_incompatible_basis_discarded(self):
        records = ArrayTrain(np.zeros(10, np.uint8), np.ones(10, np.uint8))  # all X
        events = make_events((3, 0, 0), (5, 0, 1))  # receiver measured Z
        with pytest.raises(InsufficientKeyError):
            run_protocol(records, events, 1.0, np.random.default_rng(0))

    def test_indices_always_identical(self):
        rng = np.random.default_rng(17)
        records = random_train(500, rng)
        idx = np.sort(rng.choice(500, size=120, replace=False))
        events = ClassifiedEvents(
            idx,
            rng.integers(0, 2, 120).astype(np.uint8),
            rng.integers(0, 2, 120).astype(np.uint8),
        )
        key_a, key_b, transcript = run_protocol(records, events, 0.1, np.random.default_rng(1))
        assert np.array_equal(key_a.source_indices, key_b.source_indices)
        matched = np.flatnonzero(records.bases[idx] == events.bases)
        assert np.array_equal(transcript[1].indices, matched)
        # disclosed positions index the sifted set, whose other bits remain
        kept = np.delete(idx[matched], transcript[1].sample)
        assert np.array_equal(key_a.source_indices, kept)

    def test_noiseless_keys_agree(self):
        rng = np.random.default_rng(8)
        records = random_train(2000, rng)
        # receiver measures every 3rd pulse in the correct basis, right bit
        idx = np.arange(0, 2000, 3, dtype=np.int64)
        events = ClassifiedEvents(idx, records.bases[idx], records.bits[idx])
        key_a, key_b, _ = run_protocol(records, events, 0.1, np.random.default_rng(2))
        assert np.array_equal(key_a.bits, key_b.bits)
        assert len(key_a) + key_a.disclosed_count == idx.size


class TestEstimateQber:
    def make_stations(self, n, n_errors, seed=0):
        """Both stations in the Z basis at every pulse, with ``n_errors``
        receiver bits flipped: every pulse is sifted."""
        rng = np.random.default_rng(seed)
        bits_a = rng.integers(0, 2, n).astype(np.uint8)
        bits_b = bits_a.copy()
        flip = rng.choice(n, size=n_errors, replace=False)
        bits_b[flip] ^= 1
        zeros = np.zeros(n, np.uint8)
        return ArrayTrain(bits_a, zeros), ClassifiedEvents(np.arange(n), zeros, bits_b)

    def test_identical_keys_zero(self):
        stations = self.make_stations(200, 0)
        key_a, key_b, _ = run_protocol(*stations, 0.25, np.random.default_rng(1))
        assert key_a.qber_estimate == 0.0 and key_b.qber_estimate == 0.0
        assert key_a.disclosed_count == 50
        assert len(key_a) == 150 and len(key_b) == 150

    def test_full_disclosure_exact(self):
        stations = self.make_stations(100, 25)
        key_a, key_b, _ = run_protocol(*stations, 1.0, np.random.default_rng(2))
        assert key_a.qber_estimate == 0.25 == key_b.qber_estimate
        assert len(key_a) == 0 and len(key_b) == 0
        assert key_a.disclosed_count == 100

    def test_half_disclosure_within_binomial_bound(self):
        n, eps = 100_000, 0.1
        stations = self.make_stations(n, int(n * eps), seed=3)
        key_a, _, _ = run_protocol(*stations, 0.5, np.random.default_rng(4))
        sigma = math.sqrt(eps * (1 - eps) / (n // 2))
        assert abs(key_a.qber_estimate - eps) <= 4 * sigma

    def test_insufficient_key(self):
        stations = self.make_stations(5, 0)
        with pytest.raises(InsufficientKeyError):
            run_protocol(*stations, 0.1, np.random.default_rng(5))

    def test_fraction_domain(self):
        stations = self.make_stations(10, 0)
        with pytest.raises(ValueError):
            run_protocol(*stations, 0.0, np.random.default_rng(6))
        with pytest.raises(ValueError):
            run_protocol(*stations, 1.5, np.random.default_rng(6))

    def test_disclosed_bits_removed_consistently(self):
        stations = self.make_stations(400, 40, seed=9)
        key_a, key_b, _ = run_protocol(*stations, 0.3, np.random.default_rng(10))
        assert np.array_equal(key_a.source_indices, key_b.source_indices)
        assert len(key_a) == 400 - key_a.disclosed_count


def index_field(*gaps, size=1, count=None, width=None) -> bytes:
    """An index field holding ``gaps`` at ``size`` bytes each; ``count``
    and ``width`` replace the header's values."""
    codes = {1: "B", 2: "H", 4: "I", 8: "Q"}
    header = struct.pack("<QB", len(gaps) if count is None else count, width or size)
    return header + struct.pack(f"<{len(gaps)}{codes[size]}", *gaps)


def bit_field(*bits, count=None) -> bytes:
    """A bit field packing ``bits`` MSB first, padding bits included;
    ``count`` replaces the header's value."""
    packed = bytes(int("".join(map(str, bits[k : k + 8])).ljust(8, "0"), 2) for k in range(0, len(bits), 8))
    return struct.pack("<Q", len(bits) if count is None else count) + packed


def reply_record(sample=index_field(1)) -> bytes:
    """A match_reply record with one sifted position and ``sample``."""
    return b"\x01" + index_field(1) + sample


def layout(msg) -> bytes:
    """``msg`` as its record built field by field with ``struct``, each gap
    list at the narrowest width that holds its gaps."""

    def indices(values):
        gaps = np.diff(np.asarray(values, np.int64), prepend=-1).tolist()
        return index_field(*gaps, size=next(w for w in (1, 2, 4, 8) if max(gaps, default=0) < 256**w))

    if isinstance(msg, BobBasisAnnounce):
        return b"\x00" + indices(msg.indices) + bit_field(*msg.bases.tolist())
    if isinstance(msg, AliceMatchReply):
        return b"\x01" + indices(msg.indices) + indices(msg.sample)
    if isinstance(msg, SampleBits):
        return b"\x02" + bit_field(*msg.bits.tolist())
    return struct.pack("<Bd", 3, msg.value)


def spaced(top: int, count: int = 11) -> np.ndarray:
    """``count`` increasing indices whose largest gap is ``top``."""
    return np.cumsum(np.r_[top - 1, np.arange(1, count)])


CODEC_MESSAGES = {
    "announce_width1": BobBasisAnnounce(spaced(255), np.arange(11, dtype=np.uint8) % 2),
    "announce_width2": BobBasisAnnounce(spaced(256), np.ones(11, np.uint8)),
    "announce_width4": BobBasisAnnounce(spaced(2**32 - 1), np.zeros(11, np.uint8)),
    "announce_width8": BobBasisAnnounce(spaced(2**40), np.arange(11, dtype=np.uint8) % 3 % 2),
    "announce_empty": BobBasisAnnounce(np.array([], np.int64), np.array([], np.uint8)),
    "reply_mixed_widths": AliceMatchReply(spaced(70_000), np.array([0, 4, 10])),
    "reply_width8": AliceMatchReply(spaced(2**33), spaced(2)),
    "reply_empty": AliceMatchReply(np.array([], np.int64), np.array([], np.int64)),
    "reply_empty_sample": AliceMatchReply(spaced(3), np.array([], np.int64)),
    "sample_bits_13": SampleBits(np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 1], np.uint8)),
    "sample_bits_16": SampleBits(np.ones(16, np.uint8)),
    "sample_bits_empty": SampleBits(np.array([], np.uint8)),
    "qber_zero": QberReport(0.0),
    "qber_third": QberReport(1 / 3),
    "qber_one": QberReport(1.0),
}


@st.composite
def damaged_record(draw):
    """A ``CODEC_MESSAGES`` record cut short or with one byte replaced."""
    record = encode_message(draw(st.sampled_from(list(CODEC_MESSAGES.values()))))
    k = draw(st.integers(0, len(record) - 1))
    if draw(st.booleans()):
        return record[:k]
    return record[:k] + bytes([draw(st.integers(0, 255))]) + record[k + 1 :]


class TestCodec:
    @pytest.mark.parametrize(
        "msg",
        [
            BobBasisAnnounce(np.array([1, 5, 9]), np.array([0, 1, 0], np.uint8)),
            AliceMatchReply(np.array([5, 9]), np.array([1])),
            SampleBits(np.array([1, 0, 1], np.uint8)),
            QberReport(0.0625),
        ],
    )
    def test_round_trip(self, msg):
        back = decode_message(encode_message(msg))
        assert type(back) is type(msg)
        for name, value in vars(msg).items():
            got = getattr(back, name)
            if isinstance(value, np.ndarray):
                assert np.array_equal(got, value)
            else:
                assert got == value

    @pytest.mark.parametrize("msg", CODEC_MESSAGES.values(), ids=CODEC_MESSAGES.keys())
    def test_record_is_the_struct_layout(self, msg):
        """Each record is byte for byte its field-by-field layout, at every
        gap width, with empty lists and partly filled packed bytes."""
        assert encode_message(msg) == layout(msg)

    def test_width_is_narrowest_that_holds_largest_gap(self):
        for top, width in [(255, 1), (256, 2), (2**16, 4), (2**32 - 1, 4), (2**32, 8)]:
            indices = np.array([3, 3 + top])
            record = encode_message(AliceMatchReply(indices, indices))
            # kind, count, width, two gaps, then the sample's count and width
            assert record[9] == record[18 + 2 * width] == width

    def test_unencodable_indices_refused(self):
        for indices in ([-1, 4], [4, 4], [5, 2]):
            with pytest.raises(ProtocolError, match="cannot encode"):
                encode_message(AliceMatchReply(np.array(indices), np.array([0])))
            with pytest.raises(ProtocolError, match="cannot encode"):
                encode_message(AliceMatchReply(np.array([0]), np.array(indices)))

    def test_unknown_message_type_refused(self):
        with pytest.raises(ProtocolError, match="cannot encode message of type str"):
            encode_message("qber 0.1")

    def test_malformed_rejected(self):
        with pytest.raises(ProtocolError):
            decode_message(b"")
        with pytest.raises(ProtocolError):
            decode_message(b"\x01" + index_field())  # a match_reply without its sample

    @pytest.mark.parametrize(
        "record,error",
        [
            (reply_record(index_field(2**64 - 1, 2, size=8)), "index gaps sum past the int64 range"),
            (reply_record(index_field(1, 0)), "index gap of 0: indices must strictly increase"),
            (reply_record(index_field(1, count=2)), "malformed message"),
            (reply_record() + b"\x00", "1 bytes after the last field"),
            (b"\x02" + bit_field(1, 0, 0, 0, 0, 0, 0, 1, count=1), "sample_bits padding bits are not zero"),
            (reply_record(index_field(1, width=3)), "unknown index width 3"),
            (b"\x04" + reply_record()[1:], "unknown message kind 4"),
            (reply_record(index_field(1, size=8, count=2**64 - 1)), "malformed message"),
            (b"\x02" + bit_field(1, count=2**64 - 1), "malformed message"),
        ],
        ids=[
            "overflow", "gap_zero", "byte_length", "trailing_bytes",
            "padding_bits", "unknown_width", "unknown_kind", "index_count_max", "bit_count_max",
        ],
    )
    def test_malformed_fields_rejected(self, record, error):
        with pytest.raises(ProtocolError, match=re.escape(error)):
            decode_message(record)

    @pytest.mark.parametrize(
        "record,kind",
        [(b"\x04" + struct.pack("<QQ", 0, 1000), 4),
         (b"\x05" + index_field(*[1] * 10), 5)],
        ids=["basis_request", "sample_indices"],
    )
    def test_retired_message_types_rejected(self, record, kind):
        """The retired basis_request and sample_indices messages, laid out
        under kind bytes past the four in use, are refused by kind."""
        with pytest.raises(ProtocolError, match=f"unknown message kind {kind}"):
            decode_message(record)

    def test_every_truncation_refused(self):
        for msg in CODEC_MESSAGES.values():
            record = encode_message(msg)
            for k in range(len(record)):
                with pytest.raises(ProtocolError):
                    decode_message(record[:k])

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.binary(max_size=64), damaged_record()))
    def test_any_bytes_decode_or_refuse(self, record):
        """Any bytes decode to a message whose index sets strictly increase
        from 0 up and whose bits are 0 or 1, or raise ProtocolError."""
        try:
            msg = decode_message(record)
        except ProtocolError:
            return
        assert isinstance(msg, protocol.ClassicalMessage)
        for value in vars(msg).values():
            if isinstance(value, np.ndarray) and value.dtype == np.int64:
                assert np.all(np.diff(value) > 0) and value.min(initial=0) >= 0
            elif isinstance(value, np.ndarray):
                assert value.dtype == np.uint8 and value.max(initial=0) <= 1


# Gaps that force each index width: the largest gap is at least ``lo``.
WIDTH_GAPS = {1: (1, 2**8 - 1), 2: (2**8, 2**16 - 1), 4: (2**16, 2**32 - 1), 8: (2**32, 2**40)}


@st.composite
def wide_session(draw):
    """An all-Z, all-zero pulse train (a broadcast view, so a train of
    2**40 pulses takes no memory) and receiver events whose announce needs
    a given index width.  Up to 600 events, all of them in Z when
    ``x_share`` is 0, so the match reply can reach the receiver's cap."""
    width = draw(st.sampled_from(sorted(WIDTH_GAPS)))
    lo, hi = WIDTH_GAPS[width]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = rng.integers(1, hi, draw(st.integers(0, 600)), endpoint=True)
    gaps = np.insert(gaps, draw(st.integers(0, gaps.size)), draw(st.integers(lo, hi)))
    idx = np.cumsum(gaps) - 1
    x_share = draw(st.sampled_from([0.0, 0.5]))
    bases = (rng.random(idx.size) < x_share).astype(np.uint8)
    bases[draw(st.integers(0, idx.size - 1))] = 0  # at least one sifted event
    bits = rng.integers(0, 2, idx.size, dtype=np.uint8)
    n = int(idx[-1]) + 1 + draw(st.integers(0, 1000))
    zeros = np.broadcast_to(np.uint8(0), (n,))
    sifted = int(np.count_nonzero(bases == 0))
    fraction = min(1.0, (draw(st.integers(1, sifted)) + 0.5) / sifted)
    return width, ArrayTrain(zeros, zeros), ClassifiedEvents(idx, bases, bits), fraction


def assert_same_message(back, msg):
    assert type(back) is type(msg)
    for name, value in vars(msg).items():
        got = getattr(back, name)
        if isinstance(value, np.ndarray):
            assert got.tolist() == value.tolist()
        else:
            assert got == value


def assert_cap_is_exact(cap: int, full) -> None:
    """``full``'s record is ``cap`` bytes long and is read, and a length one
    byte longer is refused before any of its body is read: no body follows
    that length, so a read would time out instead."""
    record = encode_message(full)
    assert len(record) == cap
    sock_a, sock_b = socket.socketpair()
    transport = SocketTransport(sock_a, timeout=5.0)
    try:
        sock_b.sendall(struct.pack("<Q", len(record)) + record)
        assert_same_message(transport.recv(cap), full)
        sock_b.sendall(struct.pack("<Q", len(record) + 1))
        with pytest.raises(ProtocolError, match="longer than"):
            transport.recv(cap)
    finally:
        transport.close()
        sock_b.close()


class TestRecordCap:
    @settings(max_examples=60, deadline=None)
    @given(wide_session())
    def test_honest_records_fit_recipient_cap(self, session):
        width, records, events, fraction = session
        alice_cap = AliceEndpoint(records, fraction, np.random.default_rng(0)).max_record
        bob_cap = BobEndpoint(events).max_record
        _, _, transcript = run_protocol(records, events, fraction, np.random.default_rng(5))
        assert encode_message(transcript[0])[9] == width  # the announce's gap width
        for msg in transcript:
            record = encode_message(msg)
            to_alice = isinstance(msg, (BobBasisAnnounce, SampleBits))
            assert len(record) <= (alice_cap if to_alice else bob_cap)
            assert_same_message(decode_message(record), msg)

    @pytest.mark.parametrize("events", [0, 1, 200, 255])
    def test_receiver_cap_is_the_fullest_honest_reply(self, events):
        """Below 256 events every gap fits one byte, so the receiver's cap
        is exactly the fullest honest match reply, every announced position
        sifted and disclosed."""
        bob = BobEndpoint(make_events(*[(i, 0, 0) for i in range(events)]))
        assert_cap_is_exact(bob.max_record, AliceMatchReply(np.arange(events), np.arange(events)))

    @pytest.mark.parametrize("n", [1, 200, 255])
    def test_transmitter_cap_is_the_fullest_honest_announce(self, n):
        """Below 256 pulses every gap fits one byte, so the transmitter's cap
        is exactly the announce of every pulse."""
        alice = AliceEndpoint(PulseTrain(n, 0), 0.5, np.random.default_rng(0))
        assert_cap_is_exact(alice.max_record, BobBasisAnnounce(np.arange(n), np.ones(n, np.uint8)))

    @pytest.mark.parametrize("n, width", [(256, 2), (65535, 2), (65536, 4)])
    def test_transmitter_cap_holds_announces_at_width_boundaries(self, n, width):
        """The lone index n - 1 has the largest gap an announce can have, n,
        and every pulse announced has the most gaps; both fit the cap."""
        cap = AliceEndpoint(PulseTrain(n, 0), 0.5, np.random.default_rng(0)).max_record
        for idx in (np.array([n - 1]), np.arange(n)):
            msg = BobBasisAnnounce(idx, np.ones(idx.size, np.uint8))
            record = encode_message(msg)
            assert len(record) <= cap
            assert_same_message(decode_message(record), msg)
        assert encode_message(BobBasisAnnounce(np.array([n - 1]), np.ones(1, np.uint8)))[9] == width

    @pytest.mark.parametrize("n, cap", [(0, 18), (200, 243), (10**7, 41_250_018)])
    def test_transmitter_cap_takes_the_width_of_the_pulse_count(self, n, cap):
        """w(n) bytes per pulse, the width that holds n, and a packed basis bit."""
        assert AliceEndpoint(PulseTrain(n, 0), 0.5, np.random.default_rng(0)).max_record == cap

    def test_empty_records_fit_cap(self):
        cap = BobEndpoint(make_events()).max_record
        empty = np.empty(0, np.int64)
        for msg in [
            BobBasisAnnounce(empty, np.empty(0, np.uint8)),
            AliceMatchReply(empty, empty),
            SampleBits(np.empty(0, np.uint8)),
        ]:
            record = encode_message(msg)
            assert len(record) <= cap
            assert_same_message(decode_message(record), msg)


def run_over_sockets(records, events, sample_fraction, seed):
    sock_a, sock_b = socket.socketpair()
    ta, tb = SocketTransport(sock_a), SocketTransport(sock_b)
    try:
        return run_protocol(
            records, events, sample_fraction, np.random.default_rng(seed), transports=(ta, tb)
        )
    finally:
        ta.close()
        tb.close()


class TestTransports:
    def test_socket_matches_in_process(self):
        rng = np.random.default_rng(55)
        records = random_train(3000, rng)
        idx = np.sort(rng.choice(3000, size=800, replace=False))
        events = ClassifiedEvents(
            idx,
            rng.integers(0, 2, 800).astype(np.uint8),
            records.bits[idx],  # receiver happens to read the sent bit
        )
        key_sock_a, key_sock_b, wire_sock = run_over_sockets(records, events, 0.2, seed=77)
        key_a, key_b, wire = run_protocol(records, events, 0.2, np.random.default_rng(77))
        assert np.array_equal(key_sock_a.bits, key_a.bits)
        assert np.array_equal(key_sock_b.bits, key_b.bits)
        assert np.array_equal(key_sock_a.source_indices, key_a.source_indices)
        assert key_sock_a.qber_estimate == key_a.qber_estimate
        assert [encode_message(m) for m in wire_sock] == [encode_message(m) for m in wire]

    def test_closed_socket_aborts_drive(self):
        sock_a, sock_b = socket.socketpair()
        ta, tb = SocketTransport(sock_a, timeout=5.0), SocketTransport(sock_b, timeout=5.0)
        ta.close()
        records = random_train(4, np.random.default_rng(0))
        alice = AliceEndpoint(records, 0.5, np.random.default_rng(1))
        with pytest.raises(ProtocolError, match="closed by peer"):
            drive(alice, tb)
        tb.close()

    def test_overlong_record_aborts(self):
        # The peer sends only a length one byte over the cap and keeps its
        # socket open: a recv that read any of the body would wait for it
        # and time out after 5 s, failing the match below.
        sock_a, sock_b = socket.socketpair()
        ta = SocketTransport(sock_a, timeout=5.0)
        records = random_train(50, np.random.default_rng(0))
        alice = AliceEndpoint(records, 0.5, np.random.default_rng(1))
        sock_b.sendall(struct.pack("<Q", alice.max_record + 1))
        try:
            with pytest.raises(ProtocolError, match="longer than"):
                drive(alice, ta)
        finally:
            ta.close()
            sock_b.close()

    def test_claimed_length_is_not_set_aside(self):
        """A length under a large cap from a peer that then closes ends in
        "closed by peer": the record is read in bounded requests, not set
        aside whole from the claim (a 1 TiB request raised MemoryError)."""
        sock_a, sock_b = socket.socketpair()
        ta = SocketTransport(sock_a, timeout=5.0)
        sock_b.sendall(struct.pack("<Q", 2**40) + b"\x00" * 100)
        sock_b.close()
        try:
            with pytest.raises(ProtocolError, match="closed by peer"):
                ta.recv(2**41)
        finally:
            ta.close()

    @pytest.mark.parametrize("op", ["send", "recv"])
    def test_socket_error_is_a_protocol_error(self, op):
        """A send to a closed peer, or a recv past its timeout, aborts the
        session with ProtocolError instead of the socket's OSError."""
        sock_a, sock_b = socket.socketpair()
        transport = SocketTransport(sock_a, timeout=0.05)
        if op == "send":
            sock_b.close()
        try:
            with pytest.raises(ProtocolError, match=f"socket {op} failed"):
                if op == "send":
                    transport.send(QberReport(0.0))
                else:
                    transport.recv(100)
        finally:
            transport.close()
            sock_b.close()

    def test_receiver_thread_error_reaches_the_caller(self, monkeypatch):
        """An error on the receiver's helper thread, raised after the
        transmitter's side has completed, is raised again to the caller."""
        receive = BobEndpoint.receive

        def fail_on_report(self, msg):
            if isinstance(msg, QberReport):
                raise RuntimeError("receiver failed on the report")
            return receive(self, msg)

        monkeypatch.setattr(BobEndpoint, "receive", fail_on_report)
        records = ArrayTrain(np.zeros(8, np.uint8), np.zeros(8, np.uint8))
        with pytest.raises(RuntimeError, match="receiver failed on the report"):
            run_over_sockets(records, make_events((0, 0, 0), (2, 0, 0), (5, 0, 1)), 0.5, seed=0)

    def test_in_process_session_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("an in-process session started a thread")

        monkeypatch.setattr(threading, "Thread", no_thread)  # every worker starts through it
        result = run_session(SessionConfig(n_pulses=20_000, seed=3))
        assert np.array_equal(result.alice_key.source_indices, result.bob_key.source_indices)


class TestOneAnnouncePath:
    def test_candidates_then_announced_events_each_hashed_once(self, monkeypatch):
        """The session's pass hashes each candidate once, and the transmitter
        hashes each announced event once more, from her own records."""
        candidates, hashed = [], []
        states = PulseTrain.states

        def detected(batch, rows):
            candidates.append(batch.offsets.size)
            return detection.detect_batch(batch, rows)

        def hashing(self, idx):
            hashed.append(np.asarray(idx).size)
            return states(self, idx)

        monkeypatch.setattr(session, "detect_batch", detected)
        monkeypatch.setattr(PulseTrain, "states", hashing)
        result = run_session(SessionConfig(n_pulses=3 * session.BATCH_SIZE + 7, seed=62))
        assert len(result.classifications) > 1000
        assert sum(hashed) == sum(candidates) + len(result.classifications)


class TestAborts:
    def test_out_of_order_message(self):
        bob = BobEndpoint(make_events((1, 0, 0)))
        bob.start()
        with pytest.raises(ProtocolError, match="order violation"):
            bob.receive(QberReport(0.0))  # before the match reply

    def test_announce_out_of_range(self):
        records = ArrayTrain(np.zeros(4, np.uint8), np.zeros(4, np.uint8))
        alice = AliceEndpoint(records, 0.5, np.random.default_rng(0))
        alice.start()
        with pytest.raises(ProtocolError, match="out of session range"):
            alice.receive(BobBasisAnnounce(np.array([2, 9]), np.array([0, 0], np.uint8)))

    def test_announce_not_monotone(self):
        records = ArrayTrain(np.zeros(4, np.uint8), np.zeros(4, np.uint8))
        alice = AliceEndpoint(records, 0.5, np.random.default_rng(0))
        alice.start()
        with pytest.raises(ProtocolError, match="strictly increasing"):
            alice.receive(BobBasisAnnounce(np.array([3, 1]), np.array([0, 0], np.uint8)))

    @pytest.mark.parametrize(
        "announce",
        [
            BobBasisAnnounce(np.array([1, 5, 9]), np.array([0], np.uint8)),
            b"\x00" + index_field(1, 5, 4) + bit_field(1, 0),
            BobBasisAnnounce(np.array([1, 5]), np.array([0, 2], np.uint8)),
            BobBasisAnnounce(np.array([1, 5]), np.array([-1, 0])),
        ],
        ids=["three_indices_one_basis", "decoded_length_mismatch", "basis_2", "basis_negative"],
    )
    def test_announce_needs_one_basis_per_index(self, announce):
        """The transmitter checks an announce's bases, decoded or handed over
        in process: decoding reads the bases' count from their own field."""
        if isinstance(announce, bytes):
            announce = decode_message(announce)
        records = ArrayTrain(np.zeros(12, np.uint8), np.zeros(12, np.uint8))
        alice = AliceEndpoint(records, 0.5, np.random.default_rng(0))
        with pytest.raises(ProtocolError, match="one basis, 0 or 1, per index"):
            alice.receive(announce)

    def test_sample_bits_length_checked(self):
        records = ArrayTrain(np.zeros(12, np.uint8), np.zeros(12, np.uint8))
        alice = AliceEndpoint(records, 0.5, np.random.default_rng(0))
        [reply] = alice.receive(BobBasisAnnounce(np.array([1, 5, 9, 11]), np.zeros(4, np.uint8)))
        with pytest.raises(ProtocolError, match="sample_bits length does not match"):
            alice.receive(SampleBits(np.zeros(reply.sample.size + 1, np.uint8)))

    @pytest.mark.parametrize("value", [-0.25, 1.5, math.nan])
    def test_reported_qber_outside_unit_interval(self, value):
        bob = BobEndpoint(make_events((4, 0, 0), (5, 1, 1), (8, 0, 1)))
        bob.start()
        bob.receive(AliceMatchReply(np.array([0, 2]), np.array([1])))
        with pytest.raises(ProtocolError, match="outside \\[0, 1\\]"):
            bob.receive(QberReport(value))

    @pytest.mark.parametrize(
        "idx,bases,bits,error",
        [
            ([1, 2, 3], [0, 1], [0, 1, 1], "1-D and equal length"),
            ([[1, 2]], [[0, 1]], [[0, 1]], "1-D and equal length"),
            ([1, 3, 3], [0, 1, 0], [0, 1, 1], "strictly increasing"),
            ([4, 2], [0, 1], [0, 1], "strictly increasing"),
            ([0.7, 1.9, 2.5], [0, 1, 0], [0, 1, 1], "indices must be integers"),
            ([1, 2], [256, 0], [0, 1], "bases must be integers 0 or 1"),
            ([1, 2], [2, 0], [3, 1], "bases must be integers 0 or 1"),
            ([1, 2], [0, 1], [0, 3], "bits must be integers 0 or 1"),
            ([1, 2], [0, 1], [-1, 0], "bits must be integers 0 or 1"),
        ],
        ids=["short_bases", "two_d", "repeated_index", "decreasing", "float_indices", "basis_256",
             "basis_2", "bit_3", "bit_negative"],
    )
    def test_classified_events_refusals(self, idx, bases, bits, error):
        with pytest.raises(ValueError, match=error):
            ClassifiedEvents(np.array(idx), np.array(bases), np.array(bits))

    def test_sample_outside_sifted_set(self):
        bob = BobEndpoint(make_events((4, 0, 0), (5, 1, 1), (8, 0, 1)))
        bob.start()
        with pytest.raises(ProtocolError, match="outside the agreed set"):
            bob.receive(AliceMatchReply(np.array([0, 2]), np.array([2])))  # pulses 4 and 8

    def test_sample_not_monotone(self):
        bob = BobEndpoint(make_events((4, 0, 0), (8, 0, 1)))
        bob.start()
        with pytest.raises(ProtocolError, match="strictly increasing"):
            bob.receive(AliceMatchReply(np.array([0, 1]), np.array([1, 1])))

    def test_reply_not_subset_of_announce(self):
        bob = BobEndpoint(make_events((1, 0, 0), (3, 1, 1)))
        bob.start()
        with pytest.raises(ProtocolError, match="outside the agreed set"):
            bob.receive(AliceMatchReply(np.array([2]), np.array([0])))

    @pytest.mark.parametrize(
        "reply,error",
        [([0, 3], "outside the agreed set"), ([-1, 1], "outside the agreed set"),
         ([2, 0], "strictly increasing")],
        ids=["past_announce", "negative", "not_monotone"],
    )
    def test_reply_positions_checked(self, reply, error):
        bob = BobEndpoint(make_events((4, 0, 0), (5, 1, 1), (8, 0, 1)))
        bob.start()
        with pytest.raises(ProtocolError, match=error):
            bob.receive(AliceMatchReply(np.array(reply), np.array([0])))

    @pytest.mark.parametrize("sample", [[0, 2], [7]], ids=["at_size", "far_past"])
    def test_sample_past_sifted_set(self, sample):
        bob = BobEndpoint(make_events((4, 0, 0), (5, 1, 1), (8, 0, 1)))
        bob.start()
        with pytest.raises(ProtocolError, match="outside the agreed set"):
            bob.receive(AliceMatchReply(np.array([0, 1]), np.array(sample)))  # a sifted set of 2

    def test_message_after_completion(self):
        records = ArrayTrain(np.zeros(8, np.uint8), np.zeros(8, np.uint8))
        bob = BobEndpoint(make_events((0, 0, 0), (2, 0, 0)))
        _, _, transcript = run_protocol(records, bob.classifications, 0.5, np.random.default_rng(0))
        for msg in transcript:
            if not isinstance(msg, (BobBasisAnnounce, SampleBits)):
                bob.receive(msg)
        assert bob.key is not None
        with pytest.raises(ProtocolError, match="session complete"):
            bob.receive(transcript[-1])


class TestTranscript:
    def run_recorded(self, bits):
        records = ArrayTrain(bits, np.zeros(8, np.uint8))
        events = make_events((0, 0, 0), (2, 0, 1), (5, 0, 0))
        _, _, transcript = run_protocol(records, events, 0.5, np.random.default_rng(3))
        return transcript

    def test_message_sequence(self):
        transcript = self.run_recorded(np.zeros(8, np.uint8))
        assert [type(m) for m in transcript] == [
            BobBasisAnnounce,
            AliceMatchReply,
            SampleBits,
            QberReport,
        ]

    def test_no_bit_leakage_before_reply(self):
        # everything on the wire up to and including the transmitter's
        # match reply must be independent of her bit string: same bases +
        # same receiver events => byte-identical prefix for different bit
        # strings
        rng = np.random.default_rng(12)
        bits_one = rng.integers(0, 2, 8).astype(np.uint8)
        bits_two = bits_one ^ 1
        log_one = self.run_recorded(bits_one)
        log_two = self.run_recorded(bits_two)
        prefix_one = [encode_message(m) for m in log_one[:2]]
        prefix_two = [encode_message(m) for m in log_two[:2]]
        assert prefix_one == prefix_two
        # and the reply itself carries positions only
        reply = log_one[1]
        assert isinstance(reply, AliceMatchReply)
        assert set(vars(reply)) == {"indices", "sample"}


def honest_wire():
    """A valid session's records as sent on the wire, each after its
    length, and each tagged with its recipient."""
    rng = np.random.default_rng(21)
    records = random_train(60, rng)
    idx = np.sort(rng.choice(60, size=30, replace=False))
    events = ClassifiedEvents(idx, rng.integers(0, 2, 30).astype(np.uint8), records.bits[idx])
    _, _, transcript = run_protocol(records, events, 0.3, np.random.default_rng(22))
    to_alice = (BobBasisAnnounce, SampleBits)
    framed = (encode_message(m) for m in transcript)
    wire = [(not isinstance(m, to_alice), struct.pack("<Q", len(r)) + r) for m, r in zip(transcript, framed)]
    return records, events, wire


RECORDS, EVENTS, WIRE = honest_wire()


@st.composite
def tampered_wire(draw):
    """The honest wire after 1-3 random tamperings, and whether any of them
    edited a byte of a record."""
    wire = list(WIRE)
    edited = False
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["edit", "truncate", "drop", "duplicate", "swap", "junk"]))
        i = draw(st.integers(0, max(len(wire) - 1, 0)))
        if op == "junk":
            line = draw(st.binary(max_size=40)).replace(b"\n", b"") + b"\n"
            wire.insert(i, (draw(st.booleans()), line))
        elif not wire:
            continue
        elif op == "edit":
            to_bob, line = wire[i]
            k = draw(st.integers(0, len(line)))
            wire[i] = (to_bob, line[:k] + bytes([draw(st.integers(0, 255))]) + line[k + 1 :])
            edited = True
        elif op == "truncate":
            to_bob, line = wire[i]
            wire[i] = (to_bob, line[: draw(st.integers(0, len(line)))])
        elif op == "drop":
            del wire[i]
        elif op == "duplicate":
            wire.insert(i, wire[i])
        else:
            j = draw(st.integers(0, len(wire) - 1))
            (to_i, line_i), (to_j, line_j) = wire[i], wire[j]
            wire[i], wire[j] = (to_i, line_j), (to_j, line_i)
    return wire, edited


def drive_replay(endpoint, stream: bytes):
    """Drive ``endpoint`` over a socket whose peer has written ``stream``
    and closed; the endpoint's own messages go unread.  Any exception but
    ProtocolError propagates."""
    sock_a, sock_b = socket.socketpair()
    transport = SocketTransport(sock_a, timeout=5.0)
    sock_b.sendall(stream)
    sock_b.shutdown(socket.SHUT_WR)
    try:
        drive(endpoint, transport)
    except ProtocolError:
        pass
    finally:
        transport.close()
        sock_b.close()
    return endpoint.key


def assert_own_data(key, indices, bits):
    """A finished key holds its station's own bits at increasing indices
    that the station knows."""
    assert np.all(np.diff(key.source_indices) > 0)
    pos = np.searchsorted(indices, key.source_indices)
    assert np.array_equal(indices[pos], key.source_indices)
    assert np.array_equal(bits[pos], key.bits)


class TestTamperedTranscript:
    @settings(max_examples=200, deadline=None)
    @given(tampered_wire())
    def test_abort_or_agreed_indices(self, tampered):
        wire, edited = tampered
        alice = AliceEndpoint(RECORDS, 0.3, np.random.default_rng(22))
        bob = BobEndpoint(EVENTS)
        key_a = drive_replay(alice, b"".join(line for to_bob, line in wire if not to_bob))
        key_b = drive_replay(bob, b"".join(line for to_bob, line in wire if to_bob))
        if key_a is not None:
            assert_own_data(key_a, np.arange(len(RECORDS)), RECORDS.bits)
        if key_b is not None:
            assert_own_data(key_b, EVENTS.pulse_indices, EVENTS.bits)
        # A byte edit can turn one index into another valid one (13 -> 12
        # in the announce), which no check can see without an authenticated
        # channel.  Dropped, repeated, swapped, cut or junk records cannot.
        if key_a is not None and key_b is not None and not edited:
            assert np.array_equal(key_a.source_indices, key_b.source_indices)


class TestSiftedKey:
    def test_hex_packing(self):
        key = SiftedKey(np.array([1, 0, 1, 1, 0, 0, 1, 0], np.uint8), np.arange(8))
        assert key.to_hex() == "b2"

    def test_hex_pads_tail(self):
        key = SiftedKey(np.array([1, 1, 1], np.uint8), np.arange(3))
        assert key.to_hex() == "e0"

    def test_empty(self):
        key = SiftedKey(np.empty(0, np.uint8), np.empty(0, np.int64))
        assert key.to_hex() == "" and len(key) == 0

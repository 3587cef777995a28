"""In-memory spans and counters recorded around the simulator's layers.

Spans are recorded from the benchmark's own wrappers around the names the
package's modules call each other through (``session.detect_batch``,
``cli.run_session``, ``protocol.SocketTransport.recv``, ...); nothing in
the package is changed.  A wrapped name that is absent, or whose result no
longer has the expected shape, makes the metrics it feeds absent: the run
goes on and the package's behaviour is untouched.

A span carries its name, start, end, parent and thread.  A span's parent is
the innermost open span on the same thread, so self time (duration minus
the children's durations) never counts work of a concurrent thread: the
sifting protocol's receiver endpoint runs on a thread of its own while the
transmitter endpoint waits in ``recv`` on the op's thread.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: str
    op: int


class Tracer:
    """Collects spans and counters in memory; thread-safe."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.absent: set[str] = set()
        self.op = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, name, start, end, parent, threading.current_thread().name, self.op)
            with self._lock:
                self.spans.append(span)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[(self.op, name)] += value


# ---------------------------------------------------------------------------
# Hooks: what to wrap, and what each wrapper counts
# ---------------------------------------------------------------------------


def _count_detection(tracer: Tracer, args, result) -> None:
    registered, _, _, any_click = result
    tracer.count("detection.pulses", len(args[0]))
    tracer.count("detection.registered", int(np.count_nonzero(registered)))
    tracer.count("detection.any_click", int(np.count_nonzero(any_click)))


def _count_attack(tracer: Tracer, args, result) -> None:
    outcomes, _ = result
    tracer.count("eavesdrop.pulses", len(outcomes))
    tracer.count("eavesdrop.vacuum", int(np.count_nonzero(outcomes == 6)))


def _count_message(tracer: Tracer, args, result) -> None:
    msg = args[1]
    tracer.count("protocol.messages")
    kind = type(msg).__name__
    if kind == "BobBasisAnnounce":
        tracer.count("protocol.announced_events", len(msg.indices))
    elif kind == "AliceMatchReply":
        tracer.count("protocol.matched_events", len(msg.indices))


def _count_wire(tracer: Tracer, args, result) -> None:
    tracer.count("protocol.wire_bytes", len(result))


@dataclass(frozen=True)
class Hook:
    """Wrap ``owner.attr`` (resolved at install time) in a span ``span``
    (None: count calls only) and run ``post(tracer, args, result)`` after
    each call.  ``metrics`` are fed by the hook; ``post_metrics`` are the
    ones that need ``post`` to understand the call."""

    owner: str
    attr: str
    span: str | None
    metrics: tuple[str, ...]
    post: Callable | None = None
    post_metrics: tuple[str, ...] = ()


HOOKS = (
    Hook("cli", "main", "cli.main", ("cli.main.s", "cli.self_s")),
    Hook("cli", "parse_config", "config.parse_config", ("config.parse_config.s",)),
    Hook("cli", "run_session", "session.run_session", ("session.run_session.s", "session.self_s")),
    Hook("cli", "write_summary_csv", "reporting.write", ("reporting.write_s",)),
    Hook("cli", "format_summary_text", "reporting.write", ("reporting.write_s",)),
    Hook("session", "run_session", "session.run_session", ("session.run_session.s", "session.self_s")),
    Hook(
        "session", "detect_batch", "detection.detect_batch",
        (
            "detection.detect_batch.s", "detection.detect_batch.calls", "detection.pulses",
            "detection.ns_per_pulse", "detection.registered_ratio", "detection.discard_ratio",
        ),
        _count_detection,
        ("detection.pulses", "detection.ns_per_pulse", "detection.registered_ratio",
         "detection.discard_ratio"),
    ),
    Hook(
        "eavesdrop", "attack_batch", "eavesdrop.attack_batch",
        ("eavesdrop.attack_batch.s", "eavesdrop.pulses", "eavesdrop.vacuum_ratio"),
        _count_attack,
        ("eavesdrop.pulses", "eavesdrop.vacuum_ratio"),
    ),
    Hook("session", "bob_transform", "optics.bob_transform",
         ("optics.bob_transform.s", "optics.bob_transform.calls")),
    Hook("session", "transmittance", None, ("channel.transmittance.calls",)),
    Hook("session", "summarize", "session.summarize", ("session.summarize.s",)),
    Hook("session", "classify_arrays", "protocol.classify_arrays", ("protocol.classify_arrays.s",)),
    Hook("session", "run_protocol", "protocol.run_protocol", ("protocol.run_protocol.s",)),
    Hook("protocol", "run_protocol", "protocol.run_protocol", ("protocol.run_protocol.s",)),
    Hook("protocol", "encode_message", "protocol.encode", ("protocol.encode_s", "protocol.wire_bytes"),
         _count_wire, ("protocol.wire_bytes",)),
    Hook("protocol", "decode_message", "protocol.decode", ("protocol.decode_s",)),
    Hook(
        "protocol.SocketTransport", "send", "protocol.send",
        ("protocol.messages", "protocol.announced_events", "protocol.sifted_ratio"),
        _count_message,
        ("protocol.messages", "protocol.announced_events", "protocol.sifted_ratio"),
    ),
    Hook(
        "protocol.QueueTransport", "send", "protocol.send",
        ("protocol.messages", "protocol.announced_events", "protocol.sifted_ratio"),
        _count_message,
        ("protocol.messages", "protocol.announced_events", "protocol.sifted_ratio"),
    ),
    Hook("protocol.SocketTransport", "recv", "protocol.recv",
         ("protocol.recv_wait_s", "protocol.alice_recv_wait_s", "protocol.bob_recv_wait_s")),
    Hook("protocol.QueueTransport", "recv", "protocol.recv",
         ("protocol.recv_wait_s", "protocol.alice_recv_wait_s", "protocol.bob_recv_wait_s")),
    Hook("workloads", "socket_replay", "bench.socket_replay", ("bench.socket_replay.s",)),
)


def _resolve(namespaces: dict, dotted: str):
    head, *rest = dotted.split(".")
    obj = namespaces.get(head)
    for part in rest:
        obj = getattr(obj, part, None)
    return obj


def _wrap(tracer: Tracer, hook: Hook, fn: Callable) -> Callable:
    if hook.span is None:

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(hook.metrics[0])
            return fn(*args, **kwargs)

        return counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(hook.span):
            result = fn(*args, **kwargs)
            if hook.post is not None:
                try:
                    hook.post(tracer, args, result)
                except (TypeError, ValueError, AttributeError, IndexError):
                    # The wrapped name changed its arguments or result shape.
                    tracer.absent.update(hook.post_metrics)
        return result

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer, namespaces: dict):
    """Install every hook whose target exists; restore all on exit.

    Metrics fed only by hooks whose targets are absent go to
    ``tracer.absent``.
    """
    restore = []
    fed: set[str] = set()
    wanted: set[str] = set()
    try:
        for hook in HOOKS:
            wanted.update(hook.metrics)
            owner = _resolve(namespaces, hook.owner)
            fn = getattr(owner, hook.attr, None) if owner is not None else None
            if not callable(fn):
                continue
            own = hook.attr in vars(owner)
            restore.append((owner, hook.attr, vars(owner).get(hook.attr), own))
            setattr(owner, hook.attr, _wrap(tracer, hook, fn))
            fed.update(hook.metrics)
        tracer.absent.update(wanted - fed)
        yield
    finally:
        for owner, attr, original, own in reversed(restore):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

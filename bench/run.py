"""Benchmark of the time-bin BB84 simulator: one closed-loop client.

Run from the repository root:

    python3 bench/run.py --workload paper_default --seed 1 --seconds 35 --trace 0

One op at a time, the next starting when the last one ends, for
``--seconds`` seconds.  Each op gets its own seed derived from ``--seed``
and its output is checked (see workloads.py).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced ops and
reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it gives the machine and software identity.  Per-op records, the
identity and, when traced, every span go to
``.bench_results/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
# Fresh processes timed for setup_s, spread over the run so that their median
# does not hang on the host's load at one moment.
SETUP_SAMPLES = 7
WARMUP_PULSES = 1 << 17

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "pulses_per_s": "1/s",
    "sifted_bits_per_s": "bit/s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

PER_LAYER = {
    "detection.detect_batch.s": "s",
    "detection.detect_batch.calls": "count",
    "detection.pulses": "count",
    "detection.ns_per_pulse": "ns",
    "detection.registered_ratio": "ratio",
    "detection.discard_ratio": "ratio",
    "eavesdrop.attack_batch.s": "s",
    "eavesdrop.pulses": "count",
    "eavesdrop.vacuum_ratio": "ratio",
    "session.run_session.s": "s",
    "session.self_s": "s",
    "session.summarize.s": "s",
    "optics.bob_transform.calls": "count",
    "optics.bob_transform.s": "s",
    "channel.transmittance.calls": "count",
    "protocol.run_protocol.s": "s",
    "protocol.classify_arrays.s": "s",
    "protocol.encode_s": "s",
    "protocol.decode_s": "s",
    "protocol.recv_wait_s": "s",
    "protocol.alice_recv_wait_s": "s",
    "protocol.bob_recv_wait_s": "s",
    "protocol.messages": "count",
    "protocol.wire_bytes": "bytes",
    "protocol.announced_events": "count",
    "protocol.sifted_ratio": "ratio",
    "bench.socket_replay.s": "s",
    "config.parse_config.s": "s",
    "reporting.write_s": "s",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.concurrent_s": "s",
    "failed_ratio": "ratio",
}


def _import_package():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "timebin_bb84" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC.relative_to(ROOT)}/timebin_bb84")
    for path in (str(SRC), str(Path(__file__).resolve().parent)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import timebin_bb84

    if Path(timebin_bb84.__file__).resolve().parent != SRC / "timebin_bb84":
        raise SystemExit(f"error: imported timebin_bb84 from {timebin_bb84.__file__}")


def op_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1, dtype=np.uint64)[0])


def prepare(name: str, seed: int, workdir: Path):
    """Set-up of one run: build the inputs and the oracle, then warm up with
    one small checked op.  A warm-up op that fails is not reported here: the
    timed ops fail the same way and are counted."""
    import workloads

    workload = workloads.WORKLOADS[name]()
    full = workload.n
    workload.setup(workdir)
    workload.n = min(WARMUP_PULSES, full)
    with contextlib.suppress(Exception):
        workload.check(workload.op(op_seed(seed, 0)))
    workload.n = full
    return workload


def time_setup(args) -> float:
    """Wall time of one fresh process from its start until it could begin
    timing an op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0", "--trace", "0"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        except BaseException:
            proc.kill()
            raise
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe exited with {code}")
    return ready - start


def identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end_metrics(ops: list[dict], setup_s: float) -> dict:
    timed = sum(o["seconds"] for o in ops)
    ok = [o for o in ops if not o["problems"]]
    return {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(o["seconds"] for o in ops),
        "pulses_per_s": sum(o["pulses"] for o in ok) / timed,
        "sifted_bits_per_s": sum(o["sifted_bits"] for o in ok) / timed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": len(ok) / len(ops),
    }


def _op_layers(spans, counters: dict[str, float]) -> dict[str, float]:
    """Per-layer values of one traced op from its spans and counters."""
    dur = {s.id: s.end - s.start for s in spans}
    children = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += dur[s.id]
    self_time = {s.id: dur[s.id] - children[s.id] for s in spans}
    root = next(s for s in spans if s.name == "op")
    total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    alice_wait = bob_wait = concurrent = 0.0
    for s in spans:
        total[s.name] += dur[s.id]
        own[s.name] += self_time[s.id]
        calls[s.name] += 1
        if s.thread == root.thread:
            if s.name == "protocol.recv":
                alice_wait += self_time[s.id]
        else:
            concurrent += self_time[s.id]
            if s.name == "protocol.recv":
                bob_wait += self_time[s.id]
    pulses = counters.get("detection.pulses", 0.0)
    return {
        "detection.detect_batch.s": total["detection.detect_batch"],
        "detection.detect_batch.calls": calls["detection.detect_batch"],
        "detection.pulses": pulses,
        "detection.ns_per_pulse": total["detection.detect_batch"] / pulses * 1e9 if pulses else 0.0,
        "eavesdrop.attack_batch.s": total["eavesdrop.attack_batch"],
        "eavesdrop.pulses": counters.get("eavesdrop.pulses", 0.0),
        "session.run_session.s": total["session.run_session"],
        "session.self_s": own["session.run_session"],
        "session.summarize.s": total["session.summarize"],
        "optics.bob_transform.calls": calls["optics.bob_transform"],
        "optics.bob_transform.s": total["optics.bob_transform"],
        "channel.transmittance.calls": counters.get("channel.transmittance.calls", 0.0),
        "protocol.run_protocol.s": total["protocol.run_protocol"],
        "protocol.classify_arrays.s": total["protocol.classify_arrays"],
        "protocol.encode_s": total["protocol.encode"],
        "protocol.decode_s": total["protocol.decode"],
        "protocol.recv_wait_s": alice_wait + bob_wait,
        "protocol.alice_recv_wait_s": alice_wait,
        "protocol.bob_recv_wait_s": bob_wait,
        "protocol.messages": counters.get("protocol.messages", 0.0),
        "protocol.wire_bytes": counters.get("protocol.wire_bytes", 0.0),
        "protocol.announced_events": counters.get("protocol.announced_events", 0.0),
        "bench.socket_replay.s": total["bench.socket_replay"],
        "config.parse_config.s": total["config.parse_config"],
        "reporting.write_s": total["reporting.write"],
        "cli.main.s": total["cli.main"],
        "cli.self_s": own["cli.main"],
        "trace.unattributed_s": own["op"],
        "trace.concurrent_s": concurrent,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(ops: list[dict], tracer) -> dict:
    traced = [o for o in ops if o["traced"]]
    by_op = defaultdict(list)
    for s in tracer.spans:
        by_op[s.op].append(s)
    counters = defaultdict(dict)
    totals = defaultdict(float)
    for (op, name), value in tracer.counters.items():
        counters[op][name] = value
        totals[name] += value
    rows = [_op_layers(by_op[o["index"]], counters[o["index"]]) for o in traced]
    values = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    values["detection.registered_ratio"] = _ratio(totals["detection.registered"], totals["detection.pulses"])
    values["detection.discard_ratio"] = _ratio(
        totals["detection.any_click"] - totals["detection.registered"], totals["detection.any_click"]
    )
    values["eavesdrop.vacuum_ratio"] = _ratio(totals["eavesdrop.vacuum"], totals["eavesdrop.pulses"])
    values["protocol.sifted_ratio"] = _ratio(
        totals["protocol.matched_events"], totals["protocol.announced_events"]
    )
    values["trace.overhead_s"] = statistics.median(o["seconds"] for o in traced) - statistics.median(
        o["seconds"] for o in ops if not o["traced"]
    )
    values["failed_ratio"] = sum(1 for o in ops if o["problems"]) / len(ops)
    for name in tracer.absent:
        values[name] = None
    return values


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def _number(value, unit: str):
    return int(value) if value is not None and unit in ("count", "bytes") else value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


def run_op(workload, index: int, seed: int, tracer) -> dict:
    """Time one op (traced when ``tracer`` is given), then check its output."""
    import tracing
    import workloads

    traced = tracer is not None
    record = {"index": index, "seed": seed, "traced": traced, "pulses": 0, "sifted_bits": 0, "checks": 0}
    gc.collect()
    produced = None
    if traced:
        tracer.op = index
    try:
        hooks = {**vars(workloads), "workloads": workloads}
        with tracing.installed(tracer, hooks) if traced else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                with tracer.span("op") if traced else contextlib.nullcontext():
                    produced = workload.op(seed)
            finally:
                record["seconds"] = time.perf_counter() - start
        outcome = workload.check(produced)
    except Exception:  # an op that raises is a failed op, not a failed run
        record["problems"] = [traceback.format_exc()]
        return record
    record.update(
        checks=outcome.checks, problems=outcome.problems,
        pulses=outcome.pulses, sifted_bits=outcome.sifted_bits,
    )
    return record


def run(args) -> dict:
    """One benchmark run; returns the result object printed last."""
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        workload = prepare(args.workload, args.seed, workdir)
        tracer = tracing.Tracer()
        ops: list[dict] = []
        setups: list[float] = []
        begin = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - begin
            if (not args.trace and len(setups) < SETUP_SAMPLES
                    and elapsed >= len(setups) * args.seconds / SETUP_SAMPLES):
                setups.append(time_setup(args))
            elif ops and elapsed >= args.seconds and (not args.trace or len(ops) >= 2):
                break
            else:
                index = len(ops) + 1
                traced = bool(args.trace and index % 2 == 0)
                ops.append(run_op(workload, index, op_seed(args.seed, index), tracer if traced else None))
        if args.trace:
            values, units = per_layer_metrics(ops, tracer), PER_LAYER
        else:
            values, units = end_to_end_metrics(ops, statistics.median(setups)), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for o in ops if o["problems"])
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": _number(values[name], unit), "unit": unit}
                    for name, unit in units.items()},
    }
    ident = identity()
    RESULTS.mkdir(exist_ok=True)
    record_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({
        "args": vars(args),
        "identity": ident,
        "result": result,
        "setup_samples": setups,
        "absent": sorted(tracer.absent),
        "ops": ops,
        "spans": [dataclasses.asdict(s) for s in tracer.spans],
    }, indent=1))
    print(json.dumps({"identity": ident}))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_package()
    if args.probe_setup:
        workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
        try:
            prepare(args.workload, args.seed, workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

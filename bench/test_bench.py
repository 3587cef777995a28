"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python -m pytest -q bench``.
"""

import json
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run._import_package()
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = 20000


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    """Shrink every workload's op to TINY pulses.  The set-up probes that an
    untraced run starts are fresh processes and keep the full size; their
    warm-up op is capped at run.WARMUP_PULSES."""
    for name, make in list(workloads.WORKLOADS.items()):

        def tiny(make=make):
            workload = make()
            workload.n = TINY
            return workload

        monkeypatch.setitem(workloads.WORKLOADS, name, tiny)


def bench(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace, listed", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_prints_with_its_unit(capsys, trace, listed):
    result = bench(capsys, "dense_wire", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC[listed]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_of_each_workload_passes_its_checks(capsys, workload):
    result = bench(capsys, workload, 1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["detection.pulses"] == TINY
    assert (metrics["eavesdrop.pulses"] > 0) == (workload == "attack_drift")


def test_flipped_key_bit_in_socket_replay_counts_as_failed(capsys, monkeypatch):
    honest = workloads.socket_replay

    def flip_one_bit(*args):
        key_a, key_b = honest(*args)
        key_b.bits[0] ^= 1
        return key_a, key_b

    monkeypatch.setattr(workloads, "socket_replay", flip_one_bit)
    result = bench(capsys, "dense_wire", 1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert result["metrics"]["failed_ratio"]["value"] == 1.0


def test_flipped_bit_in_a_written_key_file_counts_as_failed(capsys, monkeypatch):
    honest = workloads.CliWorkload.op

    def flip_one_bit(self, seed):
        code = honest(self, seed)
        path = self.out / "bob.key"
        key = path.read_text()
        path.write_text(f"{int(key[0], 16) ^ 8:x}{key[1:]}")
        return code

    monkeypatch.setattr(workloads.CliWorkload, "op", flip_one_bit)
    result = bench(capsys, "paper_default", 1)
    assert result["failed"] == result["attempted"] == 2


def test_span_parent_is_on_its_own_thread():
    tracer = tracing.Tracer()

    def receiver():
        with tracer.span("receiver"):
            pass

    with tracer.span("op"):
        worker = threading.Thread(target=receiver, name="receiver")
        worker.start()
        worker.join()
        with tracer.span("child"):
            pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["receiver"].parent is None
    assert by_name["child"].parent == by_name["op"].id


def test_absent_layer_is_reported_and_the_run_goes_on(capsys, monkeypatch):
    monkeypatch.delattr(workloads.eavesdrop, "attack_batch")
    result = bench(capsys, "paper_default", 1)
    assert result["correct"]
    assert result["metrics"]["eavesdrop.attack_batch.s"]["value"] is None
    assert result["metrics"]["detection.detect_batch.s"]["value"] > 0


def test_changed_result_shape_marks_only_its_metrics_absent():
    shrunk = (np.ones(3, bool), np.zeros(3, np.uint8), np.zeros(3, np.uint8))
    fake = SimpleNamespace(detect_batch=lambda q, rng: shrunk)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, {"session": fake}):
        assert fake.detect_batch(np.zeros((3, 6)), None) is shrunk
    assert fake.detect_batch(None, None) is shrunk  # restored
    assert "detection.discard_ratio" in tracer.absent
    assert "detection.detect_batch.s" not in tracer.absent
    assert [s.name for s in tracer.spans] == ["detection.detect_batch"]

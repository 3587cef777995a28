"""The benchmark's tracer hooks still find, and are called through, the
names in the package that they wrap.

``bench/`` changes only together with its metric list, so a change to
``src/`` that renames or stops calling a wrapped name would blank a
per-layer metric without failing anything.  These tests read ``bench/``
and change nothing in it.
"""

import sys
from pathlib import Path

from timebin_bb84 import cli, session
from timebin_bb84.config import SessionConfig
from timebin_bb84.eavesdrop import EveSpec

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

# The namespaces ``bench/run.py`` installs the hooks over.
NAMESPACES = {**vars(workloads), "workloads": workloads}


def test_every_hook_finds_its_target():
    tracer = tracing.Tracer()
    original = session.detect_batch
    with tracing.installed(tracer, NAMESPACES):
        assert session.detect_batch is not original
    assert session.detect_batch is original  # restored
    assert tracer.absent == set()


def test_a_session_calls_through_the_hooked_names():
    """A session with the attacker on feeds every per-layer span of the
    in-process run path, and computes the channel's transmittance once.  ``session.bob_transform`` is hooked but no longer
    called, so its metrics read 0; session keeps importing it because the
    bench prints an absent metric as no number at all."""
    tracer = tracing.Tracer()
    cfg = SessionConfig(n_pulses=20_000, seed=5, eve=EveSpec(enabled=True))
    with tracing.installed(tracer, NAMESPACES):
        session.run_session(cfg)
    assert {s.name for s in tracer.spans} == {
        "session.run_session", "detection.detect_batch", "eavesdrop.attack_batch",
        "protocol.classify_arrays", "protocol.run_protocol", "session.summarize",
    }
    counted = {name for _, name in tracer.counters}
    assert {"channel.transmittance.calls", "detection.pulses", "eavesdrop.pulses"} <= counted
    # ``_link`` builds the link once per session, through session's own ``transmittance``.
    assert tracer.counters[(tracer.op, "channel.transmittance.calls")] == 1


def test_a_cli_run_calls_through_the_hooked_names(tmp_path, capsys):
    """``timebin-bb84 run`` through ``cli.main``, as the CLI workloads call
    it, feeds the CLI's per-layer spans: the command, the config load, the
    session and the summary writers."""
    tracer = tracing.Tracer()
    argv = ["run", "--pulses", "100000", "--seed", "3", "--out", str(tmp_path / "out")]
    with tracing.installed(tracer, NAMESPACES):
        assert cli.main(argv) == 0
    assert {"cli.main", "config.parse_config", "session.run_session", "reporting.write"} <= {
        s.name for s in tracer.spans
    }

"""Fast self-test of the benchmark: every metric is printed with its
unit, and a wrong answer is caught and named.

Runs the real workload code on tiny inputs (XMark scale 0.0005, one
set-up, sub-second phases); run with
``PYTHONPATH=src python -m pytest perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import dataclasses
import io
import re
from types import SimpleNamespace

import pytest

from repro.encoding.arena import NodeArena
from repro.encoding.shred import shred_text

from perfbench import inputs, metrics, workloads
from perfbench.run import print_section, summary_line


def _tiny(name: str, **overrides) -> workloads.Workload:
    return dataclasses.replace(
        workloads.WORKLOADS[name], scale=0.0005, setups=1, **overrides
    )


def _run(tmp_path, wl, trace: bool, seconds: float = 0.4):
    section = workloads.run(wl, 7, seconds, trace, tmp_path / "run")
    out = io.StringIO()
    args = SimpleNamespace(seed=7, seconds=seconds, trace=int(trace))
    print_section(wl.name, section, args, out)
    return section, out.getvalue(), summary_line({wl.name: section}, trace)


def _assert_printed(text: str, names) -> None:
    for name in names:
        unit = metrics.metric_unit(name)
        pattern = rf"^\s+{re.escape(name)}\s+-?[\d.]+ {re.escape(unit)}(\s|$)"
        assert re.search(pattern, text, re.MULTILINE), f"{name} [{unit}] not printed"


#: per-layer metrics each workload must load: a wrapper that stops
#: reaching its layer would read 0 here
LOADED = {
    "plan-cold": ["xquery.parse_ms", "loop_lifting.compile_ms", "optimizer.optimize_ms"],
    "xmark-steady": [
        "evaluate.execute_ms", "staircase.step_calls", "serialize.serialize_ms",
        "arena.nodes_added",
    ],
    "serve-mixed": [
        "service.execute_ms", "http.overhead_ms", "plan_cache.invalidations",
        "database.apply_update_ms", "updates.arena_nodes_added",
        "store.wal_bytes_per_update",
    ],
}


def _assert_loaded(name: str, summary: dict) -> None:
    for metric in LOADED[name]:
        assert summary["metrics"][metric]["value"] > 0, f"{metric} reads 0 on {name}"


@pytest.mark.parametrize("name", ["plan-cold", "xmark-steady"])
def test_in_process_workloads_print_every_metric(tmp_path, name):
    section, text, summary = _run(tmp_path, _tiny(name, passes_per_second=5.0), trace=True)
    assert section["failed"] == 0, section["wrong"]
    assert summary["correct"] and summary["attempted"] >= 1
    _assert_printed(text, metrics.END_TO_END)
    _assert_printed(text, ["error_frac"] + (["latency_drift"] if name == "xmark-steady" else []))
    _assert_printed(text, metrics.PER_LAYER)
    assert set(summary["metrics"]) == set(metrics.PER_LAYER)
    for entry in summary["metrics"].values():
        assert isinstance(entry["value"], float) and entry["unit"]
    _assert_loaded(name, summary)
    assert "traced latency" in text and "unaccounted" in text


def test_serve_mixed_prints_every_metric(tmp_path, monkeypatch):
    # short blocks, so the short run surely contains updates
    monkeypatch.setattr(workloads.inputs.ServeRequests, "BLOCK", 4)
    wl = _tiny("serve-mixed", rate_qps=20.0)
    section, text, summary = _run(tmp_path, wl, trace=True, seconds=1.0)
    assert section["failed"] == 0, section["wrong"]
    assert section["notes"]["updates"] > 0
    _assert_printed(text, metrics.END_TO_END)
    _assert_printed(text, ["update_p50_ms", "slo_miss_frac", "error_frac"])
    assert all(entry["value"] > 0 for entry in section["metrics"].values()
               if entry["unit"] != "fraction")
    _assert_printed(text, metrics.PER_LAYER)
    assert set(summary["metrics"]) == set(metrics.PER_LAYER)
    _assert_loaded("serve-mixed", summary)
    # each update re-emits the whole document into the arena
    arena = NodeArena()
    shred_text(arena, inputs.document(wl.scale))
    added = summary["metrics"]["updates.arena_nodes_added"]["value"]
    assert 0.9 * arena.num_nodes <= added <= 1.1 * arena.num_nodes + 10
    assert "traced latency" in text and "unaccounted" in text


def test_corrupted_answer_is_caught(tmp_path, monkeypatch):
    from repro.api.prepared import PreparedQuery

    execute = PreparedQuery.execute

    def corrupt_q6(self, *args, **kwargs):
        result = execute(self, *args, **kwargs)
        if "count($b//item)" in self.query:  # XMark Q6
            result._serialized = "corrupted"
        return result

    monkeypatch.setattr(PreparedQuery, "execute", corrupt_q6)
    section, text, summary = _run(tmp_path, _tiny("xmark-steady", passes_per_second=5.0), False)
    assert section["failed"] == 2  # Q6 in each of the two passes
    assert summary["correct"] is False and summary["failed"] == 2
    assert re.search(r"FAILED Q6: wrong answer", text)
    assert section["metrics"]["error_frac"]["value"] == pytest.approx(2 / 40)


def test_service_times_are_scaled_to_reference_speed():
    speed = metrics.HostSpeed()
    speed.samples = [2 * metrics.REFERENCE_KERNEL_S] * 3  # a host at half speed
    values, _ = workloads._timing_metrics(
        [0.010, 0.020, 0.030], [0.008, 0.016, 0.024], 1.0, speed.scale()
    )
    assert values["latency_p50_ms"] == pytest.approx(20.0)
    assert values["service_p50_ms"] == pytest.approx(8.0)
    assert values["capacity_qps"] == pytest.approx(3 / 0.024)


def test_serve_reads_walk_whole_passes():
    # phase A stops after whole passes: each query must be one of every
    # 20 reads, in send order
    sequence = inputs.ServeRequests(3, 0.002)
    items = [sequence.next() for _ in range(300)]
    reads = [name for kind, name, _ in items if kind == "query"]
    for start in range(0, len(reads) - 19, 20):
        assert sorted(reads[start:start + 20]) == sorted(inputs.QUERY_NAMES)
    updates = [i for i, (kind, _, _) in enumerate(items) if kind == "update"]
    assert updates == [49, 99, 149, 199, 249, 299]

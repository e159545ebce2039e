"""Self-tests of the benchmark harness: deterministic, no wall-clock
assertions (Tier-1 stays hardware-independent)."""

from __future__ import annotations

import json
import re

import pytest

from e2e import harness, metrics
from e2e.compare import verdict
from e2e.spans import SpanRecorder
from e2e.stats import MIN_SAMPLES_BEYOND, percentile
from e2e.workloads import WORKLOADS, Arrival, MutationStream

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def generated(name: str, seed: int, tmp_path):
    workload = WORKLOADS[name](seed, quick=True, out_dir=tmp_path)
    workload.generate()
    return workload


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    first = generated(name, 3, tmp_path)
    again = generated(name, 3, tmp_path)
    other = generated(name, 4, tmp_path)
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()
    if name == "gateway_open":
        assert (first.schedule(100.0, 2.0) == again.schedule(100.0, 2.0)).all()
        assert (first.schedule(100.0, 2.0) != other.schedule(100.0, 2.0)).any()
        gaps = first.schedule(100.0, 50.0)
        assert gaps[-1] / len(gaps) == pytest.approx(0.01, rel=0.1)  # the fixed rate


def test_mutation_stream_edits_are_effective_and_half_deletes(tmp_path):
    graph = generated("dynamic_rounds", 0, tmp_path).graph
    stream = MutationStream(graph, 0)
    before = set(stream.present_set)
    for _ in range(20):
        edits = stream.next()
        assert sorted(op for op, _, _ in edits) == ["delete"] * 4 + ["insert"] * 4
        for op, u, v in edits:
            assert ((u, v) in before) == (op == "delete")
        before = before - {(u, v) for op, u, v in edits if op == "delete"}
        before |= {(u, v) for op, u, v in edits if op == "insert"}
        assert before == stream.present_set == set(stream.present)


def test_percentile_refuses_a_thin_tail():
    samples = [float(i) for i in range(10 * MIN_SAMPLES_BEYOND)]
    assert percentile(samples, 90.0) == pytest.approx(89.1)
    with pytest.raises(ValueError, match="samples beyond"):
        percentile(samples[:-1], 90.0)
    with pytest.raises(ValueError, match="samples beyond"):
        percentile(samples, 99.0)


def test_span_self_time_is_duration_minus_children():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    with rec.span("round", 0):  # opens at 0
        with rec.span("pack", 0):  # 1..2
            pass
        with rec.span("execute", 0) as execute:  # 3..4
            pass
        rec.add("exec.gemm", 3.0, 3.75, 0, execute)
    # closes at 5
    assert [s.duration for s in rec.spans] == [5.0, 1.0, 1.0, 0.75]
    assert rec.self_times() == [3.0, 1.0, 0.25, 0.75]
    assert rec.totals(self_time=True)["round"] == 3.0
    assert [s.parent for s in rec.spans] == [-1, 0, 0, 2]


def test_disabled_recorder_records_nothing():
    rec = SpanRecorder(enabled=False)
    with rec.span("round", 0) as index:
        assert index == -1
    assert rec.spans == []


def test_open_loop_latency_counts_from_the_scheduled_time():
    late = Arrival(index=0, scheduled=10.0, sent=10.4, done=10.5, reply=object())
    assert late.latency_s == pytest.approx(0.5)  # not 0.1: the stall counts


def test_declared_names_are_wellformed_and_match_benchmark_json():
    manifest = metrics.benchmark_manifest()
    assert json.loads((harness.REPO / "BENCHMARK.json").read_text()) == manifest
    names = [
        row["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for row in manifest[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert [row["name"] for row in manifest["workloads"]] == list(WORKLOADS)
    assert all(len(row["why"]) <= 200 for row in manifest["workloads"])
    assert all(0 < row["bound"] <= 0.25 for row in manifest["end_to_end"])
    assert len(manifest["per_layer"]) <= 128


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_mode_emits_every_declared_name(name):
    workload, setup_times = harness.prepare(name, 0, repeats=1, quick=True)
    try:
        untraced = harness.measure(workload, setup_times, 0.1, trace=False)
        traced = harness.measure(workload, setup_times, 0.1, trace=True)
    finally:
        workload.teardown()
    assert set(untraced["metrics"]) == {row[0] for row in metrics.END_TO_END}
    assert set(traced["metrics"]) == {row[0] for row in metrics.PER_LAYER}
    for result in (untraced, traced):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        for key, entry in result["metrics"].items():
            assert entry["unit"] == metrics.unit_of(key)
            assert entry["value"] == entry["value"]  # not NaN
    assert all(untraced["metrics"][row[0]]["value"] > 0 for row in metrics.END_TO_END)


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert verdict(steady, [100.2, 100.8, 99.9], "lower", 0.10) == "no-worse"
    assert verdict(steady, [120.0, 121.0, 119.0], "lower", 0.10) == "regressed"
    assert verdict(steady, [120.0, 121.0, 119.0], "higher", 0.10) == "improved"
    assert verdict(steady, [80.0, 81.0, 79.0], "lower", 0.10) == "improved"
    noisy = [100.0, 140.0, 80.0, 120.0]
    assert verdict(noisy, [105.0, 110.0, 100.0], "lower", 0.10) == "unresolved"
    # ...unless every run of the change beats every run of the parent.
    assert verdict(noisy, [50.0, 55.0, 60.0], "lower", 0.10) == "improved"

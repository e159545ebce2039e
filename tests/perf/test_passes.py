"""Builtin perf passes over hand-built synthetic PAG fixtures.

Each fixture encodes one condition the pass exists to detect (a
dominant hotspot, a skewed shard, a thrashing segment), so the tests
pin both the verdict (``ok``) and the ranking/flagging details.
"""

from __future__ import annotations

import math

from repro.perf import (
    Pag,
    PagNode,
    build_pag,
    cache_thrash,
    hotspot,
    imbalance,
)


def make_worker(
    label: str,
    phase_seconds: dict[str, float],
    *,
    backend_seconds: dict[str, float] | None = None,
    queue_depth: int | None = None,
    segments: list[PagNode] | None = None,
) -> PagNode:
    metrics = {"requests": 1, "batches": 1}
    if queue_depth is not None:
        metrics["queue_depth"] = queue_depth
    worker = PagNode(
        kind="worker",
        name=label,
        seconds=sum(phase_seconds.values()),
        metrics=metrics,
    )
    for phase, seconds in phase_seconds.items():
        node = worker.add(PagNode(kind="phase", name=phase, seconds=seconds))
        if phase == "gemm" and backend_seconds:
            for backend, backend_s in backend_seconds.items():
                node.add(
                    PagNode(kind="backend", name=backend, seconds=backend_s)
                )
    for segment in segments or []:
        worker.add(segment)
    return worker


def make_pag(workers: list[PagNode]) -> Pag:
    root = PagNode(kind="root", name="pool", metrics={})
    attributed = 0.0
    for worker in workers:
        root.add(worker)
        attributed += sum(
            child.seconds for child in worker.children if child.kind == "phase"
        )
    wall = sum(worker.seconds for worker in workers)
    return Pag(root=root, wall_s=wall, attributed_s=attributed)


def segment_node(name, hits, misses, evictions, invalidations=0, capacity=None):
    lookups = hits + misses
    metrics = {
        "hits": hits,
        "misses": misses,
        "evictions": evictions,
        "insertions": misses,
        "invalidations": invalidations,
        "hit_rate": hits / lookups if lookups else 0.0,
    }
    if capacity is not None:
        metrics["capacity"] = capacity
    return PagNode(kind="segment", name=name, metrics=metrics)


class TestHotspot:
    def test_ranks_by_seconds_and_splits_gemm_by_backend(self):
        pag = make_pag(
            [
                make_worker(
                    "w0",
                    {"pack": 0.5, "quantize": 0.1, "gemm": 0.4},
                    backend_seconds={"packed": 0.3, "blas": 0.1},
                )
            ]
        )
        result = hotspot(pag, top_k=3)
        assert result.ok
        nodes = [f["node"] for f in result.findings]
        # pack (0.5) > backend:packed (0.3) > quantize/backend:blas (0.1);
        # the gemm umbrella never appears because its backends carry it.
        assert nodes[0] == "phase:pack"
        assert nodes[1] == "backend:packed"
        assert "phase:gemm" not in nodes
        shares = [f["share"] for f in result.findings]
        assert shares == sorted(shares, reverse=True)
        assert math.isclose(shares[0], 0.5 / 1.0)

    def test_empty_pag_reports_no_time(self):
        result = hotspot(make_pag([]))
        assert result.ok
        assert result.findings == ()
        assert "no attributed time" in result.summary


class TestImbalance:
    def test_balanced_pool_passes(self):
        pag = make_pag(
            [make_worker("w0", {"gemm": 0.5}), make_worker("w1", {"gemm": 0.52})]
        )
        result = imbalance(pag, threshold=2.0)
        assert result.ok
        assert all(not f["flagged"] for f in result.findings)

    def test_skewed_shards_flagged(self):
        # One shard does ~4x the mean's work: a hot structure digest.
        pag = make_pag(
            [
                make_worker("w0", {"gemm": 2.0}, queue_depth=30),
                make_worker("w1", {"gemm": 0.05}, queue_depth=0),
                make_worker("w2", {"gemm": 0.05}, queue_depth=0),
            ]
        )
        result = imbalance(pag, threshold=2.0)
        assert not result.ok
        by_metric = {f["metric"]: f for f in result.findings}
        assert by_metric["wall_s"]["flagged"]
        assert by_metric["wall_s"]["max_over_mean"] > 2.0
        assert by_metric["queue_depth"]["flagged"]

    def test_single_worker_is_trivially_ok(self):
        result = imbalance(make_pag([make_worker("w0", {"gemm": 1.0})]))
        assert result.ok
        assert result.findings == ()


class TestCacheThrash:
    def test_warm_segments_pass(self):
        pag = make_pag(
            [
                make_worker(
                    "w0",
                    {"gemm": 0.1},
                    segments=[segment_node("plan", hits=90, misses=10,
                                           evictions=0, capacity=16)],
                )
            ]
        )
        result = cache_thrash(pag)
        assert result.ok

    def test_thrashing_segment_flagged(self):
        # Misses dominate AND the segment is evicting: working set
        # outgrew capacity — the condition the pass exists for.
        pag = make_pag(
            [
                make_worker(
                    "w0",
                    {"gemm": 0.1},
                    segments=[segment_node("adjacency", hits=5, misses=95,
                                           evictions=90, capacity=8)],
                )
            ]
        )
        result = cache_thrash(pag)
        assert not result.ok
        assert result.findings[0]["thrashing"]
        assert result.findings[0]["capacity"] == 8

    def test_cold_low_hit_rate_without_evictions_is_not_thrash(self):
        # A still-warming cache misses a lot but evicts nothing; that is
        # startup, not capacity pressure.
        pag = make_pag(
            [
                make_worker(
                    "w0",
                    {"gemm": 0.1},
                    segments=[segment_node("plan", hits=1, misses=9,
                                           evictions=0)],
                )
            ]
        )
        assert cache_thrash(pag).ok

    def test_untouched_segments_ignored(self):
        pag = make_pag(
            [
                make_worker(
                    "w0",
                    {"gemm": 0.1},
                    segments=[segment_node("weight", hits=0, misses=0,
                                           evictions=0)],
                )
            ]
        )
        result = cache_thrash(pag)
        assert result.ok
        assert result.findings == ()


class TestRendering:
    def test_nan_metrics_become_json_null(self):
        node = PagNode(
            kind="gateway", name="gateway", metrics={"latency_p50_s": float("nan")}
        )
        payload = node.to_payload()
        assert payload["metrics"]["latency_p50_s"] is None

    def test_render_includes_coverage_line(self):
        pag = make_pag([make_worker("w0", {"gemm": 1.0})])
        assert "coverage: 1.0000" in pag.render()

    def test_empty_pag_coverage_is_nan(self):
        assert math.isnan(make_pag([]).coverage())

    def test_build_pag_rejects_unknown_source(self):
        import pytest

        with pytest.raises(TypeError):
            build_pag(object())

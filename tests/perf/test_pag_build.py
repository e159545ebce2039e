"""``build_pag`` over live serving sources: structure and coverage.

The attribution claims that matter: a served engine's PAG owns >= 95%
of its measured wall-clock through phase nodes, the per-backend split
nests under (and agrees with) the ``gemm`` phase, cache segments appear
with their counters, and the gateway form demands the pool stats it
attributes against.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest

from repro.gnn import make_batched_gin
from repro.graph import induced_subgraphs
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.perf import build_pag
from repro.serving import InferenceEngine, ServingConfig


@pytest.fixture
def subgraphs(rng):
    g = planted_partition_graph(
        192, 1200, num_communities=8, feature_dim=12, num_classes=3, rng=rng
    )
    return induced_subgraphs(g, metis_like_partition(g, 8))


@pytest.fixture
def model(subgraphs):
    g = subgraphs[0].graph
    return make_batched_gin(g.features.shape[1], 3, hidden_dim=16, seed=3)


@pytest.fixture
def served_engine(model, subgraphs):
    engine = InferenceEngine(model, ServingConfig(feature_bits=8, batch_size=4))
    for _ in range(2):
        engine.infer(subgraphs)
    return engine


class TestEnginePag:
    def test_phase_coverage_at_least_95_percent(self, served_engine):
        pag = build_pag(served_engine)
        assert pag.coverage() >= 0.95
        # Coverage is also internally consistent: attributed equals the
        # sum of the phase nodes' seconds.
        phases = pag.nodes("phase")
        assert math.isclose(
            pag.attributed_s, sum(n.seconds for n in phases), rel_tol=1e-9
        )

    def test_round_glue_is_its_own_phase_node(self, served_engine):
        # What the round's measured window spends outside every attributed
        # phase (argument checks, operand construction, result assembly)
        # is a phase of its own, so coverage holds by construction however
        # cheap the GEMM gets.
        pag = build_pag(served_engine)
        phases = {n.name: n for n in pag.nodes("phase")}
        assert "round_glue" in phases
        assert phases["round_glue"].seconds > 0.0
        assert phases["round_glue"].seconds == pytest.approx(
            served_engine.stats.phase_seconds["round_glue"]
        )
        assert math.isclose(
            pag.attributed_s, sum(n.seconds for n in phases.values()), rel_tol=1e-9
        )
        assert pag.coverage() == pytest.approx(1.0, abs=1e-6)

    def test_backend_split_agrees_with_gemm_phase(self, served_engine):
        pag = build_pag(served_engine)
        (gemm,) = [n for n in pag.nodes("phase") if n.name == "gemm"]
        backends = [c for c in gemm.children if c.kind == "backend"]
        assert backends, "gemm phase lost its backend split"
        # Both sides measure the same kernel windows, so they agree to
        # float-accumulation error.
        assert math.isclose(
            gemm.seconds,
            sum(b.seconds for b in backends),
            rel_tol=1e-6,
        )

    def test_segments_carry_cache_counters(self, served_engine):
        pag = build_pag(served_engine)
        segments = {n.name: n for n in pag.nodes("segment")}
        assert set(segments) == {"weight", "adjacency", "plan"}
        # Second pass replayed: the plan segment saw hits.
        assert segments["plan"].metrics["hits"] > 0
        assert segments["plan"].metrics["capacity"] == (
            served_engine.config.plan_cache_capacity
        )

    def test_payload_round_trips_through_json(self, served_engine):
        import json

        payload = build_pag(served_engine).to_payload()
        decoded = json.loads(json.dumps(payload))
        assert decoded["coverage"] >= 0.95
        assert decoded["tree"]["kind"] == "root"

    def test_idle_engine_has_nan_coverage(self, model):
        pag = build_pag(InferenceEngine(model, ServingConfig(feature_bits=8)))
        assert math.isnan(pag.coverage())


class TestGatewayPag:
    def test_gateway_stats_requires_pool_stats(self, served_engine):
        from repro.serving import GatewayStats

        stats = GatewayStats()
        with pytest.raises(TypeError):
            build_pag(stats)

    def test_gateway_lanes_attach_beside_pool_workers(self):
        from repro.serving import GatewayStats, LaneStats
        from repro.serving.pool import PoolStats

        pool_stats = PoolStats(workers=1)
        gateway = GatewayStats(
            submitted=3, completed=2, rejected=1, per_lane={"batch": LaneStats()}
        )
        pag = build_pag(gateway, pool_stats=pool_stats)
        (lane,) = pag.nodes("lane")
        assert lane.name == "batch"
        # The idle lane's nan quantile survives to the node and becomes
        # null in the JSON payload — never a perfect-looking 0.0.
        assert math.isnan(lane.metrics["latency_p50_s"])
        assert not lane.metrics["has_latency"]
        assert (
            pag.root.to_payload()["children"][-1]["children"][0]["metrics"][
                "latency_p50_s"
            ]
            is None
        )


def _numeric_fields(record) -> list[str]:
    return [
        spec.name
        for spec in fields(record)
        if isinstance(getattr(record, spec.name), (int, float))
    ]


class TestNodesCarryTheDeclaration:
    """PAG nodes read ``as_metrics()``: every declared counter appears,
    and every key a node carried before the records became field-driven
    (the sets below were recorded on the parent commit) is still there
    with the value the hand-written builder read."""

    SEGMENT = {
        "hits", "misses", "evictions", "insertions", "invalidations",
        "poisoned", "hit_rate",
    }
    POOL_ROOT = {
        "workers", "requests", "batches", "step_retries", "quarantines",
        "respawns", "requeued", "poisoned_discards",
    }
    POOL_WORKER = {
        "requests", "batches", "step_retries", "fixed_seconds_per_round",
    }
    GATEWAY = {
        "submitted", "completed", "rejected", "rerouted", "hedges_launched",
        "hedges_won", "in_flight", "retries", "failures", "rejection_rate",
    }
    LANE = {
        "submitted", "completed", "rejected", "retries", "failures",
        "latency_p50_s", "latency_p99_s", "has_latency",
    }
    DYNAMIC = {
        "mutation_batches", "serves", "plans_patched", "plans_recompiled",
        "plans_invalidated", "adjacency_invalidated",
        "repacks_avoided", "stale_kernel_hits", "graph.batches",
        "graph.edges_inserted", "graph.edges_deleted", "graph.noop_mutations",
        "graph.mutations_applied", "graph.tiles_recensused",
        "graph.full_repacks", "nonzero_fraction", "num_edges",
    }

    @staticmethod
    def assert_reads(node, keys, record):
        assert keys <= set(node.metrics), keys - set(node.metrics)
        for key in keys & set(dir(record)):
            want, got = getattr(record, key), node.metrics[key]
            assert got == want or (math.isnan(got) and math.isnan(want)), key

    def test_engine_nodes(self, served_engine):
        pag = build_pag(served_engine)
        stats = served_engine.stats
        assert pag.root.metrics == {
            "requests": stats.requests, "batches": stats.batches
        }
        (worker,) = pag.nodes("worker")
        self.assert_reads(
            worker,
            {"requests", "batches", "step_retries", "fixed_seconds_per_round"},
            stats,
        )
        assert set(_numeric_fields(stats)) <= set(worker.metrics)
        for node in pag.nodes("segment"):
            segment = getattr(stats, f"{node.name}_cache")
            self.assert_reads(node, self.SEGMENT, segment)
            assert set(_numeric_fields(segment)) <= set(node.metrics)

    def test_pool_and_gateway_nodes(self, model, subgraphs):
        from repro.serving import (
            GatewayConfig, PoolConfig, ServingGateway, ServingPool,
        )

        config = ServingConfig(feature_bits=8, batch_size=4)
        with ServingPool(model, config, pool=PoolConfig(workers=2)) as pool:
            pool.serve(subgraphs)
            gateway = ServingGateway(pool, GatewayConfig(max_in_flight=8))
            gateway.run(subgraphs)
            stats, lanes = pool.stats(), gateway.stats()
            live = build_pag(pool)
        for pag in (live, build_pag(lanes, pool_stats=stats)):
            self.assert_reads(pag.root, self.POOL_ROOT, stats)
            workers = pag.nodes("worker")
            assert [n.name for n in workers] == ["w0", "w1"]
            for node, shard in zip(workers, stats.per_worker):
                self.assert_reads(node, self.POOL_WORKER, shard)
                # Every declared counter, including the one pool worker
                # nodes used to lack.
                assert set(_numeric_fields(shard)) <= set(node.metrics)
                for segment in node.children:
                    if segment.kind == "segment":
                        self.assert_reads(
                            segment,
                            self.SEGMENT,
                            getattr(shard, f"{segment.name}_cache"),
                        )
        assert all("queue_depth" in n.metrics for n in live.nodes("worker"))
        assert all("capacity" in n.metrics for n in live.nodes("segment"))
        (node,) = pag.nodes("gateway")
        self.assert_reads(node, self.GATEWAY, lanes)
        for lane in pag.nodes("lane"):
            self.assert_reads(lane, self.LANE, lanes.per_lane[lane.name])
            assert set(_numeric_fields(lanes.per_lane[lane.name])) <= set(
                lane.metrics
            )

    def test_dynamic_node(self, model, subgraphs):
        from repro.dynamic import DynamicSession

        session = DynamicSession(
            model, subgraphs[0].graph, ServingConfig(feature_bits=8)
        )
        session.serve()
        session.mutate([("insert", 0, 5), ("delete", 0, 5)])
        session.serve()
        (node,) = build_pag(session).nodes("dynamic")
        assert self.DYNAMIC <= set(node.metrics)
        assert node.seconds == session.stats.serve_seconds
        assert all(isinstance(v, float) for v in node.metrics.values())
        self.assert_reads(node, self.DYNAMIC, session.stats)
        graph = session.mutable.stats
        assert node.metrics["graph.mutations_applied"] == graph.mutations_applied
        assert node.metrics["graph.batches"] == graph.batches
        assert node.metrics["num_edges"] == session.mutable.num_edges

"""``build_pag`` over live serving sources: structure and coverage.

The attribution claims that matter: a served engine's PAG owns >= 95%
of its measured wall-clock through phase nodes, the per-backend split
nests under (and agrees with) the ``gemm`` phase, cache segments appear
with their counters, and the gateway form demands the pool stats it
attributes against.
"""

from __future__ import annotations

import math

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

        stats = GatewayStats(
            submitted=0, completed=0, rejected=0, rerouted=0,
            hedges_launched=0, hedges_won=0, in_flight=0,
        )
        with pytest.raises(TypeError):
            build_pag(stats)

    def test_gateway_lanes_attach_beside_pool_workers(self):
        from repro.serving import GatewayStats, LaneStats
        from repro.serving.pool import PoolStats

        pool_stats = PoolStats(
            workers=1, requests=0, batches=0, wall_s=0.0, table_merges=0,
            plans_published=0, plans_adopted=0, backend_seconds={},
            phase_seconds={}, per_worker=(),
        )
        gateway = GatewayStats(
            submitted=3, completed=2, rejected=1, rerouted=0,
            hedges_launched=0, hedges_won=0, in_flight=0,
            per_lane={
                "batch": LaneStats(
                    submitted=0, completed=0, rejected=0,
                    latency_p50_s=float("nan"), latency_p99_s=float("nan"),
                )
            },
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

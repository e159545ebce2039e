"""A counter is declared once: one dataclass field, nothing else.

``repro.telemetry.Counters`` derives ``snapshot`` / ``merge`` /
``as_metrics`` from ``dataclasses.fields``, so these tests enumerate the
records' fields the same way — a counter added tomorrow is covered
without editing this file.  Structural half: every numeric field of a
record totals correctly wherever the system adds records up (pool over
shards, plan cache over segments).  Property half
(derandomised Hypothesis, as the rest of Tier-1): snapshots are equal
and independent, merges are additive and order-independent, rings stay
bounded, snapshots pickle.
"""

from __future__ import annotations

import math
import pickle
from collections import deque
from dataclasses import dataclass, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gnn import make_batched_gin
from repro.graph import induced_subgraphs
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.plan.cache import CacheStats, PlanCache
from repro.serving import (
    GatewayConfig,
    PoolConfig,
    ServingConfig,
    ServingGateway,
    ServingPool,
    SessionStats,
)


def numeric_fields(cls) -> list[str]:
    """Names of the counter fields of a record class, from its declaration."""
    blank = cls()
    return [
        spec.name
        for spec in fields(cls)
        if isinstance(getattr(blank, spec.name), (int, float))
    ]


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
def served_pool(model, subgraphs):
    with ServingPool(
        model,
        ServingConfig(feature_bits=8, batch_size=4),
        pool=PoolConfig(workers=2),
    ) as pool:
        for _ in range(2):
            pool.serve(subgraphs)
        yield pool


class TestTotalsAreSumsOfTheDeclaration:
    def test_pool_total_is_the_sum_over_per_worker(self, served_pool, model):
        stats = served_pool.stats()
        assert len(stats.per_worker) == 2
        assert stats.requests > 0
        for name in numeric_fields(SessionStats):
            shards = [getattr(worker, name) for worker in stats.per_worker]
            assert getattr(stats, name) == pytest.approx(sum(shards)), name
        for name in ("phase_seconds", "backend_seconds"):
            total = getattr(stats, name)
            for key, value in total.items():
                parts = [getattr(w, name).get(key, 0.0) for w in stats.per_worker]
                assert value == pytest.approx(sum(parts)), (name, key)
        for name in numeric_fields(CacheStats):
            # Per-shard segments add up ...
            parts = [getattr(w.plan_cache, name) for w in stats.per_worker]
            assert getattr(stats.plan_cache, name) == sum(parts), name
        # ... while the segment every shard mounts is counted once: each
        # layer was packed into the pool-wide weight segment exactly once.
        assert stats.weight_cache.insertions == len(model.weights)
        assert all(
            w.weight_cache.insertions == len(model.weights)
            for w in stats.per_worker
        )

    def test_plan_cache_total_is_the_sum_over_segments(self):
        cache = PlanCache({"weight": 2, "adjacency": 1, "plan": 2})
        for i in range(3):
            cache.get_or_build(("weight", i), lambda: "w")
            cache.get_or_build(("adjacency", i), lambda: "a")
            cache.get_or_build(("plan", i % 2), lambda: ("p",))
        cache.discard(("plan", 0))
        cache.segment("plan").corrupt(("plan", 1))
        assert cache.get(("plan", 1)) is None
        total, segments = cache.total_stats(), cache.telemetry()
        assert total.evictions and total.invalidations and total.poisoned
        for name in numeric_fields(CacheStats):
            parts = [getattr(seg, name) for seg in segments.values()]
            assert getattr(total, name) == sum(parts), name

    def test_idle_gateway_reports_nan_not_a_perfect_zero(self, served_pool):
        stats = ServingGateway(served_pool).stats()
        assert math.isnan(stats.latency_p50_s)
        assert math.isnan(stats.as_metrics()["latency_p99_s"])
        assert not stats.has_latency

    def test_fixed_seconds_per_round_is_derived_not_counted(self, served_pool):
        """One ``DERIVED`` property, no new counter: what a round costs
        outside its arithmetic and artifact-build phases — per shard, and
        (the fields it reads all add) for the pool's total."""
        stats = served_pool.stats()
        assert "fixed_seconds_per_round" in SessionStats.DERIVED
        assert "fixed_seconds_per_round" not in {f.name for f in fields(SessionStats)}
        assert SessionStats().fixed_seconds_per_round == 0.0
        for record in (stats, *stats.per_worker):
            work = sum(
                record.phase_seconds.get(phase, 0.0) for phase in SessionStats.WORK_PHASES
            )
            fixed = record.as_metrics()["fixed_seconds_per_round"]
            assert fixed == pytest.approx((record.wall_s - work) / record.batches)
            # Glue, materialisation and kernel preparation are what is left.
            assert 0.0 < fixed < record.wall_s / record.batches
            assert fixed >= record.phase_seconds["round_glue"] / record.batches

    def test_a_new_field_needs_no_other_edit(self):
        @dataclass
        class Probed(SessionStats):
            probes: int = 0

        live = Probed(probes=3)
        assert live.snapshot().probes == 3
        assert Probed().merge(live).merge(live.snapshot()).probes == 6
        assert live.as_metrics()["probes"] == 3


def session_stats():
    """Arbitrary ``SessionStats``: ints, dict entries, ring, nested record."""
    counts = st.integers(min_value=0, max_value=10**6)
    seconds = st.floats(min_value=0.0, max_value=10.0)
    return st.builds(
        SessionStats,
        label=st.sampled_from(["", "w0", "w1"]),
        requests=counts,
        batches=counts,
        step_retries=counts,
        wall_s=seconds,
        phase_seconds=st.dictionaries(
            st.sampled_from(["gemm", "pack", "quantize"]), seconds
        ),
        recent_round_seconds=st.lists(seconds, max_size=300).map(
            lambda xs: deque(xs, maxlen=256)
        ),
        plan_cache=st.builds(CacheStats, hits=counts, misses=counts, poisoned=counts),
    )


class TestCountersProperties:
    @given(session_stats())
    @settings(max_examples=40)
    def test_snapshot_equals_the_source_and_is_independent(self, live):
        snap = live.snapshot()
        assert snap == live
        frozen = pickle.loads(pickle.dumps(snap))
        live.requests += 1
        live.phase_seconds["gemm"] = live.phase_seconds.get("gemm", 0.0) + 1.0
        live.recent_round_seconds.append(99.0)
        live.plan_cache.hits += 1
        assert snap == frozen != live
        assert frozen.recent_round_seconds.maxlen == 256

    @given(session_stats(), session_stats(), session_stats())
    @settings(max_examples=40)
    def test_merge_is_additive_and_order_independent(self, a, b, c):
        forward = SessionStats().merge(a).merge(b).merge(c)
        backward = SessionStats().merge(c).merge(b).merge(a)
        for name in numeric_fields(SessionStats):
            parts = [getattr(x, name) for x in (a, b, c)]
            if isinstance(parts[0], int):
                assert getattr(forward, name) == getattr(backward, name) == sum(parts)
            else:
                assert getattr(forward, name) == pytest.approx(sum(parts))
        assert forward.plan_cache == backward.plan_cache
        assert forward.plan_cache.hits == sum(x.plan_cache.hits for x in (a, b, c))
        assert set(forward.phase_seconds) == (
            set(a.phase_seconds) | set(b.phase_seconds) | set(c.phase_seconds)
        )
        assert len(forward.recent_round_seconds) == min(
            256, sum(len(x.recent_round_seconds) for x in (a, b, c))
        )
        # The sources are read, never written.
        assert a == a.snapshot() and forward.label == ""

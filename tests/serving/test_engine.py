"""Tests for the session-based inference engine.

Covers the PR 1 acceptance points — cache hit/miss accounting, LRU
eviction under a too-small capacity, exact agreement between batched and
per-request results under a shared calibration — plus the coalesced
zero-tile path: a block-diagonal ``blas`` round whose census skips tiles
is bit-identical to per-request ``packed`` execution, and the per-batch
tile-mask cache accounts its traffic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.core.bitpack import pack_matrix
from repro.gnn import make_batched_gin, make_cluster_gcn, quantized_forward, reference_forward
from repro.graph import batch_subgraphs, induced_subgraphs
from repro.graph.batching import SubgraphBatch
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.plan import default_registry
from repro.serving import InferenceEngine, ServingConfig


@pytest.fixture
def subgraphs(rng):
    g = planted_partition_graph(
        192, 1200, num_communities=8, feature_dim=12, num_classes=3, rng=rng
    )
    return induced_subgraphs(g, metis_like_partition(g, 8))


@pytest.fixture
def gin_model(subgraphs):
    g = subgraphs[0].graph
    return make_batched_gin(g.features.shape[1], 3, hidden_dim=16, seed=3)


class TestServingConfig:
    def test_defaults_valid(self):
        config = ServingConfig()
        assert config.effective_weight_bits == config.feature_bits

    def test_weight_bits_override(self):
        assert ServingConfig(feature_bits=4, weight_bits=2).effective_weight_bits == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"feature_bits": 0},
            {"weight_bits": 33},
            {"batch_size": 0},
            {"max_batch_nodes": 0},
            {"engine": "cuda"},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ConfigError):
            ServingConfig(**kwargs)

    def test_codegen_is_not_an_engine(self):
        with pytest.raises(ConfigError, match=r"\('packed', 'blas'\)"):
            ServingConfig(engine="codegen")


class TestResults:
    def test_results_in_submission_order(self, gin_model, subgraphs):
        engine = InferenceEngine(gin_model, ServingConfig(feature_bits=8))
        results = engine.infer(subgraphs)
        assert [r.request_id for r in results] == list(range(len(subgraphs)))
        for sub, res in zip(subgraphs, results):
            assert res.logits.shape == (sub.num_nodes, 3)

    def test_batched_equals_per_request_exactly(self, gin_model, subgraphs):
        batched = InferenceEngine(
            gin_model, ServingConfig(feature_bits=8, batch_size=4)
        )
        batched_results = batched.infer(subgraphs)
        # A second session sharing the calibration but serving one request
        # per round must reproduce every logit bit for bit.
        single = InferenceEngine(
            gin_model,
            ServingConfig(feature_bits=8, batch_size=1),
            calibration=batched.calibration,
        )
        for sub, expected in zip(subgraphs, batched_results):
            got = single.infer_one(sub)
            np.testing.assert_array_equal(got.logits, expected.logits)
        assert batched.stats.batches < single.stats.batches

    def test_coalesced_round_equals_per_request_packed(self, rng):
        # The serving-level equivalence point: one 16-member block-diagonal
        # ``blas`` round, most of its census zero, returns the same bits as
        # 16 per-request rounds on the packed word engine.
        g = planted_partition_graph(
            320, 2400, num_communities=16, feature_dim=12, num_classes=3, rng=rng
        )
        members = induced_subgraphs(g, metis_like_partition(g, 16))
        model = make_batched_gin(g.features.shape[1], 3, hidden_dim=16, seed=3)
        coalesced = InferenceEngine(
            model,
            ServingConfig(
                feature_bits=8,
                batch_size=16,
                max_batch_nodes=1 << 16,
                engine="blas",
            ),
        )
        batched = coalesced.infer(members)
        assert coalesced.stats.batches == 1  # genuinely one coalesced round
        assert coalesced.stats.tiles_skipped > 0  # work was actually jumped
        per_request = InferenceEngine(
            model,
            ServingConfig(feature_bits=8, batch_size=1, engine="packed"),
            calibration=coalesced.calibration,
        )
        for sub, expected in zip(members, batched):
            got = per_request.infer_one(sub)
            np.testing.assert_array_equal(got.logits, expected.logits)

    def test_engine_choice_does_not_change_results(self, gin_model, subgraphs):
        shared = InferenceEngine(gin_model, ServingConfig(feature_bits=8))
        baseline = shared.infer(subgraphs[:4])
        for engine_name in ("packed", "blas", "auto"):
            other = InferenceEngine(
                gin_model,
                ServingConfig(feature_bits=8, engine=engine_name),
                calibration=shared.calibration,
            )
            for expected, got in zip(baseline, other.infer(subgraphs[:4])):
                np.testing.assert_array_equal(got.logits, expected.logits)

    def test_approximates_fp32_reference(self, subgraphs):
        g = subgraphs[0].graph
        model = make_cluster_gcn(g.features.shape[1], 3, hidden_dim=16, seed=1)
        engine = InferenceEngine(model, ServingConfig(feature_bits=8, batch_size=4))
        results = engine.infer(subgraphs[:4])
        batch = next(batch_subgraphs(subgraphs[:4], 4))
        reference = reference_forward(model, batch)
        got = np.concatenate([r.logits for r in results])
        rel_err = np.abs(got - reference).mean() / np.abs(reference).mean()
        assert rel_err < 0.12


class TestWeightCache:
    def test_hit_miss_accounting(self, gin_model, subgraphs):
        engine = InferenceEngine(
            gin_model, ServingConfig(feature_bits=8, batch_size=2)
        )
        layers = gin_model.num_layers
        engine.infer(subgraphs)  # 8 subgraphs -> 4 batches
        stats = engine.stats.weight_cache
        batches = engine.stats.batches
        assert batches > 1
        assert stats.misses == layers  # packed exactly once per layer
        assert stats.hits == layers * (batches - 1)
        assert stats.evictions == 0

    def test_warm_up_prepacks(self, gin_model, subgraphs):
        engine = InferenceEngine(gin_model, ServingConfig(feature_bits=8)).warm_up()
        assert engine.stats.weight_cache.misses == gin_model.num_layers
        engine.infer(subgraphs[:2])
        assert engine.stats.weight_cache.misses == gin_model.num_layers

    def test_lru_eviction_under_small_capacity(self, gin_model, subgraphs):
        # Capacity below the layer count: every round re-packs every layer.
        engine = InferenceEngine(
            gin_model,
            ServingConfig(feature_bits=8, weight_cache_capacity=1, batch_size=2),
        )
        engine.infer(subgraphs[:6])
        stats = engine.stats.weight_cache
        layers = gin_model.num_layers
        batches = engine.stats.batches
        assert stats.hits == 0
        assert stats.misses == layers * batches
        assert stats.evictions == layers * batches - 1

    def test_cache_tracks_bytes(self, gin_model):
        engine = InferenceEngine(gin_model, ServingConfig(feature_bits=8)).warm_up()
        packed = engine.packed_weights()
        assert engine.weight_cache.nbytes == sum(w.nbytes for w in packed)
        assert len(engine.weight_cache) == gin_model.num_layers


class TestAdjacencyCache:
    def test_replay_hits_tile_mask_cache(self, gin_model, subgraphs):
        engine = InferenceEngine(
            gin_model, ServingConfig(feature_bits=8, batch_size=4)
        )
        engine.infer(subgraphs)  # 8 subgraphs -> 2 distinct batches
        first = engine.stats.adjacency_cache.snapshot()
        assert first.misses == engine.stats.batches
        assert first.hits == 0
        engine.infer(subgraphs)  # identical rounds: pure cache traffic
        stats = engine.stats.adjacency_cache
        assert stats.misses == first.misses
        assert stats.hits == first.misses
        assert stats.evictions == 0

    def test_distinct_batches_get_distinct_entries(self, gin_model, subgraphs):
        engine = InferenceEngine(
            gin_model, ServingConfig(feature_bits=8, batch_size=4)
        )
        engine.infer(subgraphs[:4])
        engine.infer(subgraphs[4:])
        assert engine.stats.adjacency_cache.misses == 2
        assert len(engine.adjacency_cache) == 2
        assert engine.adjacency_cache.nbytes > 0

    def test_eviction_under_tiny_capacity(self, gin_model, subgraphs):
        engine = InferenceEngine(
            gin_model,
            ServingConfig(feature_bits=8, batch_size=4, adjacency_cache_capacity=1),
        )
        engine.infer(subgraphs)  # 2 batches through a 1-entry cache
        engine.infer(subgraphs)
        stats = engine.stats.adjacency_cache
        assert stats.hits == 0
        assert stats.misses == 4
        assert stats.evictions == 3

    def test_adjacency_bytes_balance_whether_or_not_words_materialise(
        self, gin_model, subgraphs
    ):
        """An entry is budgeted by its geometry — its §4.2 words may be
        packed long after ``put`` — so what an insertion adds is exactly
        what the eviction subtracts."""
        engine = InferenceEngine(
            gin_model,
            ServingConfig(
                feature_bits=1, engine="blas", batch_size=2, adjacency_cache_capacity=2
            ),
        )
        rounds = [subgraphs[0:2], subgraphs[2:4], subgraphs[4:6]]
        batches = [SubgraphBatch(members=tuple(r)) for r in rounds]
        engine.infer(rounds[0])
        engine.infer(rounds[1])
        segment = engine.adjacency_cache
        first, second = (engine.packed_adjacency_for(b) for b in batches[:2])
        assert first.operand._packed is None  # a ``blas`` round reads no word
        assert segment.nbytes == first.nbytes + second.nbytes
        # A ``packed``-engine round on the cached entry is their first reader.
        quantized_forward(
            gin_model, batches[0], feature_bits=1, packed_adjacency=first, engine="packed"
        )
        assert first.operand._packed is not None
        assert segment.nbytes == first.nbytes + second.nbytes
        # ``core.bitpack.packed_mb``: the dense packer's size, as ever.
        dense = batches[0].dense_adjacency().astype(np.int64)
        assert first.packed.nbytes == pack_matrix(dense, 1, "col").nbytes
        engine.infer(rounds[1])  # refresh: the packed entry is now the oldest
        engine.infer(rounds[2])
        assert engine.stats.adjacency_cache.evictions == 1
        third = engine.packed_adjacency_for(batches[2])
        assert segment.nbytes == second.nbytes + third.nbytes
        segment.clear()
        assert segment.nbytes == 0

    def test_cached_plan_preserves_results(self, gin_model, subgraphs):
        engine = InferenceEngine(
            gin_model, ServingConfig(feature_bits=8, batch_size=4)
        )
        cold = engine.infer(subgraphs)
        warm = engine.infer(subgraphs)
        for a, b in zip(cold, warm):
            np.testing.assert_array_equal(a.logits, b.logits)

    def test_measured_skip_telemetry(self, gin_model, subgraphs):
        engine = InferenceEngine(
            gin_model, ServingConfig(feature_bits=8, batch_size=8)
        )
        engine.infer(subgraphs)
        stats = engine.stats
        assert stats.tiles_total > 0
        # A coalesced block-diagonal batch always has jumpable tiles.
        assert stats.tiles_skipped > 0
        assert 0.0 < stats.measured_skip_fraction < 1.0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigError):
            ServingConfig(adjacency_cache_capacity=0)


class TestPlanCache:
    """The compiled-plan segment of the unified plan cache."""

    def test_replay_hits_plan_cache(self, gin_model, subgraphs):
        engine = InferenceEngine(
            gin_model, ServingConfig(feature_bits=8, batch_size=4)
        )
        engine.infer(subgraphs)  # 8 subgraphs -> 2 distinct batches
        first = engine.stats.plan_cache.snapshot()
        assert first.misses == engine.stats.batches
        assert first.hits == 0
        engine.infer(subgraphs)  # identical rounds replay compiled plans
        stats = engine.stats.plan_cache
        assert stats.misses == first.misses
        assert stats.hits == first.misses
        assert stats.evictions == 0

    def test_plan_records_frozen_dispatch(self, gin_model, subgraphs):
        engine = InferenceEngine(
            gin_model, ServingConfig(feature_bits=8, batch_size=4)
        )
        engine.infer(subgraphs[:4])
        batch = SubgraphBatch(members=tuple(subgraphs[:4]))
        plan = engine.plan_for(batch)  # cache hit: the executed plan
        assert engine.stats.plan_cache.hits >= 1
        assert plan.signature.num_nodes == batch.num_nodes
        registered = set(engine.plan_artifacts.kinds())
        assert registered == {"weight", "adjacency", "plan", "template", "table"}
        for step in plan.gemm_steps():
            assert step.backend in default_registry().names()
        # The plan's weight nodes carry the session's cache keys.
        assert plan.layers[0].update.pack_b.cache_key == engine._weight_key(0)

    def test_mutated_shape_compiles_fresh_plan(self, gin_model, subgraphs):
        # A structurally different request set must get its own plan (a
        # fresh content key), never silently replay the old one.
        engine = InferenceEngine(
            gin_model, ServingConfig(feature_bits=8, batch_size=4)
        )
        engine.infer(subgraphs[:4])
        assert engine.stats.plan_cache.misses == 1
        engine.infer(subgraphs[4:])  # different members, different shape
        assert engine.stats.plan_cache.misses == 2
        assert engine.stats.plan_cache.hits == 0

    def test_stale_plan_refuses_mismatched_batch(self, gin_model, subgraphs):
        from repro.gnn import execute_forward_plan

        engine = InferenceEngine(
            gin_model, ServingConfig(feature_bits=8, batch_size=4)
        )
        batch = SubgraphBatch(members=tuple(subgraphs[:4]))
        other = SubgraphBatch(members=tuple(subgraphs[4:]))
        plan = engine.plan_for(batch)
        if other.num_nodes != batch.num_nodes:
            with pytest.raises(ShapeError, match="fresh plan"):
                execute_forward_plan(plan, gin_model, other)

    def test_unified_cache_shared_telemetry(self, gin_model, subgraphs):
        engine = InferenceEngine(
            gin_model, ServingConfig(feature_bits=8, batch_size=4)
        )
        engine.infer(subgraphs)
        telemetry = engine.cache_telemetry()
        assert set(telemetry) == {"weight", "adjacency", "plan", "template", "table"}
        total = engine.plan_artifacts.total_stats()
        assert total.lookups == sum(t.lookups for t in telemetry.values())
        assert engine.plan_artifacts.nbytes >= engine.adjacency_cache.nbytes

    def test_rejects_bad_plan_capacity(self):
        with pytest.raises(ConfigError):
            ServingConfig(plan_cache_capacity=0)


class TestCoalescing:
    def test_respects_batch_size(self, gin_model, subgraphs):
        engine = InferenceEngine(gin_model, ServingConfig(feature_bits=4, batch_size=3))
        results = engine.infer(subgraphs)  # 8 subgraphs -> 3+3+2
        assert engine.stats.batches == 3
        assert max(r.batch_id for r in results) == 2

    def test_respects_node_budget(self, gin_model, subgraphs):
        budget = 2 * max(s.num_nodes for s in subgraphs)
        engine = InferenceEngine(
            gin_model,
            ServingConfig(feature_bits=4, batch_size=8, max_batch_nodes=budget),
        )
        engine.infer(subgraphs)
        # With ~equal member sizes a round holds at most 2 subgraphs.
        assert engine.stats.batches >= len(subgraphs) // 2
        assert engine.stats.mean_batch_occupancy <= 2.0

    def test_stream_yields_incrementally(self, gin_model, subgraphs):
        engine = InferenceEngine(gin_model, ServingConfig(feature_bits=4, batch_size=2))
        seen = []
        for result in engine.stream(iter(subgraphs[:5])):
            seen.append(result.request_id)
        assert seen == [0, 1, 2, 3, 4]
        assert engine.stats.batches == 3  # 2+2+1
        assert engine.pending == 0

    def test_infer_one_ignores_pending_queue(self, gin_model, subgraphs):
        # Regression: infer_one must return ITS request's result even when
        # other requests are already queued, and must leave them queued.
        engine = InferenceEngine(gin_model, ServingConfig(feature_bits=8))
        engine.submit(subgraphs[0])
        result = engine.infer_one(subgraphs[1])
        assert result.logits.shape[0] == subgraphs[1].num_nodes
        assert engine.pending == 1
        queued = engine.flush()
        assert len(queued) == 1
        assert queued[0].logits.shape[0] == subgraphs[0].num_nodes

    def test_submit_flush_lifecycle(self, gin_model, subgraphs):
        engine = InferenceEngine(gin_model, ServingConfig(feature_bits=4))
        engine.submit(subgraphs[0])
        engine.submit(subgraphs[1])
        assert engine.pending == 2
        results = engine.flush()
        assert engine.pending == 0
        assert len(results) == 2
        assert engine.flush() == []


class TestSessionTelemetry:
    def test_stats_accumulate(self, gin_model, subgraphs):
        engine = InferenceEngine(gin_model, ServingConfig(feature_bits=8))
        engine.infer(subgraphs)
        stats = engine.stats
        assert stats.requests == len(subgraphs)
        assert stats.nodes == sum(s.num_nodes for s in subgraphs)
        assert stats.mma_ops > 0
        assert stats.kernel_launches > 0
        assert stats.wall_s > 0
        assert stats.requests_per_s > 0

    def test_modeled_device_report(self, gin_model, subgraphs):
        engine = InferenceEngine(gin_model, ServingConfig(feature_bits=8))
        engine.infer(subgraphs)
        report = engine.device_report
        assert report.num_batches == engine.stats.batches
        assert report.total_s() > 0
        assert report.mma_ops > 0

    def test_round_seconds_ring_tracks_service_time(self, gin_model, subgraphs):
        engine = InferenceEngine(
            gin_model, ServingConfig(feature_bits=8, batch_size=2)
        )
        stats = engine.stats
        # Empty ring: quantiles are defined (0.0), never an error.
        assert stats.round_seconds_p50 == 0.0
        assert stats.round_seconds_p99 == 0.0
        engine.infer(subgraphs)
        assert len(stats.recent_round_seconds) == stats.batches
        assert 0.0 < stats.round_seconds_p50 <= stats.round_seconds_p99
        # The ring holds *seconds per round*; their sum is the measured
        # execution wall-clock (nothing else ever lands in the ring).
        assert sum(stats.recent_round_seconds) == pytest.approx(stats.wall_s)
        # Bounded: the ring never outgrows its window.
        assert stats.recent_round_seconds.maxlen == 256

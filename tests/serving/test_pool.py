"""Tests for the sharded serving worker pool.

Covers the PR 5 acceptance points: submission-ordered results that are
bit-identical to a single engine under a shared calibration, structure
sharding and backlog coalescing, the shared packed-weight
segment (one pack pool-wide), and the one dispatch table every shard
mounts.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.faultinject import FaultPlan, FaultSpec
from repro.gnn import make_batched_gin
from repro.gnn.quantized import ActivationCalibration
from repro.graph import CSRGraph, induced_subgraphs
from repro.graph.batching import Subgraph
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.plan import GemmSpec
from repro.serving import (
    InferenceEngine,
    PoolConfig,
    ServingConfig,
    ServingPool,
)


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


def make_pool(
    model, config=None, *, calibration=None, fault_plan=None, **pool_kwargs
):
    return ServingPool(
        model,
        config or ServingConfig(feature_bits=8, batch_size=4),
        pool=PoolConfig(workers=2, **pool_kwargs),
        calibration=calibration,
        fault_plan=fault_plan,
    )


class TestPoolConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"queue_capacity": 0},
            {"supervise_interval_s": float("inf")},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ConfigError):
            PoolConfig(**kwargs)


class TestPoolResults:
    def test_results_in_submission_order(self, gin_model, subgraphs):
        with make_pool(gin_model) as pool:
            results = pool.serve(subgraphs)
            assert [r.request_id for r in results] == list(range(len(subgraphs)))
            for sub, res in zip(subgraphs, results):
                assert res.done()
                assert res.logits.shape == (sub.num_nodes, 3)

    def test_pool_is_bit_identical_to_single_engine(self, gin_model, subgraphs):
        # Freeze calibration through a single session, then serve the same
        # workload through a pool sharing it: every logit matches bit for
        # bit — sharding and coalescing are throughput decisions only.
        calibration = ActivationCalibration()
        engine = InferenceEngine(
            gin_model,
            ServingConfig(feature_bits=8, batch_size=4),
            calibration=calibration,
        )
        expected = engine.infer(subgraphs)
        with make_pool(gin_model, calibration=calibration) as pool:
            results = pool.serve(subgraphs)
            for want, got in zip(expected, results):
                np.testing.assert_array_equal(got.result(), want.logits)

    def test_single_engine_reproduces_a_pool_calibrated_first(
        self, gin_model, subgraphs
    ):
        # The reverse direction: the pool freezes calibration (exactly one
        # worker calibrates each site, under the lock), and a later single
        # session sharing pool.calibration reproduces the pool's bits.
        with make_pool(gin_model) as pool:
            results = pool.serve(subgraphs)
            engine = InferenceEngine(
                gin_model,
                ServingConfig(feature_bits=8, batch_size=4),
                calibration=pool.calibration,
            )
            expected = engine.infer(subgraphs)
            for want, got in zip(expected, results):
                np.testing.assert_array_equal(got.result(), want.logits)

    def test_worker_error_surfaces_on_the_submitter(self, gin_model, subgraphs):
        featureless = Subgraph(
            graph=CSRGraph(
                indptr=subgraphs[0].graph.indptr,
                indices=subgraphs[0].graph.indices,
            ),
            original_nodes=subgraphs[0].original_nodes,
        )
        with make_pool(gin_model) as pool:
            bad = pool.submit(featureless)
            with pytest.raises(ShapeError):
                bad.result(timeout=30)
            # The worker survives the failed round and keeps serving.
            good = pool.submit(subgraphs[0])
            assert good.result(timeout=30).shape == (subgraphs[0].num_nodes, 3)

    def test_pending_result_raises_timeout(self, gin_model, subgraphs):
        with make_pool(gin_model) as pool:
            result = pool.serve(subgraphs[:1])[0]
            assert result.logits.shape[0] == subgraphs[0].num_nodes
            # A never-filled handle times out rather than hanging.
            fresh = type(result)(99, "w0")
            with pytest.raises(TimeoutError):
                fresh.result(timeout=0.01)

    def test_device_report_covers_every_batch(self, gin_model, subgraphs):
        with make_pool(gin_model) as pool:
            pool.serve(subgraphs)
            assert pool.device_report().num_batches == pool.stats().batches


class TestShardingAndCoalescing:
    def test_structure_policy_pins_structures_to_shards(self, gin_model, subgraphs):
        with make_pool(gin_model) as pool:
            a = pool.serve([subgraphs[0]] * 3)
            assert len({r.worker for r in a}) == 1  # always the same shard
            workers = {
                r.worker for r in pool.serve(subgraphs)
            }
            assert len(workers) > 1  # distinct structures spread out

    def test_shard_of_ignores_seq(self, gin_model, subgraphs):
        # Structure is the one routing key: the sequence number a caller
        # passes changes nothing, and submit() lands where shard_of says.
        with make_pool(gin_model) as pool:
            for sub in subgraphs:
                home = pool.shard_of(sub)
                assert {pool.shard_of(sub, seq) for seq in range(6)} == {home}
                assert pool.submit(sub).worker == f"w{home}"

    def test_backlog_coalesces_into_one_round(self, gin_model, subgraphs):
        # Four same-structure requests (one shard) queued while that
        # shard's first round stalls form the next round together.
        plan = FaultPlan(
            seed=0, specs=[FaultSpec("slow_shard", at=(0,), delay_s=0.5)]
        )
        with make_pool(gin_model, fault_plan=plan) as pool:
            futures = [pool.submit(subgraphs[0])]
            while plan.probes("slow_shard") < 1:
                time.sleep(0.001)
            futures += [pool.submit(subgraphs[0]) for _ in range(4)]
            for future in futures:
                future.result(timeout=30)
            stats = pool.stats()
            assert stats.requests == 5
            assert stats.batches == 2
            assert stats.mean_batch_occupancy == 2.5

    def test_backlog_round_is_bit_identical_to_per_request_serving(
        self, gin_model, subgraphs
    ):
        # The backlog executes as one four-member round; every member's
        # logits are the ones a single engine computes for it alone.
        calibration = ActivationCalibration()
        engine = InferenceEngine(
            gin_model,
            ServingConfig(feature_bits=8, batch_size=4),
            calibration=calibration,
        )
        expected = [engine.infer_one(sub).logits for sub in subgraphs[:5]]
        plan = FaultPlan(
            seed=0, specs=[FaultSpec("slow_shard", at=(0,), delay_s=0.5)]
        )
        with make_pool(gin_model, calibration=calibration, fault_plan=plan) as pool:
            futures = [pool.submit(subgraphs[0], shard=0)]
            while plan.probes("slow_shard") < 1:
                time.sleep(0.001)
            futures += [pool.submit(sub, shard=0) for sub in subgraphs[1:5]]
            for want, future in zip(expected, futures):
                np.testing.assert_array_equal(future.result(timeout=30), want)
            assert pool.stats().batches == 2

    def test_weights_pack_once_pool_wide(self, gin_model, subgraphs):
        # The shared read-only weight segment: every shard serves traffic,
        # but each layer is quantized + packed exactly once.
        with make_pool(gin_model) as pool:
            pool.serve(subgraphs)
            pool.serve(subgraphs)
            weight_stats = pool.workers[0].weight_cache.stats
            assert weight_stats.misses == gin_model.num_layers
            assert weight_stats.evictions == 0
            assert weight_stats.hits > 0
            stats = pool.stats()
            assert stats.requests == 2 * len(subgraphs)
            assert {w.label for w in stats.per_worker} == {"w0", "w1"}

    def test_submit_after_shutdown_raises(self, gin_model, subgraphs):
        pool = make_pool(gin_model)
        pool.shutdown()
        pool.shutdown()  # idempotent
        with pytest.raises(ConfigError):
            pool.submit(subgraphs[0])

    def test_shutdown_serves_queued_requests(self, gin_model, subgraphs):
        pool = make_pool(gin_model)
        futures = [pool.submit(sub) for sub in subgraphs]
        pool.shutdown()  # drains instead of dropping
        for sub, future in zip(subgraphs, futures):
            assert future.result(timeout=0).shape == (sub.num_nodes, 3)


class TestSharedDispatchTable:
    def test_shards_share_one_table(self, gin_model):
        # Thread shards mount the pool's ``table`` segment: one object, so
        # a sample recorded on shard 0 prices the next decision on shard 1.
        config = ServingConfig(feature_bits=8, batch_size=4, table_min_samples=1)
        with make_pool(gin_model, config) as pool:
            w0, w1 = pool.workers
            assert w0.dispatch_table is w1.dispatch_table
            spec = GemmSpec(m=64, k=128, n=16, bits_a=8, bits_b=8)
            w0.dispatcher.record_timing(spec, "packed", 1e-9)
            decision = w1.dispatcher.decide(64, 128, 16, 8, 8)
            assert decision.prices["packed"].source == "tuned"
            assert decision.engine == "packed"

    def test_the_one_table_holds_every_shards_samples(self, gin_model, subgraphs):
        with make_pool(gin_model) as pool:
            # Every structure is served on every shard, home or not.
            futures = [
                pool.submit(sub, shard=shard)
                for shard in range(2)
                for sub in subgraphs
            ]
            for future in futures:
                future.result(timeout=30)
            per_shard = [e.stats.autotune_samples for e in pool.workers]
            table = pool.workers[0].dispatch_table
            assert all(per_shard)
            assert table.sample_count() == sum(per_shard)

    def test_each_pool_starts_with_an_empty_table(self, gin_model, subgraphs):
        with make_pool(gin_model) as first:
            first.serve(subgraphs)
            measured = first.workers[0].dispatch_table
            assert measured.sample_count() > 0
        with make_pool(gin_model) as second:
            table = second.workers[0].dispatch_table
            assert table is not measured
            assert table.sample_count() == 0


class TestShardsMountSharedState:
    """A pool shares state one way: every shard mounts the same locked
    object, never a private view of it."""

    def test_shards_mount_the_pools_calibration(self, gin_model, subgraphs):
        calibration = ActivationCalibration()
        with make_pool(gin_model, calibration=calibration) as pool:
            assert pool.calibration is calibration
            assert all(e.calibration is calibration for e in pool.workers)
            pool.serve(subgraphs)
        # Each shard froze into the one object: one params per site.
        assert len(calibration) == 2 * gin_model.num_layers

    def test_shards_mount_one_weight_and_one_table_segment(self, gin_model):
        with make_pool(gin_model) as pool:
            w0, w1 = (e.plan_artifacts for e in pool.workers)
            for kind in ("weight", "table"):
                assert w0.segment(kind) is w1.segment(kind)
            # Plans, templates and adjacencies stay per shard: a miss
            # binds from the shard's own template, as in a single engine.
            for kind in ("plan", "template", "adjacency"):
                assert w0.segment(kind) is not w1.segment(kind)

    def test_a_respawned_shard_mounts_the_same_calibration(
        self, gin_model, subgraphs
    ):
        calibration = ActivationCalibration()
        plan = FaultPlan(seed=0, specs=[FaultSpec("worker", at=(1,))])
        with make_pool(
            gin_model,
            calibration=calibration,
            fault_plan=plan,
            supervise_interval_s=0.01,
        ) as pool:
            # One round per request: the second kills shard 0's loop.
            for sub in subgraphs[:3]:
                pool.submit(sub, shard=0).result(timeout=30)
            deadline = time.monotonic() + 10
            while pool.stats().respawns < 1:
                assert time.monotonic() < deadline, "shard never respawned"
                time.sleep(0.005)
            assert all(e.calibration is calibration for e in pool.workers)


class TestPoolStatsAreShardSnapshots:
    COUNTERS = (
        "requests", "batches", "nodes", "mma_ops", "tiles_total", "tiles_skipped",
    )

    def test_per_worker_snapshots_are_the_shards_real_counters(
        self, gin_model, subgraphs
    ):
        # Served one at a time, every request is its own round, so each
        # shard's snapshot equals a single engine serving that shard's
        # slice member by member — cache counters included.
        config = ServingConfig(feature_bits=8, batch_size=4)
        with ServingPool(gin_model, config, pool=PoolConfig(workers=2)) as pool:
            for subgraph in subgraphs:
                pool.submit(subgraph).result(timeout=30)
            stats = pool.stats()
        slices: dict[str, list] = {}
        for subgraph in subgraphs:
            slices.setdefault(f"w{pool.shard_of(subgraph)}", []).append(subgraph)
        assert [w.label for w in stats.per_worker] == ["w0", "w1"]
        for worker in stats.per_worker:
            engine = InferenceEngine(gin_model, config, calibration=pool.calibration)
            for subgraph in slices.get(worker.label, []):
                engine.infer_one(subgraph)
            for name in self.COUNTERS:
                assert getattr(worker, name) == getattr(engine.stats, name), name
            assert worker.plan_cache.misses == engine.stats.plan_cache.misses
            assert worker.plan_cache.hits == engine.stats.plan_cache.hits
        for name in self.COUNTERS + ("step_retries", "plans_invalidated"):
            assert getattr(stats, name) == sum(
                getattr(w, name) for w in stats.per_worker
            ), name
        assert stats.requests == len(subgraphs) and stats.mma_ops > 0

    def test_poisoned_discards_counts_the_template_segment(self, gin_model, subgraphs):
        # The verified segments are every shard's ``plan`` and ``template``:
        # a corrupted template is discarded (and counted) when a new
        # structure of a node count and census band its shard has seen
        # misses into it.
        base = subgraphs[0]
        graph = base.graph
        rows = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
        edges = np.stack([rows, graph.indices], axis=1)
        # A new edge inside an 8-row block lands in a tile its self loops
        # already keep live: another structure, the same census.
        u, v = next((u, u + 1) for u in range(graph.num_nodes - 1)
                    if u % 8 != 7 and u + 1 not in graph.neighbors(u))
        twin = Subgraph(
            graph=CSRGraph.from_edges(
                graph.num_nodes, np.vstack([edges, [(u, v)]]), features=graph.features
            ),
            original_nodes=base.original_nodes,
        )
        config = ServingConfig(feature_bits=2, batch_size=1)
        with ServingPool(gin_model, config, pool=PoolConfig(workers=2)) as pool:
            pool.submit(base, shard=0).result()
            assert pool.stats().poisoned_discards == 0
            templates = pool.workers[0].plan_artifacts.segment("template")
            (key,) = templates.keys()
            assert templates.corrupt(key)
            pool.submit(twin, shard=0).result()
            stats = pool.stats()
        assert stats.poisoned_discards == stats.template_cache.poisoned == 1
        assert [w.template_cache.poisoned for w in stats.per_worker] == [1, 0]
        assert stats.plan_cache.poisoned == 0

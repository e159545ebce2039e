"""Tests for the ExecutionPlan IR, the forward-plan compiler, and the
unified plan cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import BitwidthError, ConfigError, ShapeError
from repro.gnn import execute_forward_plan, make_batched_gin, make_cluster_gcn
from repro.graph import batch_subgraphs, induced_subgraphs
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.plan import (
    GemmSpec,
    PlanCache,
    compile_forward_plan,
    forward_gemm_specs,
)
from repro.serving.dispatch import CostModelDispatcher


@pytest.fixture
def batch(rng):
    g = planted_partition_graph(
        96, 600, num_communities=4, feature_dim=12, num_classes=3, rng=rng
    )
    subs = induced_subgraphs(g, metis_like_partition(g, 4))
    return next(batch_subgraphs(subs, 4))


@pytest.fixture
def gcn(batch):
    return make_cluster_gcn(12, 3, hidden_dim=16, seed=1)


class TestGemmSpec:
    def test_tile_grid_matches_padding(self):
        assert GemmSpec(13, 150, 24, 1, 8).tile_grid() == (2, 2, 3)
        assert GemmSpec(0, 1, 1, 1, 1).tile_grid() == (1, 1, 1)

    def test_rejects_bad_bits_and_dims(self):
        with pytest.raises(BitwidthError):
            GemmSpec(8, 8, 8, 0, 1)
        with pytest.raises(BitwidthError):
            GemmSpec(8, 8, 8, 1, 33)
        with pytest.raises(ShapeError):
            GemmSpec(-1, 8, 8, 1, 1)


class TestForwardGemmSpecs:
    def test_gcn_aggregates_input_dim(self, gcn):
        pairs = forward_gemm_specs(gcn, num_nodes=96, feature_bits=4)
        assert len(pairs) == gcn.num_layers
        agg0, upd0 = pairs[0]
        assert (agg0.m, agg0.k, agg0.n) == (96, 96, gcn.feature_dim)
        assert (agg0.bits_a, agg0.bits_b) == (1, 4)
        assert agg0.role == "aggregate"
        assert (upd0.m, upd0.k) == (96, gcn.feature_dim)
        assert upd0.role == "update"

    def test_gin_aggregates_output_dim(self):
        gin = make_batched_gin(12, 3, hidden_dim=16, seed=1)
        pairs = forward_gemm_specs(gin, num_nodes=50, feature_bits=4)
        agg0, upd0 = pairs[0]
        assert agg0.n == upd0.n  # aggregation runs on the updated features

    def test_weight_bits_per_layer(self, gcn):
        per_layer = [2] * gcn.num_layers
        pairs = forward_gemm_specs(
            gcn, num_nodes=10, feature_bits=4, weight_bits_per_layer=per_layer
        )
        assert all(upd.bits_b == 2 for _, upd in pairs)
        with pytest.raises(ConfigError):
            forward_gemm_specs(
                gcn, num_nodes=10, feature_bits=4, weight_bits_per_layer=[2]
            )

    def test_rejects_bad_inputs(self, gcn):
        with pytest.raises(BitwidthError):
            forward_gemm_specs(gcn, num_nodes=10, feature_bits=0)
        with pytest.raises(ShapeError):
            forward_gemm_specs(gcn, num_nodes=-1, feature_bits=4)


class TestCompileForwardPlan:
    def test_structure_and_signature(self, gcn):
        plan = compile_forward_plan(gcn, num_nodes=96, feature_bits=4)
        assert plan.num_layers == gcn.num_layers
        sig = plan.signature
        assert (sig.num_nodes, sig.feature_dim) == (96, gcn.feature_dim)
        assert sig.aggregate_first
        assert plan.layers[-1].is_output
        assert not plan.layers[0].is_output

    def test_aggregate_step_nodes(self, gcn):
        plan = compile_forward_plan(
            gcn, num_nodes=96, feature_bits=4, adjacency_key=("adjacency", b"x")
        )
        agg = plan.layers[0].aggregate
        assert agg.pack_a.layout == "col" and agg.pack_a.bits == 1
        assert agg.pack_a.cache_key == ("adjacency", b"x")
        assert agg.census is not None
        assert agg.census.cache_key == ("adjacency", b"x")
        assert agg.quantize_b.site == "L0/agg"
        assert agg.quantize_a is None  # the adjacency is exact
        # Activations are transient: re-packed every execution.
        assert agg.pack_b.cache_key is None

    def test_update_step_nodes_and_default_weight_keys(self, gcn):
        plan = compile_forward_plan(gcn, num_nodes=96, feature_bits=4)
        for i, layer in enumerate(plan.layers):
            upd = layer.update
            assert upd.quantize_a.site == f"L{i}/upd"
            assert upd.pack_b.cache_key == ("weight", i, 4)
            assert upd.pack_a.cache_key is None

    def test_execution_order_follows_model_kind(self, gcn):
        gin = make_batched_gin(12, 3, hidden_dim=16, seed=1)
        gcn_plan = compile_forward_plan(gcn, num_nodes=8, feature_bits=4)
        gin_plan = compile_forward_plan(gin, num_nodes=8, feature_bits=4)
        assert next(gcn_plan.gemm_steps()).spec.role == "aggregate"
        assert next(gin_plan.gemm_steps()).spec.role == "update"

    def test_dispatcher_decisions_frozen_into_plan(self, gcn):
        # A budget the adjacency's float working set exceeds, so the
        # aggregation is priced among the word engines only.
        dispatcher = CostModelDispatcher(blas_bytes_budget=1 << 20)
        dispatcher.observe_tile_fraction(1 / 16, nodes=2048)
        plan = compile_forward_plan(
            gcn, num_nodes=2048, feature_bits=8, engine=dispatcher
        )
        # Each GEMM froze its own pick: the big square 1-bit adjacency
        # product the word engine, the small update products blas.
        assert {layer.aggregate.backend for layer in plan.layers} == {"packed"}
        assert {layer.update.backend for layer in plan.layers} == {"blas"}

    def test_forced_backend(self, gcn):
        plan = compile_forward_plan(gcn, num_nodes=64, feature_bits=4, engine="packed")
        assert plan.backends() == ("packed",)

    def test_custom_registry_plan_compiles_and_replays(self, gcn, batch):
        # Regression: a plan compiled against a non-default registry must
        # replay through execute_forward_plan with that same registry.
        from repro.plan import Backend, BackendRegistry, builtin_backends

        def oracle(a, b):
            return a.codes @ b.codes

        registry = BackendRegistry(builtin_backends())
        registry.register(Backend(name="oracle", run=oracle))
        plan = compile_forward_plan(
            gcn, num_nodes=batch.num_nodes, feature_bits=4,
            engine="oracle", registry=registry,
        )
        assert plan.backends() == ("oracle",)
        got = execute_forward_plan(plan, gcn, batch, registry=registry)
        reference = compile_forward_plan(
            gcn, num_nodes=batch.num_nodes, feature_bits=4, engine="packed"
        )
        want = execute_forward_plan(reference, gcn, batch)
        np.testing.assert_array_equal(got.logits, want.logits)
        # Without the registry the custom name must fail loudly, not
        # silently fall back.
        with pytest.raises(ShapeError, match="oracle"):
            execute_forward_plan(plan, gcn, batch)

    def test_mismatched_batch_refuses_to_execute(self, gcn, batch):
        plan = compile_forward_plan(
            gcn, num_nodes=batch.num_nodes + 1, feature_bits=4
        )
        with pytest.raises(ShapeError, match="fresh plan"):
            execute_forward_plan(plan, gcn, batch)

    def test_mismatched_model_refuses_to_execute(self, gcn, batch):
        other = make_cluster_gcn(12, 3, hidden_dim=16, num_layers=2, seed=2)
        plan = compile_forward_plan(gcn, num_nodes=batch.num_nodes, feature_bits=4)
        if other.num_layers != gcn.num_layers:
            with pytest.raises(ConfigError):
                execute_forward_plan(plan, other, batch)


class TestPlanCache:
    def test_routes_by_kind_with_separate_capacities(self):
        cache = PlanCache({"weight": 1, "adjacency": 2})
        cache.get_or_build(("weight", 0), lambda: "w0")
        cache.get_or_build(("weight", 1), lambda: "w1")  # evicts w0
        cache.get_or_build(("adjacency", b"a"), lambda: "a0")
        cache.get_or_build(("adjacency", b"b"), lambda: "a1")
        assert cache.segment("weight").stats.evictions == 1
        assert cache.segment("adjacency").stats.evictions == 0
        assert len(cache) == 3

    def test_unknown_kind_and_malformed_keys_rejected(self):
        cache = PlanCache({"weight": 1})
        with pytest.raises(ConfigError):
            cache.get_or_build(("plan", 1), lambda: None)
        with pytest.raises(ConfigError):
            cache.get_or_build("weight", lambda: None)
        with pytest.raises(ConfigError):
            PlanCache({})

    def test_contains_and_get(self):
        cache = PlanCache({"weight": 2})
        assert ("weight", 0) not in cache
        cache.put(("weight", 0), "w0")
        assert ("weight", 0) in cache
        assert cache.get(("weight", 0)) == "w0"
        assert cache.get(("weight", 9)) is None

    def test_telemetry_and_total_stats(self):
        cache = PlanCache({"weight": 2, "plan": 2})
        cache.get_or_build(("weight", 0), lambda: "w")
        cache.get_or_build(("weight", 0), lambda: "w")
        cache.get_or_build(("plan", 0), lambda: "p")
        telemetry = cache.telemetry()
        assert telemetry["weight"].hits == 1
        assert telemetry["weight"].misses == 1
        assert telemetry["plan"].misses == 1
        total = cache.total_stats()
        assert (total.hits, total.misses) == (1, 2)
        # Snapshots are independent of the live counters.
        telemetry["weight"].hits = 99
        assert cache.segment("weight").stats.hits == 1

    def test_nbytes_tracks_artifact_footprint(self):
        class Artifact:
            nbytes = 128

        cache = PlanCache({"adjacency": 2})
        cache.put(("adjacency", b"a"), Artifact())
        cache.put(("adjacency", b"p"), "metadata-only")
        assert cache.nbytes == 128

    def test_clear_preserves_stats(self):
        cache = PlanCache({"weight": 2})
        cache.get_or_build(("weight", 0), lambda: "w")
        cache.clear()
        assert len(cache) == 0
        assert cache.segment("weight").stats.misses == 1

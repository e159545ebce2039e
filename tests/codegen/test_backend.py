"""Backend-layer tests: kernel caching, serving replay, autotune routing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen import (
    gemm_kernel,
    kernel_cache_segment,
    prepare_plan_kernels,
)
from repro.core.bitgemm import matmul_int_reference, reduce_plane_products
from repro.core.bitpack import pack_matrix, tile_nonzero_mask
from repro.errors import ConfigError
from repro.gnn import make_batched_gin
from repro.graph import induced_subgraphs
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.plan import (
    BackendRegistry,
    GemmSpec,
    PlanCache,
    autotune,
    bucket_for,
    default_registry,
)
from repro.plan.autotune import synthesize_operands
from repro.serving import InferenceEngine, ServingConfig
from repro.serving.dispatch import CostModelDispatcher


@pytest.fixture
def subgraphs(rng):
    g = planted_partition_graph(
        160, 900, num_communities=8, feature_dim=12, num_classes=3, rng=rng
    )
    return induced_subgraphs(g, metis_like_partition(g, 8))


@pytest.fixture
def gin_model(subgraphs):
    g = subgraphs[0].graph
    return make_batched_gin(g.features.shape[1], 3, hidden_dim=16, seed=3)


def _segment_snapshot():
    stats = kernel_cache_segment().stats
    return (stats.insertions, stats.hits)


class TestKernelCache:
    def test_same_plan_compiles_once(self, rng):
        adj = (rng.random((72, 288)) < 0.07).astype(np.int64)
        packed = pack_matrix(adj, 1, layout="col")
        mask = tile_nonzero_mask(packed.plane(0))
        kwargs = dict(
            m=72, n=16, bits_a=1, bits_b=4,
            a_padded_vectors=packed.padded_vectors,
            a_k_words=packed.k_words, tile_mask=mask,
        )
        first = gemm_kernel(**kwargs)
        before_ins, before_hits = _segment_snapshot()
        second = gemm_kernel(**kwargs)
        after_ins, after_hits = _segment_snapshot()
        assert second is first  # one compile, replayed from the segment
        assert after_ins == before_ins
        assert after_hits == before_hits + 1

    def test_mutated_census_recompiles(self, rng):
        adj = (rng.random((72, 288)) < 0.07).astype(np.int64)
        packed = pack_matrix(adj, 1, layout="col")
        mask = tile_nonzero_mask(packed.plane(0))
        kwargs = dict(
            m=72, n=16, bits_a=1, bits_b=4,
            a_padded_vectors=packed.padded_vectors,
            a_k_words=packed.k_words,
        )
        first = gemm_kernel(tile_mask=mask, **kwargs)
        mutated = mask.copy()
        mutated[0, 0] = not mutated[0, 0]
        before_ins, _ = _segment_snapshot()
        second = gemm_kernel(tile_mask=mutated, **kwargs)
        after_ins, _ = _segment_snapshot()
        assert second is not first
        assert after_ins == before_ins + 1  # a fresh compile
        assert second.digest != first.digest

    def test_mutated_bitwidth_recompiles(self):
        kwargs = dict(m=16, n=8, a_padded_vectors=16, a_k_words=4)
        first = gemm_kernel(bits_a=2, bits_b=2, **kwargs)
        second = gemm_kernel(bits_a=2, bits_b=3, **kwargs)
        assert second is not first
        assert second.digest != first.digest

    def test_kernel_nbytes_counts_source_and_env(self, rng):
        adj = (rng.random((40, 256)) < 0.04).astype(np.int64)
        packed = pack_matrix(adj, 1, layout="col")
        mask = tile_nonzero_mask(packed.plane(0))
        kernel = gemm_kernel(
            m=40, n=8, bits_a=1, bits_b=2,
            a_padded_vectors=packed.padded_vectors,
            a_k_words=packed.k_words, tile_mask=mask,
        )
        assert kernel.nbytes >= len(kernel.program.source())


class TestPlanCacheValidation:
    def test_unknown_capacity_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown artifact kind"):
            PlanCache({"wieght": 4})  # the typo this validation exists for

    def test_unknown_shared_kind_rejected(self):
        from repro.plan.cache import ThreadSafeLRUCache

        with pytest.raises(ConfigError, match="unknown artifact kind"):
            PlanCache({"plan": 4}, shared={"kernels": ThreadSafeLRUCache(4)})

    def test_kernel_is_a_known_kind(self):
        cache = PlanCache({"kernel": 4})
        assert cache.kinds() == ("kernel",)


class TestServingReplay:
    def test_second_replay_performs_zero_compiles(self, gin_model, subgraphs):
        engine = InferenceEngine(
            gin_model,
            ServingConfig(feature_bits=8, batch_size=4, engine="codegen"),
        )
        first = engine.infer(subgraphs[:4])
        ins_after_first = engine.stats.kernel_cache.insertions
        hits_after_first = engine.stats.kernel_cache.hits
        second = engine.infer(subgraphs[:4])
        # Kernel compilation is amortized: the replay is pure segment hits.
        assert engine.stats.kernel_cache.insertions == ins_after_first
        assert engine.stats.kernel_cache.hits > hits_after_first
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.logits, b.logits)

    def test_compile_windows_are_attributed(self, gin_model, subgraphs):
        engine = InferenceEngine(
            gin_model,
            ServingConfig(feature_bits=8, batch_size=4, engine="codegen"),
        )
        engine.infer(subgraphs[:4])
        phases = engine.stats.phase_seconds
        assert "plan_lower" in phases
        assert "kernel_compile" in phases
        assert phases["plan_lower"] >= 0.0
        assert phases["kernel_compile"] >= 0.0

    def test_codegen_session_matches_default_engine(self, gin_model, subgraphs):
        shared = None
        baseline = InferenceEngine(
            gin_model, ServingConfig(feature_bits=8, batch_size=4)
        )
        codegen = InferenceEngine(
            gin_model,
            ServingConfig(feature_bits=8, batch_size=4, engine="codegen"),
            calibration=baseline.calibration,
            shared_segments=shared,
        )
        for a, b in zip(
            baseline.infer(subgraphs[:4]), codegen.infer(subgraphs[:4])
        ):
            np.testing.assert_array_equal(a.logits, b.logits)

    def test_prepare_reports_zero_for_warmed_plan(self, gin_model, subgraphs):
        engine = InferenceEngine(
            gin_model,
            ServingConfig(feature_bits=8, batch_size=4, engine="codegen"),
        )
        engine.infer(subgraphs[:4])
        from repro.graph.batching import SubgraphBatch

        batch = SubgraphBatch(members=tuple(subgraphs[:4]))
        adjacency = engine.packed_adjacency_for(batch)
        plan = engine.plan_for(batch, adjacency=adjacency)
        lower_s, compile_s = prepare_plan_kernels(plan, adjacency)
        assert lower_s == 0.0 and compile_s == 0.0


class TestAutotuneRouting:
    @pytest.mark.timeout(120)
    def test_autotune_routes_a_bucket_to_codegen(self):
        # The acceptance-mode check: on measurements alone (conservative
        # analytic price never prefers codegen), at least one censused
        # aggregation bucket must route to the compiled kernels — among
        # the word engines they specialize.  (``blas``, one GEMM on the
        # codes, takes this bucket outright when it is registered.)
        registry = BackendRegistry(
            [b for b in default_registry() if b.caps.consumes_words]
        )
        spec = GemmSpec(m=512, k=512, n=32, bits_a=1, bits_b=2)
        fraction = 0.25
        table = autotune([(spec, fraction)], registry=registry, passes=3, seed=0)
        bucket = bucket_for(spec, fraction)
        medians = {
            name: table.median(bucket, name)
            for name in table.backends(bucket)
            if table.median(bucket, name) is not None
        }
        assert "codegen" in medians
        dispatcher = CostModelDispatcher(table=table, registry=registry)
        dispatcher.observe_tile_fraction(fraction, nodes=spec.m)
        decision = dispatcher.decide(
            spec.m, spec.k, spec.n, spec.bits_a, spec.bits_b
        )
        # The tuned table must route this bucket to the measured winner;
        # the codegen kernels win it on this workload class.
        assert decision.engine == min(medians, key=medians.get)
        assert decision.engine == "codegen"

    def test_analytic_price_is_conservative(self):
        # Without measurements codegen is never the pick: it prices
        # strictly above the cold table's choice for the shape, so it is
        # routed only by measurement.
        dispatcher = CostModelDispatcher(blas_bytes_budget=1 << 20)
        dispatcher.observe_tile_fraction(0.1, nodes=2048)
        decision = dispatcher.decide(2048, 2048, 64, 1, 8)
        assert decision.engine != "codegen"
        assert (
            decision.prices["codegen"].seconds
            > decision.prices[decision.engine].seconds
        )

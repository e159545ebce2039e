"""Serving-level tests of measured dispatch.

A session feeds every executed plan step's measured wall-clock back into
its dispatch table (warm replays are free samples), and the table lives
in the plan cache's ``table`` segment: created empty with the session,
never read from or written to disk.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.gnn import make_batched_gin
from repro.graph import induced_subgraphs
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.plan.autotune import NO_CENSUS_BAND
from repro.serving import CostModelDispatcher, InferenceEngine, ServingConfig


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


class TestOnlineFeedback:
    def test_executed_steps_feed_the_table(self, gin_model, subgraphs):
        engine = InferenceEngine(gin_model, ServingConfig(feature_bits=8))
        engine.infer(subgraphs)
        # Two GEMMs per layer per executed batch, every one a sample.
        expected = 2 * gin_model.num_layers * engine.stats.batches
        assert engine.stats.autotune_samples == expected
        assert engine.dispatch_table is not None
        assert engine.dispatch_table.sample_count() == expected
        # Warm replay keeps sampling: the table sharpens for free.
        engine.infer(subgraphs)
        assert engine.stats.autotune_samples > expected

    def test_feedback_can_be_disabled(self, gin_model, subgraphs):
        engine = InferenceEngine(
            gin_model, ServingConfig(feature_bits=8, record_timings=False)
        )
        engine.infer(subgraphs)
        assert engine.stats.autotune_samples == 0
        assert engine.dispatch_table.sample_count() == 0

    def test_fixed_engine_session_has_no_table(self, gin_model, subgraphs):
        engine = InferenceEngine(
            gin_model, ServingConfig(feature_bits=8, engine="packed")
        )
        engine.infer(subgraphs)
        assert engine.dispatch_table is None
        assert engine.stats.autotune_samples == 0

    def test_table_lives_in_the_plan_cache_table_segment(self, gin_model):
        engine = InferenceEngine(gin_model, ServingConfig(feature_bits=8))
        keys = engine.plan_artifacts.segment("table").keys()
        assert keys == [("table",)]
        assert engine.plan_artifacts.segment("table").stats.misses == 1

    def test_each_session_starts_with_an_empty_table(self, gin_model, subgraphs):
        config = ServingConfig(feature_bits=8, table_min_samples=3)
        first = InferenceEngine(gin_model, config)
        first.infer(subgraphs)
        second = InferenceEngine(gin_model, config)
        assert second.dispatch_table is not first.dispatch_table
        assert second.dispatch_table.sample_count() == 0
        assert second.dispatch_table.min_samples == 3

    def test_config_rejects_bad_table_settings(self):
        with pytest.raises(ConfigError):
            ServingConfig(table_min_samples=0)


class TestMeasuredRouting:
    def test_session_prices_from_its_own_confident_cells(
        self, gin_model, subgraphs
    ):
        engine = InferenceEngine(gin_model, ServingConfig(feature_bits=8, batch_size=4))
        engine.infer(subgraphs)
        engine.infer(subgraphs)  # warm replays sharpen the table
        dispatcher, table = engine.dispatcher, engine.dispatch_table
        dispatcher.tile_fraction = None  # census-free buckets only
        dense = [b for b in table.buckets() if b.band == NO_CENSUS_BAND]
        assert dense
        confident_somewhere = False
        for bucket in dense:
            decision = dispatcher.decide(
                bucket.m, bucket.k, bucket.n, bucket.bits_a, bucket.bits_b
            )
            confident = {
                name
                for name in table.backends(bucket)
                if table.median(bucket, name) is not None
            }
            assert set(decision.tuned_backends) == confident
            confident_somewhere |= bool(confident)
        assert confident_somewhere

    def test_table_samples_only_backends_the_session_ran(
        self, gin_model, subgraphs
    ):
        # Nothing explores: the table holds timings of executed steps only.
        engine = InferenceEngine(gin_model, ServingConfig(feature_bits=8))
        engine.infer(subgraphs)
        table = engine.dispatch_table
        sampled = {name for b in table.buckets() for name in table.backends(b)}
        assert sampled
        assert sampled == set(engine.stats.backend_seconds)

    def test_fresh_session_prices_analytically(self, gin_model):
        engine = InferenceEngine(gin_model, ServingConfig(feature_bits=8))
        dispatcher = engine.dispatcher
        reference = CostModelDispatcher(
            blas_bytes_budget=dispatcher.blas_bytes_budget,
            rates=dispatcher.rates,
            registry=dispatcher.registry,
        )
        for shape in [(64, 64, 16, 1, 8), (256, 16, 16, 8, 8), (512, 512, 64, 8, 8)]:
            got, want = dispatcher.decide(*shape), reference.decide(*shape)
            assert got.engine == want.engine
            assert got.prices == want.prices
            assert not got.tuned_backends

    def test_sessions_sharing_a_calibration_serve_identical_logits(
        self, gin_model, subgraphs
    ):
        # A measured session and a fresh one may route differently; the
        # logits they serve may not differ.
        producer = InferenceEngine(gin_model, ServingConfig(feature_bits=8))
        expected = producer.infer(subgraphs)
        producer.infer(subgraphs)
        fresh = InferenceEngine(
            gin_model, ServingConfig(feature_bits=8), calibration=producer.calibration
        )
        assert fresh.dispatch_table.sample_count() == 0
        for want, got in zip(expected, fresh.infer(subgraphs)):
            np.testing.assert_array_equal(want.logits, got.logits)

"""Serving-level tests of dispatch without measurement.

A session once fed every executed step's wall-clock into a dispatch table
in the plan cache's ``table`` segment and priced from it.  These tests
keep those names and check the static rule in its place: a session records
what it ran per backend in ``stats.backend_seconds``, holds no table, and
decides every product as a fresh session does.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.gnn import make_batched_gin
from repro.graph import induced_subgraphs
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.plan import PlanCache, static_backend
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


def plans(engine) -> list:
    return [engine.plan_cache.peek(key) for key in engine.plan_cache.keys()]


class TestOnlineFeedback:
    def test_executed_steps_feed_the_table(self, gin_model, subgraphs):
        # Every executed step's seconds land under its backend, and a warm
        # replay keeps adding to them.
        engine = InferenceEngine(gin_model, ServingConfig(feature_bits=8))
        engine.infer(subgraphs)
        ran = {name for plan in plans(engine) for name in plan.backends()}
        assert set(engine.stats.backend_seconds) == ran == {"blas"}
        cold = engine.stats.backend_seconds["blas"]
        engine.infer(subgraphs)
        assert engine.stats.backend_seconds["blas"] > cold

    def test_feedback_can_be_disabled(self, gin_model, subgraphs):
        # ``record_timings`` is read by nothing: off, a session compiles the
        # same plans and serves the same bits.
        on = InferenceEngine(gin_model, ServingConfig(feature_bits=8))
        off = InferenceEngine(gin_model, ServingConfig(feature_bits=8, record_timings=False))
        for want, got in zip(on.infer(subgraphs), off.infer(subgraphs)):
            np.testing.assert_array_equal(want.logits, got.logits)
        assert plans(on) == plans(off)

    def test_fixed_engine_session_has_no_table(self, gin_model, subgraphs):
        engine = InferenceEngine(gin_model, ServingConfig(feature_bits=8, engine="packed"))
        engine.infer(subgraphs)
        assert "table" not in engine.plan_artifacts.kinds()
        assert set(engine.stats.backend_seconds) == {"packed"}
        assert engine.dispatcher is not None

    def test_table_lives_in_the_plan_cache_table_segment(self, gin_model):
        # There is no such segment any more: the plan cache builds the
        # kinds it knows, and ``table`` is not one of them.
        engine = InferenceEngine(gin_model, ServingConfig(feature_bits=8))
        assert "table" not in PlanCache.KNOWN_KINDS
        assert set(engine.plan_artifacts.kinds()) <= PlanCache.KNOWN_KINDS

    def test_each_session_starts_with_an_empty_table(self, gin_model, subgraphs):
        # What one session served carries nothing into the next one's plans.
        config = ServingConfig(feature_bits=8, table_min_samples=3)
        first = InferenceEngine(gin_model, config)
        first.infer(subgraphs)
        first.infer(subgraphs)
        second = InferenceEngine(gin_model, config)
        second.infer(subgraphs)
        assert plans(second) == plans(first)
        assert second.dispatcher is not first.dispatcher

    def test_config_rejects_bad_table_settings(self):
        # A field nothing reads has no bad value; a config that names no
        # engine still fails.
        assert ServingConfig(table_min_samples=0).table_min_samples == 0
        with pytest.raises(ConfigError, match="engine must be"):
            ServingConfig(engine="cost")


class TestMeasuredRouting:
    def test_session_prices_from_its_own_confident_cells(self, gin_model, subgraphs):
        # A warm session decides every step it ran as the rule does.
        engine = InferenceEngine(gin_model, ServingConfig(feature_bits=8, batch_size=4))
        engine.infer(subgraphs)
        engine.infer(subgraphs)
        for plan in plans(engine):
            for step in plan.gemm_steps():
                s = step.spec
                decision = engine.dispatcher.decide(s.m, s.k, s.n, s.bits_a, s.bits_b)
                assert decision.engine == step.backend == static_backend(
                    s.m, s.k, s.n, s.bits_a, s.bits_b
                )

    def test_table_samples_only_backends_the_session_ran(self, gin_model, subgraphs):
        # Nothing explores: only backends of executed steps are timed.
        engine = InferenceEngine(gin_model, ServingConfig(feature_bits=8))
        engine.infer(subgraphs)
        ran = {name for plan in plans(engine) for name in plan.backends()}
        assert set(engine.stats.backend_seconds) == ran
        assert "packed" not in engine.stats.backend_seconds

    def test_fresh_session_prices_analytically(self, gin_model):
        engine = InferenceEngine(gin_model, ServingConfig(feature_bits=8))
        dispatcher = engine.dispatcher
        reference = CostModelDispatcher(
            blas_bytes_budget=dispatcher.blas_bytes_budget,
            rates=dispatcher.rates,
            registry=dispatcher.registry,
        )
        for shape in [(64, 64, 16, 1, 8), (256, 16, 16, 8, 8), (512, 512, 64, 8, 8)]:
            assert dispatcher.decide(*shape) == reference.decide(*shape)

    def test_sessions_sharing_a_calibration_serve_identical_logits(self, gin_model, subgraphs):
        producer = InferenceEngine(gin_model, ServingConfig(feature_bits=8))
        expected = producer.infer(subgraphs)
        producer.infer(subgraphs)
        fresh = InferenceEngine(
            gin_model, ServingConfig(feature_bits=8), calibration=producer.calibration
        )
        for want, got in zip(expected, fresh.infer(subgraphs)):
            np.testing.assert_array_equal(want.logits, got.logits)

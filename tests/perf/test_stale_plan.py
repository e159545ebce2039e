"""Plan staleness under static dispatch.

A compiled plan freezes the static rule's answers, and the rule reads
nothing a session learns, so a frozen decision never goes stale:
``stale_plans()`` and ``invalidate_stale_plans()`` stay for
``benchmarks/e2e`` and answer ``[]``.  What still moves a decision is the
quarantined set (and the registry): a plan compiled after ``blas`` is
quarantined binds a fresh template once, with bit-identical logits.  The
tests keep the names of the stale-plan scan's and its invalidation's.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.perf
from repro.gnn import make_batched_gin
from repro.graph import induced_subgraphs
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.serving import BackendHealth, InferenceEngine, ServingConfig


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


def tamper(engine) -> None:
    """Time every cached step's other backend as the cheapest."""
    dispatcher = engine.dispatcher
    for key in engine.plan_cache.keys():
        for step in engine.plan_cache.peek(key).gemm_steps():
            other = "packed" if step.backend != "packed" else "blas"
            for _ in range(8):
                dispatcher.record_timing(step.spec, other, 1e-9)
                dispatcher.record_timing(step.spec, step.backend, 1.0)


class TestDetection:
    def test_fresh_session_has_no_stale_plans(self, model, subgraphs):
        engine = InferenceEngine(
            model,
            ServingConfig(feature_bits=8, batch_size=4, record_timings=False),
        )
        engine.infer(subgraphs)
        assert engine.stale_plans() == []

    def test_diverged_table_reports_every_step(self, model, subgraphs):
        # Timings favouring the other backend on every step diverge no
        # step: each frozen backend is still the rule's answer.
        engine = InferenceEngine(model, ServingConfig(feature_bits=8, batch_size=4))
        engine.infer(subgraphs)
        tamper(engine)
        steps = 0
        for key in engine.plan_cache.keys():
            for step in engine.plan_cache.peek(key).gemm_steps():
                s = step.spec
                assert engine.dispatcher.decide(s.m, s.k, s.n, s.bits_a, s.bits_b).engine == step.backend
                steps += 1
        assert steps == 6 * len(engine.plan_cache)  # 3 layers x 2 GEMMs
        assert engine.stale_plans() == []

    def test_scan_is_read_only(self, model, subgraphs):
        engine = InferenceEngine(model, ServingConfig(feature_bits=8, batch_size=4))
        engine.infer(subgraphs)
        tamper(engine)
        before = (engine.plan_cache.stats.snapshot(), engine.plan_cache.keys())
        engine.stale_plans()
        after = engine.plan_cache.stats.snapshot()
        assert (after.hits, after.misses) == (before[0].hits, before[0].misses)
        assert engine.plan_cache.keys() == before[1]

    def test_scan_is_deterministic(self, model, subgraphs):
        engine = InferenceEngine(model, ServingConfig(feature_bits=8, batch_size=4))
        engine.infer(subgraphs)
        tamper(engine)
        assert engine.stale_plans() == engine.stale_plans() == []

    def test_non_cost_dispatch_has_nothing_to_scan(self, model, subgraphs):
        engine = InferenceEngine(model, ServingConfig(feature_bits=8, engine="packed"))
        engine.infer(subgraphs)
        assert engine.stale_plans() == []

    def test_perf_pass_wraps_the_scan(self):
        # The pass that wrapped the scan went with it; the PAG passes stay.
        assert not hasattr(repro.perf, "stale_plan")
        assert {"hotspot", "imbalance", "cache_thrash"} <= set(repro.perf.__all__)


class TestInvalidation:
    def test_recompiles_exactly_once_with_bit_identical_logits(self, model, subgraphs):
        # Quarantining blas is what moves a decision now: replayed after the
        # plans are dropped, each node count compiles one template on packed,
        # and the logits keep their bits.
        health = BackendHealth(quarantine_after=1, probe_after_s=3600.0)
        engine = InferenceEngine(
            model, ServingConfig(feature_bits=8, batch_size=4), health=health
        )
        expected = engine.infer(subgraphs)
        templates = engine.plan_artifacts.segment("template")
        shapes = len(templates)
        health.record_failure("blas")
        engine.plan_cache.clear()

        misses = templates.stats.misses
        replayed = engine.infer(subgraphs)
        assert templates.stats.misses == misses + shapes
        for key in engine.plan_cache.keys():
            assert engine.plan_cache.peek(key).backends() == ("packed",)
        engine.plan_cache.clear()
        again = engine.infer(subgraphs)
        assert templates.stats.misses == misses + shapes
        for want, got in zip(expected, replayed):
            assert np.array_equal(want.logits, got.logits)
        for want, got in zip(expected, again):
            assert np.array_equal(want.logits, got.logits)

    def test_invalidation_purges_the_plan_templates(self, model, subgraphs):
        # Nothing is stale, so invalidation purges no template: a replay
        # after it binds the ones held.
        engine = InferenceEngine(model, ServingConfig(feature_bits=8, batch_size=4))
        engine.infer(subgraphs)
        templates = engine.plan_artifacts.segment("template")
        held = templates.keys()
        assert held
        tamper(engine)
        assert engine.invalidate_stale_plans() == []
        assert templates.keys() == held and templates.stats.invalidations == 0
        misses = templates.stats.misses
        engine.plan_cache.clear()
        engine.infer(subgraphs)
        assert templates.stats.misses == misses

    def test_idempotent_when_nothing_is_stale(self, model, subgraphs):
        engine = InferenceEngine(model, ServingConfig(feature_bits=8, batch_size=4))
        engine.infer(subgraphs)
        plans = engine.plan_cache.keys()
        assert engine.invalidate_stale_plans() == engine.invalidate_stale_plans() == []
        assert engine.plan_cache.keys() == plans
        assert engine.plan_cache.stats.invalidations == 0

"""Tuned-plan invalidation: detection, determinism, bit-identity.

The adaptive loop under test: a compiled plan freezes dispatch
decisions; the dispatch table keeps learning; ``stale_plans()`` reports
the divergence; ``invalidate_stale_plans()`` drops the stale plans so
the next replay recompiles — exactly once per plan, with bit-identical
logits, counted in ``stats.plans_invalidated``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gnn import make_batched_gin
from repro.graph import induced_subgraphs
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.perf import stale_plan
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


def tamper_table(engine, prefer: str = None) -> str:
    """Feed fake timings that flip the tuned pick of every cached plan's
    GEMM away from its frozen backend; returns the preferred backend."""
    table = engine.dispatch_table
    plan_segment = engine.plan_cache
    adjacency_segment = engine.adjacency_cache
    frozen = set()
    steps = []
    for key in plan_segment.keys():
        plan = plan_segment.peek(key)
        adjacency = adjacency_segment.peek(
            plan.layers[0].aggregate.pack_a.cache_key
        )
        for layer in plan.layers:
            for step in (layer.aggregate, layer.update):
                frozen.add(step.backend)
                fraction = (
                    adjacency.nonzero_fraction
                    if step.spec.role == "aggregate"
                    else None
                )
                steps.append((step, fraction))
    prefer = prefer or ("codegen" if "codegen" not in frozen else "packed")
    for step, fraction in steps:
        for _ in range(8):  # past min_samples, drowning real feedback
            table.record_spec(step.spec, prefer, 1e-9, tile_fraction=fraction)
            table.record_spec(
                step.spec, step.backend, 1.0, tile_fraction=fraction
            )
    return prefer


class TestDetection:
    def test_fresh_session_has_no_stale_plans(self, model, subgraphs):
        # No timing feedback: with it, one pre-empted GEMM is enough for
        # the table to out-price a frozen pick, and "fresh" would depend
        # on the host's scheduler.
        engine = InferenceEngine(
            model,
            ServingConfig(feature_bits=8, batch_size=4, record_timings=False),
        )
        engine.infer(subgraphs)
        assert engine.stale_plans() == []

    def test_diverged_table_reports_every_step(self, model, subgraphs):
        engine = InferenceEngine(
            model, ServingConfig(feature_bits=8, batch_size=4)
        )
        engine.infer(subgraphs)
        prefer = tamper_table(engine)
        stale = engine.stale_plans()
        assert len(stale) == len(engine.plan_cache)
        for entry in stale:
            # 3 layers x 2 GEMMs, every one diverged to the tampered pick.
            assert len(entry.divergences) == 6
            for site, frozen, tuned in entry.divergences:
                assert tuned == prefer
                assert frozen != prefer
                assert site[0] == "L" and site[-3:] in ("agg", "upd")

    def test_scan_is_read_only(self, model, subgraphs):
        engine = InferenceEngine(
            model, ServingConfig(feature_bits=8, batch_size=4)
        )
        engine.infer(subgraphs)
        tamper_table(engine)
        before = (
            engine.plan_cache.stats.snapshot(),
            engine._engine.tile_fraction,
            engine._engine._observed_nodes,
        )
        engine.stale_plans()
        after = engine.plan_cache.stats.snapshot()
        # peek() counts nothing: lookups, recency and dispatch state are
        # exactly as the scan found them.
        assert (after.hits, after.misses) == (before[0].hits, before[0].misses)
        assert engine._engine.tile_fraction == before[1]
        assert engine._engine._observed_nodes == before[2]

    def test_scan_is_deterministic(self, model, subgraphs):
        # Two consecutive scans over an unchanged table agree.
        engine = InferenceEngine(
            model, ServingConfig(feature_bits=8, batch_size=4)
        )
        engine.infer(subgraphs)
        tamper_table(engine)
        first = engine.stale_plans()
        second = engine.stale_plans()
        assert first == second

    def test_non_cost_dispatch_has_nothing_to_scan(self, model, subgraphs):
        engine = InferenceEngine(
            model, ServingConfig(feature_bits=8, engine="packed")
        )
        engine.infer(subgraphs)
        assert engine.stale_plans() == []

    def test_perf_pass_wraps_the_scan(self, model, subgraphs):
        engine = InferenceEngine(
            model, ServingConfig(feature_bits=8, batch_size=4)
        )
        engine.infer(subgraphs)
        assert stale_plan(engine).ok
        tamper_table(engine)
        result = stale_plan(engine)
        assert not result.ok
        assert result.findings[0]["diverged_steps"] == 6


class TestInvalidation:
    def test_recompiles_exactly_once_with_bit_identical_logits(
        self, model, subgraphs
    ):
        engine = InferenceEngine(
            model, ServingConfig(feature_bits=8, batch_size=4)
        )
        expected = engine.infer(subgraphs)
        tamper_table(engine)
        plans = len(engine.plan_cache)
        invalidated = engine.invalidate_stale_plans()
        assert len(invalidated) == plans
        assert engine.stats.plans_invalidated == plans
        assert engine.plan_cache.stats.invalidations == plans
        # Invalidation is not eviction: the eviction counter is untouched.
        assert engine.plan_cache.stats.evictions == 0

        misses_before = engine.plan_cache.stats.misses
        replayed = engine.infer(subgraphs)
        # Each invalidated plan recompiled exactly once...
        assert engine.plan_cache.stats.misses == misses_before + plans
        # ...under the tampered table, so the new plans freeze new picks
        # and are no longer stale...
        assert engine.stale_plans() == []
        # ...and a further replay is pure cache traffic.
        final_misses = engine.plan_cache.stats.misses
        again = engine.infer(subgraphs)
        assert engine.plan_cache.stats.misses == final_misses
        # Backend choice is a schedule decision, never arithmetic: every
        # replay returns the original bits.
        for want, got in zip(expected, replayed):
            assert np.array_equal(want.logits, got.logits)
        for want, got in zip(expected, again):
            assert np.array_equal(want.logits, got.logits)

    def test_invalidation_purges_the_plan_templates(self, model, subgraphs):
        # Without the template purge, the recompile's miss would bind the
        # very backend picks that were just invalidated.
        engine = InferenceEngine(
            model, ServingConfig(feature_bits=8, batch_size=4)
        )
        engine.infer(subgraphs)
        templates = engine.plan_artifacts.segment("template")
        held = len(templates)
        assert held > 0
        prefer = tamper_table(engine)
        engine.invalidate_stale_plans()
        assert len(templates) == 0
        assert templates.stats.invalidations == held
        misses_before = templates.stats.misses
        engine.infer(subgraphs)
        # The recompiles re-price their templates in this session, under
        # the tampered table.
        assert templates.stats.misses > misses_before
        for key in templates.keys():
            for step in templates.peek(key).gemm_steps():
                assert step.backend == prefer

    def test_idempotent_when_nothing_is_stale(self, model, subgraphs):
        engine = InferenceEngine(
            model, ServingConfig(feature_bits=8, batch_size=4)
        )
        engine.infer(subgraphs)
        assert engine.invalidate_stale_plans() == []
        assert engine.stats.plans_invalidated == 0

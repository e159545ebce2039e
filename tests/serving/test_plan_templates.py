"""Plan templates: a structure miss binds, it does not recompile.

A compiled plan depends on its batch's structure only through the node
count and the adjacency key.  ``InferenceEngine.compile_plan`` therefore
decides the dispatch once per node count into a template held in the
verified ``template`` segment, and binds every plan from it
(``ExecutionPlan.retarget_adjacency``).  A bound plan must be exactly the
plan a fresh compile with the same frozen backends produces, and a
template must die with whatever its frozen decisions depend on: the
quarantined backends and the backend registry.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.dynamic import DynamicSession
from repro.faultinject import FaultPlan, FaultSpec
from repro.gnn import execute_forward_plan, make_batched_gin, make_cluster_gcn
from repro.gnn.quantized import ActivationCalibration
from repro.graph import induced_subgraphs
from repro.graph.batching import SubgraphBatch
from repro.graph.csr import CSRGraph
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.plan import ir
from repro.plan.registry import default_registry, register_backend, static_backend
from repro.serving import BackendHealth, InferenceEngine, ServingConfig
from repro.serving import engine as engine_module


@pytest.fixture
def subgraphs():
    g = planted_partition_graph(
        320, 1800, num_communities=8, feature_dim=12, num_classes=3,
        rng=np.random.default_rng(11),
    )
    return induced_subgraphs(g, metis_like_partition(g, 8))


@pytest.fixture
def same_shape(subgraphs):
    """Two distinct structures with one node count: the same members in
    reverse order have other tile boundaries, hence another census."""
    pair = [SubgraphBatch(members=tuple(subgraphs[:4])),
            SubgraphBatch(members=tuple(subgraphs[:4][::-1]))]
    engine = InferenceEngine(make_cluster_gcn(12, 3), ServingConfig())
    fractions = [engine.packed_adjacency_for(b).nonzero_fraction for b in pair]
    assert fractions[0] != fractions[1]
    return pair


@pytest.fixture
def work(monkeypatch):
    """Counts of dispatch decisions and plan compilation."""
    counts = {"dispatch": 0, "compile_forward_plan": 0}

    def counting(name, real):
        def spy(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return spy

    monkeypatch.setattr(
        engine_module, "static_backend", counting("dispatch", static_backend)
    )
    monkeypatch.setattr(
        engine_module, "compile_forward_plan",
        counting("compile_forward_plan", ir.compile_forward_plan),
    )
    return counts


def templates(engine):
    return engine.plan_artifacts.segment("template")


def only_template(engine):
    (key,) = templates(engine).keys()
    return templates(engine).peek(key)


# --------------------------------------------------------------------- #
# Bind equals compile
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("bits", [1, 4, 8])
@pytest.mark.parametrize(
    "make_model",
    [make_cluster_gcn, lambda d, c: make_batched_gin(d, c, hidden_dim=16)],
    ids=["gcn", "gin"],
)
def test_a_bound_plan_is_a_fresh_compile_of_its_frozen_backends(
    make_model, bits, same_shape
):
    model = make_model(12, 3)
    assert model.aggregate_first == (model.kind == "gcn")
    calibration = ActivationCalibration()
    engine = InferenceEngine(
        model, ServingConfig(feature_bits=bits, batch_size=4), calibration=calibration
    ).warm_up()
    plans = [engine.plan_for(batch) for batch in same_shape]
    adjacency_keys = engine.adjacency_cache.keys()  # in first-sight order
    assert engine.plan_cache.stats.misses == 2
    assert (templates(engine).stats.misses, templates(engine).stats.hits) == (1, 1)
    template = only_template(engine)
    assert template.adjacency_keys() == ()

    for batch, plan, adjacency_key in zip(same_shape, plans, adjacency_keys):
        frozen = iter(
            [step.backend for layer in template.layers
             for step in (layer.aggregate, layer.update)]
        )
        fresh = ir.compile_forward_plan(
            model,
            num_nodes=batch.num_nodes,
            feature_bits=bits,
            weight_bits=bits,
            engine=lambda *_: next(frozen),
            weight_key=engine.weight_key,
            adjacency_key=adjacency_key,
        )
        assert plan == fresh
        assert plan.digest == fresh.digest
        assert plan.adjacency_keys() == fresh.adjacency_keys() != ()
        adjacency = engine.packed_adjacency_for(batch)
        bound, compiled = (
            execute_forward_plan(
                p, model, batch,
                packed_weights=engine.packed_weights(),
                packed_adjacency=adjacency,
                calibration=calibration,
            )
            for p in (plan, fresh)
        )
        np.testing.assert_array_equal(bound.logits, compiled.logits)
        assert bound.counters == compiled.counters
        assert bound.total_counters.tiles_skipped == compiled.total_counters.tiles_skipped


# --------------------------------------------------------------------- #
# Lifecycle: a template dies with what its decisions depend on
# --------------------------------------------------------------------- #
def test_invalidation_drops_every_template_and_the_next_miss_reprices(
    same_shape, work
):
    # Stale-plan invalidation once dropped the templates; a static decision
    # never goes stale, so timings favouring the other backend drop none,
    # and the next miss binds with no dispatch call.
    model = make_batched_gin(12, 3, hidden_dim=16)
    engine = InferenceEngine(
        model, ServingConfig(feature_bits=8, batch_size=4, record_timings=False)
    ).warm_up()
    first, second = same_shape
    for step in engine.plan_for(first).gemm_steps():
        engine.dispatcher.record_timing(step.spec, "packed", 1e-9)
    assert engine.invalidate_stale_plans() == []
    assert len(templates(engine)) == 1 and templates(engine).stats.invalidations == 0
    work.update(dispatch=0, compile_forward_plan=0)
    assert engine.plan_for(second).backends() == ("blas",)
    assert work == {"dispatch": 0, "compile_forward_plan": 0}


def test_invalidation_drops_templates_even_when_nothing_is_stale(same_shape, work):
    # It drops nothing at all now: templates go only with the quarantined
    # set or the registry they were decided under.
    engine = InferenceEngine(
        make_cluster_gcn(12, 3), ServingConfig(record_timings=False)
    )
    engine.plan_for(same_shape[0])
    held = templates(engine).keys()
    assert engine.invalidate_stale_plans() == []
    assert templates(engine).keys() == held
    work.update(dispatch=0, compile_forward_plan=0)
    engine.plan_for(same_shape[1])
    assert work == {"dispatch": 0, "compile_forward_plan": 0}


def test_a_backend_quarantined_after_the_template_is_not_bound(same_shape, work):
    now = [0.0]
    health = BackendHealth(quarantine_after=1, clock=lambda: now[0])
    engine = InferenceEngine(
        make_batched_gin(12, 3, hidden_dim=16),
        ServingConfig(feature_bits=8, record_timings=False),
        health=health,
    )
    first, second = same_shape
    frozen = engine.plan_for(first).backends()
    assert frozen == ("blas",)
    health.record_failure("blas")
    assert health.quarantined() == ("blas",)

    work.update(dispatch=0, compile_forward_plan=0)
    plan = engine.plan_for(second)
    assert work["compile_forward_plan"] == 1
    assert plan.backends() == ("packed",)
    assert len(templates(engine)) == 2  # one per quarantined set

    now[0] = 100.0  # the circuit half-opens: the first template serves again
    work.update(dispatch=0, compile_forward_plan=0)
    engine.plan_cache.clear()
    assert engine.plan_for(first).backends() == frozen
    assert work == {"dispatch": 0, "compile_forward_plan": 0}


def test_registering_a_backend_compiles_fresh(same_shape, work):
    engine = InferenceEngine(
        make_cluster_gcn(12, 3), ServingConfig(feature_bits=4, record_timings=False)
    )
    first, second = same_shape
    frozen = engine.plan_for(first).backends()
    twin = register_backend(replace(default_registry().get("packed"), name="packed-twin"))
    try:
        work.update(dispatch=0, compile_forward_plan=0)
        plan = engine.plan_for(second)
        assert work["compile_forward_plan"] == 1
        assert plan.backends() == frozen  # the rule never picks the twin
    finally:
        default_registry().unregister(twin.name)
    engine.plan_cache.clear()
    work.update(dispatch=0, compile_forward_plan=0)
    assert engine.plan_for(second).backends() == frozen
    assert work["compile_forward_plan"] == 1
    assert len(templates(engine)) == 3


def test_a_cache_fault_on_a_template_counts_poisoned_and_recompiles(
    same_shape, work
):
    # The template hit of the second structure is the ``cache`` site's
    # first probe.
    faults = FaultPlan(seed=0, specs=[FaultSpec("cache", at=(0,))])
    model = make_cluster_gcn(12, 3)
    calibration = ActivationCalibration()
    config = ServingConfig(engine="blas", batch_size=4)
    engine = InferenceEngine(
        model, config, calibration=calibration, fault_plan=faults
    ).warm_up()
    clean = InferenceEngine(model, config, calibration=calibration).warm_up()
    for batch in same_shape:
        got = engine.infer(batch.members)
        for want, result in zip(clean.infer(batch.members), got):
            np.testing.assert_array_equal(want.logits, result.logits)
    (event,) = faults.events
    assert event.detail.startswith("('template',")
    stats = templates(engine).stats
    assert (stats.poisoned, stats.misses, stats.hits) == (1, 2, 0)
    assert work["compile_forward_plan"] == 2 + 1  # two here, one in ``clean``


def sparse_feature_graph():
    rng = np.random.default_rng(0)
    return CSRGraph.from_edges(
        320,
        rng.integers(0, 320, size=(60, 2)),
        features=rng.standard_normal((320, 8)).astype(np.float32),
    )


def test_a_dynamic_recompile_binds_within_a_band(work):
    graph = sparse_feature_graph()
    session = DynamicSession(
        make_cluster_gcn(8, 4, seed=1), graph, ServingConfig(record_timings=False)
    )
    session.serve()
    assert work["compile_forward_plan"] == 1
    assert (session.stats.plans_recompiled, session.stats.plans_patched) == (1, 0)
    # An edge inside a diagonal tile: the census is unchanged.
    work.update(dispatch=0, compile_forward_plan=0)
    session.mutate([("insert", 0, 1)])
    assert (session.stats.plans_recompiled, session.stats.plans_patched) == (1, 1)
    assert work == {"dispatch": 0, "compile_forward_plan": 0}
    assert templates(session.engine).stats.hits == 1
    session.serve()
    # Deleting every edge leaves the diagonal tiles: a census band sparser,
    # and still the one template.
    before = session.mutable.nonzero_fraction
    edges = [(u, int(v)) for u in range(graph.num_nodes)
             for v in graph.indices[graph.indptr[u]:graph.indptr[u + 1]]]
    session.mutate([("delete", u, v) for u, v in edges])
    assert session.mutable.nonzero_fraction < before / 2
    assert (session.stats.plans_recompiled, session.stats.plans_patched) == (1, 2)
    assert work == {"dispatch": 0, "compile_forward_plan": 0}
    assert len(templates(session.engine)) == 1
    session.serve()
    assert session.stats.stale_kernel_hits == 0


def test_a_dynamic_mutation_never_binds_a_quarantined_backend():
    health = BackendHealth(quarantine_after=1, clock=lambda: 0.0)
    engine = InferenceEngine(
        make_cluster_gcn(8, 4, seed=1), ServingConfig(record_timings=False),
        health=health,
    )
    session = DynamicSession(engine.model, sparse_feature_graph(), engine=engine)
    session.serve()
    frozen = engine.plan_artifacts.segment("plan").peek(session.plan_key()).backends()
    assert frozen == ("blas",)
    health.record_failure("blas")
    assert health.quarantined() == ("blas",)

    session.mutate([("insert", 0, 1)])
    live = engine.plan_artifacts.segment("plan").peek(session.plan_key())
    assert live.backends() == ("packed",)
    session.serve()
    assert session.stats.stale_kernel_hits == 0


# --------------------------------------------------------------------- #
# Sizing: derived from the node budget, not a knob
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("max_batch_nodes, capacity", [(4096, 512), (100, 12), (3, 1)])
def test_template_capacity_follows_the_node_budget(max_batch_nodes, capacity):
    engine = InferenceEngine(
        make_cluster_gcn(12, 3), ServingConfig(max_batch_nodes=max_batch_nodes)
    )
    assert templates(engine).capacity == capacity

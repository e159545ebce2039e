"""Recovery and sharing on bound steps.

A warm round replays its bound program under one guard: each step's
primary attempt runs inline with the ``kernel`` fault site probed before
it, and a step whose attempt raised is handed to ``StepRecovery``, which
probes the site again before each fallback attempt.  A pool shard binds
its plans from its own ``template`` segment and its programs on its own
adjacency — nothing is bound onto a plan itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faultinject import FaultPlan, FaultSpec
from repro.gnn import make_batched_gin
from repro.gnn.quantized import ActivationCalibration
from repro.graph import induced_subgraphs
from repro.graph.batching import SubgraphBatch
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.serving import (
    BackendHealth,
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
def model():
    return make_batched_gin(12, 3, hidden_dim=16, seed=3)


def test_a_fault_on_a_bound_step_recovers_bit_identically(model, subgraphs):
    """Warm a round, then let a seeded ``kernel`` fault hit its next replay:
    the step recovers on ``packed``, the logits are the warm round's, and
    the recovery shows in ``forward.recoveries``, the timings, the step
    retries and the shared health record."""
    steps = 2 * model.num_layers
    warm_rounds = 2
    faults = FaultPlan(seed=0, specs=[FaultSpec("kernel", at=(warm_rounds * steps,))])
    health = BackendHealth()
    engine = InferenceEngine(
        model, ServingConfig(feature_bits=8, engine="blas", batch_size=4),
        health=health, fault_plan=faults,
    ).warm_up()
    batch = SubgraphBatch(members=tuple(subgraphs[:4]))
    adjacency = engine.packed_adjacency_for(batch)
    plan = engine.plan_for(batch, adjacency=adjacency)
    warm = [engine.run_round(batch, adjacency, plan) for _ in range(warm_rounds)]
    program = adjacency.derived["program"]
    assert faults.fires("kernel") == 0 and warm[-1].program is program

    forward = engine.run_round(batch, adjacency, plan)
    assert forward.program is program  # still the bound program
    assert faults.fires("kernel") == 1
    # Every attempt probes the site: the failed one plus its fallback.
    assert faults.probes("kernel") == (warm_rounds + 1) * steps + 1
    assert forward.recoveries == (("update/L0", "blas", "packed"),)
    assert [t.backend for t in forward.timings] == ["packed"] + ["blas"] * (steps - 1)
    assert engine.stats.step_retries == 1
    assert health.snapshot()["failures"] == 1
    np.testing.assert_array_equal(forward.logits, warm[-1].logits)
    assert forward.counters == warm[-1].counters

    again = engine.run_round(batch, adjacency, plan)  # and the next replay is clean
    assert again.recoveries == () and faults.fires("kernel") == 1
    np.testing.assert_array_equal(again.logits, warm[-1].logits)


@pytest.mark.timeout(120)
def test_a_non_home_shard_binds_from_its_own_template(model, subgraphs):
    """A request forced onto the shard its structure does not route to
    misses that shard's ``plan`` segment once and binds the plan from the
    shard's own ``template`` segment, and its program on the shard's own
    adjacency: every reply, on either shard, is the single engine's logits
    bit for bit."""
    calibration = ActivationCalibration()
    config = ServingConfig(feature_bits=8, batch_size=1)
    single = InferenceEngine(model, config, calibration=calibration)
    expected = single.infer([subgraphs[0]])[0].logits
    with ServingPool(
        model, config, pool=PoolConfig(workers=2), calibration=calibration
    ) as pool:
        home = pool.shard_of(subgraphs[0])
        replies = [
            pool.submit(subgraphs[0], shard=shard).result(timeout=30)
            for shard in (home, 1 - home) * 3
        ]
        batch = SubgraphBatch(members=(subgraphs[0],))
        adjacencies = [w.packed_adjacency_for(batch) for w in pool.workers]
        plans = [
            w.plan_for(batch, adjacency=a)
            for w, a in zip(pool.workers, adjacencies)
        ]
        artifacts = [w.plan_artifacts for w in pool.workers]
    for plan, cache in zip(plans, artifacts):
        assert cache.segment("plan").stats.misses == 1
        templates = cache.segment("template")
        assert templates.stats.misses == 1
        (key,) = templates.keys()
        template = templates.peek(key)
        for step, source in zip(plan.gemm_steps(), template.gemm_steps()):
            assert step.derived is source.derived  # bound from this template
    assert plans[0] is not plans[1]
    first, second = (plan.layers[0].aggregate.derived for plan in plans)
    assert first is not second
    programs = [a.derived["program"] for a in adjacencies]
    assert programs[0] is not programs[1]
    assert all(p.key[0] is plan for p, plan in zip(programs, plans))
    for plan in plans:
        assert "program" not in vars(plan)
    for logits in replies:
        np.testing.assert_array_equal(logits, expected)

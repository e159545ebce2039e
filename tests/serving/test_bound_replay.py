"""Recovery and sharing on bound steps.

A warm round replays its bound program, yet each step still runs under its
``StepRecovery`` wrapper with the ``kernel`` fault site probed on every
attempt, and a plan that pool shards share through the ``PlanExchange`` is
bound per shard, on each shard's own adjacency — nothing is bound onto
the plan itself.
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
def test_pool_shards_bind_one_shared_plan_on_their_own(model, subgraphs):
    """Two thread shards adopt one plan through the ``PlanExchange`` and each
    binds it on its own adjacency: every replay, on either shard, serves the
    single engine's logits bit for bit."""
    calibration = ActivationCalibration()
    config = ServingConfig(feature_bits=8, batch_size=1)
    single = InferenceEngine(model, config, calibration=calibration)
    expected = single.infer([subgraphs[0]])[0].logits
    with ServingPool(
        model, config, pool=PoolConfig(workers=2, shard_policy="round-robin"),
        calibration=calibration,
    ) as pool:
        replies = [pool.serve([subgraphs[0]])[0] for _ in range(6)]
        stats = pool.stats()
        w0, w1 = pool.workers
        batch = SubgraphBatch(members=(subgraphs[0],))
        adjacencies = [w.packed_adjacency_for(batch) for w in (w0, w1)]
        plans = [w.plan_for(batch, adjacency=a) for w, a in zip((w0, w1), adjacencies)]
    assert {reply.worker for reply in replies} == {"w0", "w1"}
    assert stats.plans_adopted >= 1
    assert plans[0] is plans[1]  # one plan object, adopted
    assert adjacencies[0] is not adjacencies[1]
    programs = [a.derived["program"] for a in adjacencies]
    assert programs[0] is not programs[1]
    assert all(program.key[0] is plans[0] for program in programs)
    assert "program" not in vars(plans[0])
    for reply in replies:
        np.testing.assert_array_equal(reply.logits, expected)

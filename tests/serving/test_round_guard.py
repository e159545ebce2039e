"""A warm round's attempts run inline under one guard, and a seeded
``kernel`` fault still sees the per-step recovery it always saw.

Each step's primary attempt is made in the executor's loop; a raise hands
that step to ``StepRecovery``, which goes on along its fallback chain.  The
property below arms ``FaultSpec("kernel", at=...)`` on the primary probes
of a warm three-round stream and checks everything a fault plan can
observe against a per-step reference computed here: the logits (those of
the fault-free stream, bit for bit), each round's recoveries and timings,
the probe sequence and the fired events' details, the step retries and
the shared health record's counters.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultinject import FaultPlan, FaultSpec
from repro.gnn import make_batched_gin, make_cluster_gcn
from repro.graph import induced_subgraphs
from repro.graph.batching import SubgraphBatch
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.serving import BackendHealth, InferenceEngine, ServingConfig

#: The two models the stream covers: 8-bit batched GIN, 1-bit cluster GCN
#: (whose ``blas`` aggregates gather their product in the native tail).
MODELS = {
    "gin8": (lambda: make_batched_gin(12, 3, hidden_dim=16, seed=3), 8),
    "gcn1": (lambda: make_cluster_gcn(12, 3, seed=4), 1),
}


@lru_cache(maxsize=None)
def _batches() -> tuple[SubgraphBatch, ...]:
    g = planted_partition_graph(
        192, 1200, num_communities=8, feature_dim=12, num_classes=3,
        rng=np.random.default_rng(17),
    )
    members = induced_subgraphs(g, metis_like_partition(g, 8))
    return tuple(SubgraphBatch(members=tuple(members[i : i + 2])) for i in range(0, 6, 2))


def _stream(name: str, faults: FaultPlan, health: BackendHealth):
    """An engine that has bound a plan for each batch (one binding round
    each), then its three-round warm stream: ``(engine, forwards)``."""
    model, bits = MODELS[name]
    engine = InferenceEngine(
        model(), ServingConfig(feature_bits=bits, engine="blas", batch_size=2),
        health=health, fault_plan=faults,
    )
    rounds = []
    for batch in _batches():
        adjacency = engine.packed_adjacency_for(batch)
        plan = engine.plan_for(batch, adjacency=adjacency)
        assert engine.run_round(batch, adjacency, plan).binding
        rounds.append((batch, adjacency, plan))
    forwards = [engine.run_round(*r) for r in rounds]
    assert not any(f.binding for f in forwards)
    return engine, forwards


@lru_cache(maxsize=None)
def _fault_free(name: str):
    """The fault-free stream's logits and its steps' labels."""
    _, forwards = _stream(name, FaultPlan(seed=0), BackendHealth())
    labels = tuple(b.label for b in forwards[0].program.steps)
    assert all(tuple(b.label for b in f.program.steps) == labels for f in forwards)
    assert all(b.step.backend == "blas" for f in forwards for b in f.program.steps)
    return [f.logits for f in forwards], labels


@settings(max_examples=40)
@given(name=st.sampled_from(sorted(MODELS)), data=st.data())
def test_kernel_faults_on_primary_attempts_recover_as_per_step(name, data):
    want, labels = _fault_free(name)
    steps = len(labels)
    warm = len(_batches()) * steps  # the binding rounds' probes, none fired
    hits = sorted(data.draw(st.sets(st.integers(0, 3 * steps - 1), max_size=3 * steps)))
    # The k-th hit's primary probe comes after the k fallback probes before it.
    faults = FaultPlan(seed=0, specs=[FaultSpec("kernel", at=[warm + j + k for k, j in enumerate(hits)])])
    health = BackendHealth()
    engine, forwards = _stream(name, faults, health)

    # The per-step reference: the binding rounds' successes, then each step
    # of the stream either its primary's success or a primary failure and
    # the ``packed`` fallback's success.
    reference = BackendHealth()
    for _ in range(warm):
        reference.record_success("blas")
    for j in range(3 * steps):
        if j in hits:
            reference.record_failure("blas")
            reference.record_success("packed")
        else:
            reference.record_success("blas")

    for r, forward in enumerate(forwards):
        hit = [j - r * steps for j in hits if j // steps == r]
        np.testing.assert_array_equal(forward.logits.view(np.uint64), want[r].view(np.uint64))
        assert forward.recoveries == tuple((labels[s], "blas", "packed") for s in hit)
        assert [t.backend for t in forward.timings] == [
            "packed" if s in hit else "blas" for s in range(steps)
        ]
    assert faults.probes("kernel") == warm + 3 * steps + len(hits)
    assert [e.detail for e in faults.events] == [f"{labels[j % steps]}:blas" for j in hits]
    assert engine.stats.step_retries == len(hits)
    assert health.snapshot() == reference.snapshot()

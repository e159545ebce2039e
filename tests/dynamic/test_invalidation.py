"""Cache-invalidation contract: mutated structure can never be served stale.

Three layers of the invariant, each pinned separately:

* **keying** — the chained structure digest moves with every effective
  mutation, so pre-mutation adjacency/plan/kernel keys cannot be *hit*;
* **eviction** — ``mutate()`` discards the superseded entries, including
  codegen ``kernel``-segment entries compiled against the pre-mutation
  census;
* **equivalence** — a *patched* plan (key-retargeted, no recompilation)
  serves logits bit-identical to a freshly compiled plan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen import census_digest, gemm_kernel_key
from repro.dynamic import DynamicSession, MutableGraph, PatchPolicy
from repro.gnn.models import make_cluster_gcn
from repro.graph.csr import CSRGraph
from repro.serving.engine import ServingConfig


def feature_graph(n=160, edges=420, seed=0, feature_dim=8):
    rng = np.random.default_rng(seed)
    return CSRGraph.from_edges(
        n,
        rng.integers(0, n, size=(edges, 2)),
        features=rng.standard_normal((n, feature_dim)).astype(np.float32),
    )


def make_session(n=160, seed=0, config=None, policy=None):
    graph = feature_graph(n=n, seed=seed)
    model = make_cluster_gcn(8, 4, seed=1)
    return DynamicSession(model, graph, config, policy=policy)


def fresh_edge(session, rng):
    """An (insert, u, v) the current structure does not contain."""
    n = session.mutable.num_nodes
    while True:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v and not session.mutable.has_edge(u, v):
            return ("insert", u, v)


def census_changing_edge(session):
    """A fresh edge whose insertion flips a zero tile in the census."""
    mutable = session.mutable
    mask = mutable.census_mask()
    for u in range(mutable.num_nodes):
        for v in range(u + 1, mutable.num_nodes):
            if mutable.has_edge(u, v):
                continue
            if not mask[u // 8, v // 128] or not mask[v // 8, u // 128]:
                return ("insert", u, v)
    raise AssertionError("census is fully dense; use a sparser graph")


def aggregate_kernel_key(session, adjacency):
    """The codegen kernel key of the plan's (first) censused aggregation."""
    plan = session.engine.plan_artifacts.segment("plan").peek(session.plan_key())
    assert plan is not None
    for step in plan.gemm_steps():
        spec = step.spec
        if spec.role == "aggregate" and spec.bits_a == 1:
            return gemm_kernel_key(
                m=spec.m,
                n=spec.n,
                bits_a=spec.bits_a,
                bits_b=spec.bits_b,
                a_padded_vectors=adjacency.packed.padded_vectors,
                a_k_words=adjacency.packed.k_words,
                tile_mask=adjacency.plan.masks[0],
            )
    raise AssertionError("plan has no censused aggregate step")


class TestKeying:
    def test_keys_move_with_digest(self):
        session = make_session()
        a0, p0 = session.adjacency_key(), session.plan_key()
        session.mutate([fresh_edge(session, np.random.default_rng(0))])
        assert session.adjacency_key() != a0
        assert session.plan_key() != p0
        assert session.adjacency_key()[:2] == ("adjacency", "dynamic")
        assert session.plan_key()[:2] == ("plan", "dynamic")

    def test_noop_mutation_keeps_keys(self):
        session = make_session()
        a0 = session.adjacency_key()
        session.mutate([("insert", 3, 3)])  # self-loop: no-op
        assert session.adjacency_key() == a0

    def test_census_digest_distinguishes_masks(self):
        mask = np.zeros((4, 2), dtype=bool)
        other = mask.copy()
        other[1, 1] = True
        assert census_digest(mask) != census_digest(other)
        assert census_digest(mask) == census_digest(mask.copy())
        assert census_digest(None) == "dense"

    def test_kernel_key_embeds_census_digest(self):
        mask = np.zeros((4, 2), dtype=bool)
        mutated = mask.copy()
        mutated[0, 0] = True
        base = dict(m=32, n=8, bits_a=1, bits_b=4,
                    a_padded_vectors=32, a_k_words=8)
        assert gemm_kernel_key(**base, tile_mask=mask) != gemm_kernel_key(
            **base, tile_mask=mutated
        )
        assert gemm_kernel_key(**base, tile_mask=mask) == gemm_kernel_key(
            **base, tile_mask=mask.copy()
        )


class TestEviction:
    def test_mutation_discards_superseded_plan_and_adjacency(self):
        session = make_session()
        session.serve()
        cache = session.engine.plan_artifacts
        a0, p0 = session.adjacency_key(), session.plan_key()
        assert cache.segment("adjacency").peek(a0) is not None
        assert cache.segment("plan").peek(p0) is not None
        session.mutate([fresh_edge(session, np.random.default_rng(1))])
        assert cache.segment("adjacency").peek(a0) is None
        assert cache.segment("plan").peek(p0) is None
        assert session.stats.adjacency_invalidated >= 1
        assert session.stats.plans_invalidated >= 1
        # The successors are resident under the new digest.
        assert cache.segment("adjacency").peek(session.adjacency_key()) is not None
        assert cache.segment("plan").peek(session.plan_key()) is not None

    def test_mutation_discards_stale_codegen_kernels(self):
        # Sparse graph: plenty of zero census tiles for the mutation to flip.
        graph = feature_graph(n=160, edges=60, seed=2)
        session = DynamicSession(
            make_cluster_gcn(8, 4, seed=1), graph, ServingConfig(engine="codegen")
        )
        session.serve()  # compiles kernels against the seed census
        cache = session.engine.plan_artifacts
        old_key = aggregate_kernel_key(session, session.mutable.snapshot())
        assert cache.segment("kernel").peek(old_key) is not None
        session.mutate([census_changing_edge(session)])
        assert cache.segment("kernel").peek(old_key) is None
        assert session.stats.kernels_invalidated >= 1
        # The post-mutation kernel key is different (census digest moved)
        # and serving recompiles under it without a stale hit.
        new_key = aggregate_kernel_key(session, session.mutable.snapshot())
        assert new_key != old_key
        session.serve()
        assert cache.segment("kernel").peek(new_key) is not None
        assert session.stats.stale_kernel_hits == 0

    def test_invalidate_is_idempotent(self):
        session = make_session()
        session.serve()
        session.mutate([fresh_edge(session, np.random.default_rng(4))])
        assert session.invalidate_mutated() == {
            "adjacency": 0, "plan": 0, "kernel": 0
        }


class TestPatchedEqualsFresh:
    def always_patch(self):
        return PatchPolicy(
            max_dirty_fraction=1.0, max_census_drift=1.0, pattern_limit=10**9
        )

    def test_patched_plan_serves_fresh_compile_logits(self):
        session = make_session(policy=self.always_patch())
        session.serve()  # seed compile
        rng = np.random.default_rng(5)
        for _ in range(3):
            session.mutate([fresh_edge(session, rng) for _ in range(2)])
        assert session.stats.plans_patched >= 3
        assert session.last_decision is not None and session.last_decision.patch
        served = session.serve()
        # A second session over the *mutated* structure compiles its plan
        # from scratch; shared calibration makes the logits bit-comparable.
        fresh = DynamicSession(
            session.engine.model,
            session.mutable.to_csr(),
            calibration=session.engine.calibration,
        )
        oracle = fresh.serve()
        np.testing.assert_array_equal(served.logits, oracle.logits)
        assert fresh.stats.plans_recompiled >= 1

    def test_forced_recompile_matches_patched(self):
        patched = make_session(policy=self.always_patch())
        recompiled = make_session(
            policy=PatchPolicy(max_dirty_fraction=0.0),
            # Same model seed + default calibration path on an identical
            # graph keeps the two sessions bit-comparable.
        )
        rng_a, rng_b = np.random.default_rng(6), np.random.default_rng(6)
        for session, rng in ((patched, rng_a), (recompiled, rng_b)):
            session.serve()
            session.mutate([fresh_edge(session, rng) for _ in range(3)])
        assert patched.stats.plans_patched >= 1
        assert recompiled.stats.plans_recompiled >= 2  # seed + forced
        np.testing.assert_array_equal(
            patched.serve().logits, recompiled.serve().logits
        )
        assert patched.stats.stale_kernel_hits == 0
        assert recompiled.stats.stale_kernel_hits == 0


class TestPatchPolicyThresholds:
    def test_dirty_fraction_forces_recompile(self):
        policy = PatchPolicy(max_dirty_fraction=0.05)
        decision = policy.decide(
            dirty_tiles=6, total_tiles=100,
            fraction_at_compile=0.5, fraction_now=0.5,
        )
        assert not decision.patch and "dirty" in decision.reason

    def test_census_drift_forces_recompile(self):
        policy = PatchPolicy(max_census_drift=0.02)
        decision = policy.decide(
            dirty_tiles=1, total_tiles=1000,
            fraction_at_compile=0.50, fraction_now=0.55,
        )
        assert not decision.patch and "drift" in decision.reason

    def test_pattern_boundary_forces_recompile(self):
        policy = PatchPolicy(pattern_limit=2)
        at_compile = np.zeros((4, 2), dtype=bool)
        at_compile[0] = (True, False)  # 1 live pattern
        now = at_compile.copy()
        now[1] = (False, True)
        now[2] = (True, True)  # 3 live patterns: crosses the limit of 2
        decision = policy.decide(
            dirty_tiles=1, total_tiles=1000,
            fraction_at_compile=0.5, fraction_now=0.5,
            mask_at_compile=at_compile, mask_now=now,
        )
        assert not decision.patch and "pattern" in decision.reason

    def test_small_quiet_mutation_patches(self):
        policy = PatchPolicy()
        decision = policy.decide(
            dirty_tiles=1, total_tiles=1000,
            fraction_at_compile=0.5, fraction_now=0.5001,
        )
        assert decision.patch

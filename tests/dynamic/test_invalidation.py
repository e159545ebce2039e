"""Cache-invalidation contract: mutated structure can never be served stale.

Four layers of the invariant, each pinned separately:

* **keying** — the chained structure digest moves with every effective
  mutation, so pre-mutation adjacency/plan keys cannot be *hit*, and a
  pair that bypasses the keying is caught by the serve-time census check;
* **eviction** — ``mutate()`` discards the superseded entries;
* **equivalence** — a *bound* plan (a template retargeted at the live
  key, no recompilation) serves logits bit-identical to a freshly
  compiled plan;
* **band rule** — a mutation keeps the node count, so it binds the
  template the seed compiled: how many tiles it dirties, which, or how
  far it moves the census is no reason to compile.
"""

from __future__ import annotations

import numpy as np

from repro.dynamic import DynamicSession
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


def make_session(n=160, seed=0, config=None):
    graph = feature_graph(n=n, seed=seed)
    model = make_cluster_gcn(8, 4, seed=1)
    return DynamicSession(model, graph, config)


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


def tile_emptying_edge(session):
    """A live edge whose deletion empties a tile of the census."""
    dense = session.mutable.to_csr().adjacency_dense() != 0
    for u, v in live_edges(session):
        for row, col in ((u, v), (v, u)):
            r, c = row // 8 * 8, col // 128 * 128
            if dense[r : r + 8, c : c + 128].sum() == 1:
                return ("delete", u, v)
    raise AssertionError("every tile holds two edges; use a sparser graph")


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

    def test_a_stale_operand_under_the_live_key_is_caught(self):
        # Sparse graph: plenty of zero census tiles for the mutation to flip.
        session = DynamicSession(
            make_cluster_gcn(8, 4, seed=1), feature_graph(n=160, edges=60, seed=2)
        )
        session.serve()
        stale = session.mutable.snapshot()
        session.mutate([census_changing_edge(session)])
        # Bypass the keying: the pre-mutation operand under the live key.
        session.engine.plan_artifacts.put(session.adjacency_key(), stale)
        served = session.serve().logits
        assert session.stats.stale_kernel_hits == 1
        np.testing.assert_array_equal(served, fresh_logits(session))
        session.serve()
        assert session.stats.stale_kernel_hits == 1

    def test_a_stale_operand_after_a_tile_emptying_delete_is_caught(self):
        # The census compare also catches a tile the live graph has
        # emptied but the stale snapshot still holds.
        session = DynamicSession(
            make_cluster_gcn(8, 4, seed=1), feature_graph(n=160, edges=60, seed=2)
        )
        session.serve()
        stale = session.mutable.snapshot()
        session.mutate([tile_emptying_edge(session)])
        assert stale.plan.masks[0].sum() > session.mutable.census_mask().sum()
        session.engine.plan_artifacts.put(session.adjacency_key(), stale)
        served = session.serve().logits
        assert session.stats.stale_kernel_hits == 1
        np.testing.assert_array_equal(served, fresh_logits(session))

    def test_a_stale_plan_under_the_live_key_is_caught(self):
        # A plan bound to the pre-mutation adjacency names a dead key.
        session = make_session()
        session.serve()
        segment = session.engine.plan_artifacts.segment("plan")
        stale = segment.peek(session.plan_key())
        session.mutate([fresh_edge(session, np.random.default_rng(6))])
        segment.put(session.plan_key(), stale)
        served = session.serve().logits
        assert session.stats.stale_kernel_hits == 1
        np.testing.assert_array_equal(served, fresh_logits(session))
        session.serve()
        assert session.stats.stale_kernel_hits == 1


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

    def test_invalidate_is_idempotent(self):
        session = make_session()
        session.serve()
        session.mutate([fresh_edge(session, np.random.default_rng(4))])
        assert session.invalidate_mutated() == {"adjacency": 0, "plan": 0}


class TestPatchedEqualsFresh:
    def test_patched_plan_serves_fresh_compile_logits(self):
        session = make_session()
        session.serve()  # seed compile
        rng = np.random.default_rng(5)
        for _ in range(3):
            session.mutate([fresh_edge(session, rng) for _ in range(2)])
        assert session.stats.plans_patched >= 3
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
        assert fresh.stats.plans_recompiled == 1

    def test_forced_recompile_matches_patched(self):
        bound = make_session()
        repriced = make_session()
        # Same model seed + default calibration path on an identical
        # graph keeps the two sessions bit-comparable.
        rng_a, rng_b = np.random.default_rng(6), np.random.default_rng(6)
        for session, rng in ((bound, rng_a), (repriced, rng_b)):
            session.serve()
            for _ in range(3):
                if session is repriced:
                    session.engine.plan_artifacts.segment("template").clear()
                session.mutate([fresh_edge(session, rng)])
        assert bound.stats.plans_patched == 3
        assert bound.stats.plans_recompiled == 1  # the seed
        assert repriced.stats.plans_recompiled == 4  # seed + every mutation
        np.testing.assert_array_equal(
            bound.serve().logits, repriced.serve().logits
        )
        assert bound.stats.stale_kernel_hits == 0
        assert repriced.stats.stale_kernel_hits == 0


def fresh_logits(session):
    """Logits of a new session over the live structure: its plan is
    compiled from scratch, and the shared calibration keeps the logits
    bit-comparable with ``session``'s."""
    fresh = DynamicSession(
        session.engine.model,
        session.mutable.to_csr(),
        session.engine.config,
        calibration=session.engine.calibration,
    )
    return fresh.serve().logits


def live_edges(session):
    """Every edge of the live structure, once, as ``(u, v)`` with u < v."""
    csr = session.mutable.to_csr()
    return [
        (u, int(v))
        for u in range(csr.num_nodes)
        for v in csr.indices[csr.indptr[u]:csr.indptr[u + 1]]
        if u < v
    ]


def templates_priced(session):
    return len(session.engine.plan_artifacts.segment("template"))


class TestBandRule:
    """No census band keys a template any more: every mutation binds."""

    def test_a_wide_mutation_within_its_band_binds(self):
        session = make_session()  # every census tile is live
        session.serve()
        tiles = session.mutable.census_mask().size
        rng = np.random.default_rng(7)
        delta = session.mutate([fresh_edge(session, rng) for _ in range(20)])
        assert len(delta.dirty_tiles) >= tiles // 4
        assert session.stats.plans_patched == 1
        assert session.stats.plans_recompiled == 1  # the seed
        assert templates_priced(session) == 1
        np.testing.assert_array_equal(session.serve().logits, fresh_logits(session))
        assert session.stats.stale_kernel_hits == 0

    def test_a_band_move_binds(self):
        session = DynamicSession(
            make_cluster_gcn(8, 4, seed=1), feature_graph(n=320, edges=60, seed=0)
        )
        session.serve()
        before = session.mutable.nonzero_fraction
        # Only the diagonal tiles of A + I stay live: a census band sparser.
        session.mutate([("delete", u, v) for u, v in live_edges(session)])
        assert session.mutable.nonzero_fraction < before / 2
        assert session.stats.plans_recompiled == 1  # the seed
        assert session.stats.plans_patched == 1
        assert templates_priced(session) == 1
        np.testing.assert_array_equal(session.serve().logits, fresh_logits(session))
        assert session.stats.stale_kernel_hits == 0

    def test_a_return_to_a_priced_band_binds(self):
        session = DynamicSession(
            make_cluster_gcn(8, 4, seed=1), feature_graph(n=320, edges=60, seed=0)
        )
        seeded = session.serve().logits
        edges = live_edges(session)
        session.mutate([("delete", u, v) for u, v in edges])
        session.mutate([("insert", u, v) for u, v in edges])
        assert session.stats.plans_recompiled == 1  # the seed
        assert session.stats.plans_patched == 2
        assert templates_priced(session) == 1
        np.testing.assert_array_equal(session.serve().logits, seeded)
        assert session.stats.stale_kernel_hits == 0

    def test_a_new_tile_pattern_within_its_band_binds(self):
        graph = feature_graph(n=160, edges=60, seed=2)  # 34 of 40 tiles live
        # ``packed`` reads the mutated words, not only the codes.
        session = DynamicSession(
            make_cluster_gcn(8, 4, seed=1), graph, ServingConfig(engine="packed")
        )
        session.serve()
        census = session.mutable.census_mask().copy()
        session.mutate([census_changing_edge(session)])
        assert not np.array_equal(session.mutable.census_mask(), census)
        assert session.stats.plans_patched == 1
        assert templates_priced(session) == 1
        np.testing.assert_array_equal(session.serve().logits, fresh_logits(session))
        assert session.stats.stale_kernel_hits == 0

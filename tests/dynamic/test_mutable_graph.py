"""MutableGraph API surface: construction, mutation semantics, publication.

The bit-for-bit differential against the fresh-pack oracle lives in
``test_mutation_differential.py``; these tests pin the *contract* —
canonicalization, no-op semantics, chained-digest behavior, frozen
snapshots, and mutation telemetry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamic import MutableGraph, dirty_tiles_for
from repro.errors import ShapeError
from repro.gnn.quantized import pack_batch_adjacency
from repro.graph.csr import CSRGraph


def small_graph(n=40, edges=80, seed=0, feature_dim=8):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, feature_dim)).astype(np.float32)
    return CSRGraph.from_edges(
        n, rng.integers(0, n, size=(edges, 2)), features=features
    )


class TestConstruction:
    def test_seed_state_matches_fresh_pack(self):
        mg = MutableGraph.from_csr(small_graph())
        oracle = pack_batch_adjacency(mg.to_batch())
        snap = mg.snapshot()
        np.testing.assert_array_equal(snap.packed.words, oracle.packed.words)
        np.testing.assert_array_equal(snap.plan.masks[0], oracle.plan.masks[0])
        np.testing.assert_array_equal(snap.degrees, oracle.degrees)

    def test_empty_graph(self):
        mg = MutableGraph.from_csr(
            CSRGraph.from_edges(5, np.zeros((0, 2), dtype=np.int64))
        )
        assert mg.num_edges == 0
        # Self-loops (the + I term) keep the operand non-empty.
        assert mg.snapshot().packed.words.any()

    def test_zero_nodes_rejected(self):
        with pytest.raises(ShapeError):
            MutableGraph.from_csr(
                CSRGraph(indptr=np.zeros(1, dtype=np.int64),
                         indices=np.zeros(0, dtype=np.int64))
            )

    def test_words_shape(self):
        mg = MutableGraph.from_csr(small_graph(n=40))
        assert mg.snapshot().packed.words.shape == mg.expected_words_shape()
        assert mg.expected_words_shape() == (1, 40, 128 // 32)


class TestMutationSemantics:
    def test_insert_then_has_edge(self):
        mg = MutableGraph.from_csr(small_graph())
        assert not mg.has_edge(0, 39)
        delta = mg.insert_edge(0, 39)
        assert delta.mutated and delta.applied == (("insert", 0, 39),)
        assert mg.has_edge(0, 39) and mg.has_edge(39, 0)

    def test_duplicate_insert_is_noop(self):
        mg = MutableGraph.from_csr(small_graph())
        mg.insert_edge(1, 2)
        digest = mg.structure_digest
        delta = mg.insert_edge(2, 1)  # either orientation
        assert not delta.mutated and delta.noops == 1
        assert mg.structure_digest == digest

    def test_delete_absent_is_noop(self):
        mg = MutableGraph.from_csr(small_graph())
        digest = mg.structure_digest
        assert not mg.delete_edge(0, 39).mutated
        assert mg.structure_digest == digest

    def test_self_loop_is_noop(self):
        mg = MutableGraph.from_csr(small_graph())
        digest = mg.structure_digest
        for op in ("insert", "delete"):
            delta = mg.apply([(op, 7, 7)])
            assert not delta.mutated and delta.noops == 1
        assert mg.structure_digest == digest

    def test_out_of_range_rejected(self):
        mg = MutableGraph.from_csr(small_graph(n=40))
        with pytest.raises(ShapeError):
            mg.insert_edge(0, 40)
        with pytest.raises(ShapeError):
            mg.delete_edge(-1, 3)

    def test_unknown_op_rejected(self):
        mg = MutableGraph.from_csr(small_graph())
        with pytest.raises(ShapeError):
            mg.apply([("upsert", 0, 1)])

    def test_in_batch_round_trip_is_order_respecting(self):
        mg = MutableGraph.from_csr(small_graph())
        assert not mg.has_edge(3, 30)
        delta = mg.apply([("insert", 3, 30), ("delete", 3, 30)])
        # Both took effect against the evolving edge set...
        assert len(delta.applied) == 2 and delta.noops == 0
        # ...and the edge set round-tripped.
        assert not mg.has_edge(3, 30)


class TestAtomicity:
    """A batch is validated whole before any of it is committed."""

    @pytest.mark.parametrize(
        "batch",
        [
            [("insert", 0, 39), ("insert", 5, 99)],  # second edge out of range
            [("insert", 0, 39), ("delete", 3, 30), ("upsert", 0, 1)],  # bad op last
        ],
    )
    def test_a_batch_that_raises_changes_nothing(self, batch):
        mg = MutableGraph.from_csr(small_graph())
        mg.insert_edge(3, 30)
        digest, version, edges = mg.structure_digest, mg.version, mg.num_edges
        before = mg.snapshot()
        with pytest.raises(ShapeError):
            mg.apply(batch)
        assert (mg.structure_digest, mg.version, mg.num_edges) == (digest, version, edges)
        assert not mg.has_edge(0, 39) and mg.has_edge(3, 30)
        after = mg.snapshot()
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(after.csr, name), getattr(before.csr, name))
        np.testing.assert_array_equal(after.plan.masks[0], before.plan.masks[0])
        np.testing.assert_array_equal(after.degrees, before.degrees)
        np.testing.assert_array_equal(after.packed.words, before.packed.words)
        # The version-keyed CSR and a fresh pack of it agree with the state.
        assert mg.to_csr().num_edges == edges
        oracle = pack_batch_adjacency(mg.to_batch())
        np.testing.assert_array_equal(after.packed.words, oracle.packed.words)


class TestDigest:
    def test_digest_moves_on_every_effective_mutation(self):
        mg = MutableGraph.from_csr(small_graph())
        seen = {mg.structure_digest}
        mg.insert_edge(0, 39)
        seen.add(mg.structure_digest)
        mg.delete_edge(0, 39)
        seen.add(mg.structure_digest)
        assert len(seen) == 3  # insert+delete is NOT digest-neutral (chained)

    def test_same_history_same_digest(self):
        a = MutableGraph.from_csr(small_graph(seed=3))
        b = MutableGraph.from_csr(small_graph(seed=3))
        assert a.structure_digest == b.structure_digest
        for mg in (a, b):
            mg.apply([("insert", 0, 39), ("delete", 1, 2)])
        assert a.structure_digest == b.structure_digest

    def test_version_counts_effective_batches(self):
        mg = MutableGraph.from_csr(small_graph())
        v = mg.version
        mg.apply([("delete", 0, 39)])  # absent: no-op batch
        assert mg.version == v
        mg.apply([("insert", 0, 39)])
        assert mg.version == v + 1


class TestPublication:
    def test_snapshot_is_frozen(self):
        mg = MutableGraph.from_csr(small_graph())
        snap = mg.snapshot()
        for arr in (snap.packed.words, snap.plan.masks[0], snap.degrees):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1

    def test_snapshot_isolated_from_later_mutations(self):
        mg = MutableGraph.from_csr(small_graph())
        snap = mg.snapshot()
        words_before = snap.packed.words.copy()
        mg.insert_edge(0, 39)
        np.testing.assert_array_equal(snap.packed.words, words_before)

    def test_to_csr_round_trip(self):
        mg = MutableGraph.from_csr(small_graph())
        mg.apply([("insert", 0, 39), ("insert", 5, 11)])
        rebuilt = MutableGraph.from_csr(mg.to_csr())
        np.testing.assert_array_equal(
            rebuilt.snapshot().packed.words, mg.snapshot().packed.words
        )

    def test_stats_counters(self):
        mg = MutableGraph.from_csr(small_graph())
        mg.apply([("insert", 0, 39), ("insert", 0, 39), ("delete", 5, 5)])
        assert mg.stats.edges_inserted == 1
        assert mg.stats.noop_mutations == 2
        assert mg.stats.mutations_applied == 1
        assert mg.stats.tiles_recensused >= 1
        metrics = mg.stats.as_metrics()
        assert metrics["edges_inserted"] == 1.0


class TestDirtyTilesFor:
    def test_two_mirrored_tiles(self):
        assert dirty_tiles_for(3, 200) == {(0, 1), (25, 0)}

    def test_single_tile_when_coordinates_coincide(self):
        # (u, v) and (v, u) land in the same tile for near-diagonal edges.
        assert dirty_tiles_for(1, 2) == {(0, 0)}

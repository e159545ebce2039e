"""Property/fuzz tests: the dirty-tile set is exactly the analytic set,
and the live keys state is a fresh pack after every batch.

Every mutation ``(u, v)`` must dirty precisely
``{(u//8, v//128), (v//8, u//128)}`` (one tile when the coordinates
coincide) — no more, no less — and the delta census must re-ballot
exactly the dirty tiles while leaving every clean tile's verdict
untouched.  Seeded random streams plus the adversarial corners: insert→
delete round-trips, duplicates, self-loops, and tile-boundary edges at
rows/cols ≡ 0 (mod 8) and ≡ 0 (mod 128).  A derandomised Hypothesis
property pins the snapshot's CSR, census, degrees and words to
``pack_batch_adjacency`` of the mutated edge set on node counts either
side of every tile seam.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.bitpack import tile_nonzero_mask
from repro.dynamic import MutableGraph, dirty_tiles_for
from repro.gnn.quantized import pack_batch_adjacency
from repro.graph.csr import CSRGraph


def empty_graph(n):
    return CSRGraph.from_edges(n, np.zeros((0, 2), dtype=np.int64))


def expected_dirty(mutations_applied):
    out = set()
    for _, u, v in mutations_applied:
        out |= dirty_tiles_for(u, v)
    return frozenset(out)


class TestFuzzStreams:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_stream_dirty_set_is_analytic(self, seed):
        n = 150 if seed % 2 else 260
        rng = np.random.default_rng(seed)
        mg = MutableGraph.from_csr(
            CSRGraph.from_edges(n, rng.integers(0, n, size=(2 * n, 2)))
        )
        for _ in range(8):
            stream = [
                (
                    "insert" if rng.random() < 0.5 else "delete",
                    int(rng.integers(0, n)),
                    int(rng.integers(0, n)),
                )
                for _ in range(20)
            ]
            delta = mg.apply(stream)
            assert delta.dirty_tiles == expected_dirty(delta.applied)
            # And the delta census equals a from-scratch ballot.
            np.testing.assert_array_equal(
                mg.census_mask(),
                tile_nonzero_mask(mg.snapshot().packed.words[0]),
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_insert_delete_round_trips(self, seed):
        n = 96
        rng = np.random.default_rng(100 + seed)
        mg = MutableGraph.from_csr(empty_graph(n))
        pairs = {
            (int(a), int(b))
            for a, b in rng.integers(0, n, size=(30, 2))
            if a != b
        }
        forward = [("insert", u, v) for u, v in pairs]
        backward = [("delete", u, v) for u, v in pairs]
        before = mg.census_mask().copy()
        delta_in = mg.apply(forward)
        delta_out = mg.apply(backward)
        assert delta_in.dirty_tiles == expected_dirty(delta_in.applied)
        assert delta_out.dirty_tiles == expected_dirty(delta_out.applied)
        assert mg.num_edges == 0
        np.testing.assert_array_equal(mg.census_mask(), before)


class TestNoopCorners:
    def test_duplicates_and_self_loops_dirty_nothing(self):
        mg = MutableGraph.from_csr(empty_graph(64))
        mg.insert_edge(3, 40)
        delta = mg.apply(
            [("insert", 3, 40), ("insert", 40, 3), ("insert", 7, 7),
             ("delete", 7, 7), ("delete", 1, 2)]
        )
        assert not delta.mutated
        assert delta.dirty_tiles == frozenset()
        assert delta.noops == 5

    def test_noop_heavy_batch_dirty_set_only_counts_applied(self):
        mg = MutableGraph.from_csr(empty_graph(64))
        delta = mg.apply(
            [("insert", 0, 32), ("insert", 0, 32), ("insert", 5, 5)]
        )
        assert delta.applied == (("insert", 0, 32),)
        assert delta.dirty_tiles == dirty_tiles_for(0, 32)


class TestTileBoundaries:
    """Edges whose endpoints sit exactly on 8-row / 128-column seams."""

    BOUNDARY_NODES = [0, 7, 8, 127, 128, 135, 255]

    @pytest.mark.parametrize("u", BOUNDARY_NODES)
    @pytest.mark.parametrize("v", [0, 8, 127, 128])
    def test_boundary_edges(self, u, v):
        if u == v:
            pytest.skip("self-loop corner covered elsewhere")
        mg = MutableGraph.from_csr(empty_graph(256))
        delta = mg.insert_edge(u, v)
        lo, hi = min(u, v), max(u, v)
        assert delta.dirty_tiles == dirty_tiles_for(lo, hi)
        assert delta.dirty_tiles == {(u // 8, v // 128), (v // 8, u // 128)}
        # The census marks exactly the dirtied tiles (graph was empty,
        # so only diagonal tiles and the new edge's tiles are set).
        mask = mg.census_mask()
        for tr, tc in delta.dirty_tiles:
            assert mask[tr, tc]

    def test_last_node_edge(self):
        n = 257  # padded to 264 rows x 384 cols: exercises the pad region
        mg = MutableGraph.from_csr(empty_graph(n))
        delta = mg.insert_edge(0, n - 1)
        assert delta.dirty_tiles == {(0, 2), (32, 0)}
        np.testing.assert_array_equal(
            mg.census_mask(), tile_nonzero_mask(mg.snapshot().packed.words[0])
        )


def assert_is_fresh_pack(mg: MutableGraph, context: str = "") -> None:
    """The live state equals ``pack_batch_adjacency`` of the mutated edge
    set: CSR arrays and dtypes, canonical format, census, degrees, words."""
    oracle = pack_batch_adjacency(mg.to_batch())
    snap = mg.snapshot()
    got, want = snap.csr, oracle.csr
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, f"{name} dtype {context}"
        np.testing.assert_array_equal(a, b, err_msg=f"{name} {context}")
    assert got.has_canonical_format == want.has_canonical_format, context
    np.testing.assert_array_equal(snap.plan.masks[0], oracle.plan.masks[0], err_msg=context)
    np.testing.assert_array_equal(mg.census_mask(), oracle.plan.masks[0], err_msg=context)
    assert snap.degrees.dtype == oracle.degrees.dtype
    np.testing.assert_array_equal(snap.degrees, oracle.degrees, err_msg=context)
    np.testing.assert_array_equal(snap.packed.words, oracle.packed.words, err_msg=context)


SIZES = [1, 7, 8, 9, 127, 128, 129, 257]


def seam_nodes(n: int) -> list[int]:
    """Nodes on either side of the 8-row and 128-column seams, and the last."""
    return sorted({v for v in (0, 1, 7, 8, 9, 15, 16, 127, 128, 129, 255, 256) if v < n} | {n - 1})


@st.composite
def mutation_runs(draw):
    """``(n, seed edges, batches)``; a delete names an edge the run holds
    when it can, so deletes take effect and can empty a tile."""
    n = draw(st.sampled_from(SIZES))
    node = st.one_of(st.sampled_from(seam_nodes(n)), st.integers(0, n - 1))
    pair = st.tuples(node, node)
    edges = draw(st.lists(pair, max_size=30))
    held = {(min(u, v), max(u, v)) for u, v in edges if u != v}
    batches = []
    for _ in range(draw(st.integers(1, 5))):
        batch = []
        for _ in range(draw(st.integers(0, 10))):
            if held and draw(st.booleans()):
                u, v = draw(st.sampled_from(sorted(held)))
                batch.append(("delete", u, v))
                held.discard((u, v))
            else:
                u, v = draw(pair)
                batch.append(("insert", u, v))
                if u != v:
                    held.add((min(u, v), max(u, v)))
        batches.append(batch)
    return n, edges, batches


class TestKeysStateIsAFreshPack:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(mutation_runs())
    # Zero-edge graph; insert-then-delete of one edge within a batch.
    @example((9, [], [[("insert", 0, 8), ("delete", 0, 8)], []]))
    # A delete that empties a tile (the last node's, across the 128 seam).
    @example((257, [(0, 256)], [[("delete", 0, 256)], [("insert", 127, 128)]]))
    def test_every_batch_matches_a_fresh_pack(self, run):
        n, edges, batches = run
        pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
        mg = MutableGraph.from_csr(CSRGraph.from_edges(n, pairs))
        assert_is_fresh_pack(mg, f"n={n} seed")
        for step, batch in enumerate(batches):
            delta = mg.apply(batch)
            assert delta.dirty_tiles == expected_dirty(delta.applied)
            assert_is_fresh_pack(mg, f"n={n} batch={step}")

    def test_a_delete_that_empties_a_tile_clears_its_census(self):
        mg = MutableGraph.from_csr(empty_graph(257))
        mg.insert_edge(0, 256)
        assert mg.census_mask()[0, 2] and mg.census_mask()[32, 0]
        mg.delete_edge(0, 256)
        assert not mg.census_mask()[0, 2] and not mg.census_mask()[32, 0]
        assert_is_fresh_pack(mg, "emptied")

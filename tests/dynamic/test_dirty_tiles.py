"""Property/fuzz tests: the dirty-tile set is exactly the analytic set.

Every mutation ``(u, v)`` must dirty precisely
``{(u//8, v//128), (v//8, u//128)}`` (one tile when the coordinates
coincide) — no more, no less — and the delta census must re-ballot
exactly the dirty tiles while leaving every clean tile's verdict
untouched.  Seeded random streams plus the adversarial corners: insert→
delete round-trips, duplicates, self-loops, and tile-boundary edges at
rows/cols ≡ 0 (mod 8) and ≡ 0 (mod 128).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitpack import recensus_tiles, tile_nonzero_mask
from repro.dynamic import MutableGraph, dirty_tiles_for
from repro.errors import ShapeError
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


class TestRecensusTiles:
    """The core partial-census helper, directly."""

    def test_matches_full_ballot_on_subset(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**32, size=(16, 8), dtype=np.uint32)
        words[0:8, 0:4] = 0
        mask = tile_nonzero_mask(words)
        stale = mask.copy()
        stale[:] = True  # poison every verdict
        count = recensus_tiles(words, stale, [(0, 0), (1, 1)])
        assert count == 2
        assert not stale[0, 0]  # re-balloted to the truth
        assert stale[1, 1] == mask[1, 1]
        assert stale[0, 1]  # untouched tiles keep the poisoned verdict

    def test_empty_tile_list_is_noop(self):
        words = np.zeros((8, 4), dtype=np.uint32)
        mask = np.ones((1, 1), dtype=bool)
        assert recensus_tiles(words, mask, []) == 0
        assert mask[0, 0]

    def test_duplicate_coordinates_counted_once(self):
        words = np.zeros((8, 4), dtype=np.uint32)
        mask = np.ones((1, 1), dtype=bool)
        assert recensus_tiles(words, mask, [(0, 0), (0, 0)]) == 1
        assert not mask[0, 0]

    def test_out_of_range_tile_rejected(self):
        words = np.zeros((8, 4), dtype=np.uint32)
        mask = np.zeros((1, 1), dtype=bool)
        with pytest.raises(ShapeError):
            recensus_tiles(words, mask, [(1, 0)])

    def test_bad_shapes_rejected(self):
        with pytest.raises(ShapeError):
            recensus_tiles(
                np.zeros((7, 4), dtype=np.uint32),
                np.zeros((1, 1), dtype=bool),
                [(0, 0)],
            )
        with pytest.raises(ShapeError):
            recensus_tiles(
                np.zeros((8, 4), dtype=np.uint32),
                np.zeros((2, 1), dtype=bool),
                [(0, 0)],
            )

"""Tests for zero-tile detection (paper §4.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitpack import pack_matrix, tile_nonzero_mask
from repro.errors import ShapeError
from repro.tc.kernel import plan_tile_skip


class TestTileMask:
    def test_all_zero(self):
        packed = pack_matrix(np.zeros((16, 256), np.int64), 1, layout="col")
        mask = tile_nonzero_mask(packed.plane(0))
        assert mask.shape == (2, 2)
        assert not mask.any()

    def test_single_edge_lights_one_tile(self):
        adj = np.zeros((16, 256), np.int64)
        adj[9, 130] = 1  # tile row 1, tile col 1
        packed = pack_matrix(adj, 1, layout="col")
        mask = tile_nonzero_mask(packed.plane(0))
        assert mask[1, 1]
        assert mask.sum() == 1

    def test_matches_dense_reduction(self, rng):
        adj = (rng.random((64, 512)) < 0.01).astype(np.int64)
        packed = pack_matrix(adj, 1, layout="col")
        mask = tile_nonzero_mask(packed.plane(0))
        dense = adj.reshape(8, 8, 4, 128).any(axis=(1, 3))
        np.testing.assert_array_equal(mask, dense)

    def test_block_diagonal_batch_structure(self):
        # Two 8-node subgraphs batched -> off-diagonal tiles must be zero.
        adj = np.zeros((16, 16), np.int64)
        adj[:8, :8] = 1
        adj[8:, 8:] = 1
        packed = pack_matrix(adj, 1, layout="col")
        mask = tile_nonzero_mask(packed.plane(0))
        # 16 nodes pad to 2 row tiles x 1 col tile (128-bit K): both row
        # tiles contain their diagonal block, so both are nonzero.
        assert mask.shape == (2, 1)
        assert mask.all()

    def test_rejects_ragged_shapes(self):
        with pytest.raises(ShapeError):
            tile_nonzero_mask(np.zeros((7, 4), np.uint32))
        with pytest.raises(ShapeError):
            tile_nonzero_mask(np.zeros((8, 3), np.uint32))
        with pytest.raises(ShapeError):
            tile_nonzero_mask(np.zeros(8, np.uint32))


class TestSummary:
    def test_ratio(self, rng):
        adj = (rng.random((80, 1280)) < 0.005).astype(np.int64)
        plan = plan_tile_skip(pack_matrix(adj, 1, layout="col"))
        assert plan.total_tiles == 10 * 10
        zero_tiles = int((~plan.masks[0]).sum())
        assert plan.nonzero_tiles + zero_tiles == plan.total_tiles
        assert 0.0 <= plan.nonzero_fraction <= 1.0

    def test_empty_ratio(self):
        packed = pack_matrix(np.zeros((8, 128), np.int64), 1, layout="col")
        assert plan_tile_skip(packed).nonzero_fraction == 0.0

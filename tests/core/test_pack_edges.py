"""``pack_edges``: the coordinate packer equals the dense packer, bit for bit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.bitpack import bit_address, pack_edges, pack_matrix
from repro.errors import PackingError, ShapeError


def assert_equals_dense_pack(rows, cols, n, pad_vectors):
    dense = np.zeros((n, n), dtype=np.int64)
    dense[rows, cols] = 1
    ref = pack_matrix(dense, 1, "col", pad_vectors=pad_vectors)
    got = pack_edges(rows, cols, n, n, pad_vectors=pad_vectors)
    assert got.words.dtype == ref.words.dtype == np.uint32
    np.testing.assert_array_equal(got.words, ref.words)
    assert (got.bits, got.layout) == (ref.bits, ref.layout)
    assert got.logical_vectors == ref.logical_vectors
    assert got.logical_k == ref.logical_k
    assert got.pad_vectors == ref.pad_vectors


@st.composite
def coordinate_lists(draw):
    n = draw(st.integers(1, 300))
    count = draw(st.integers(0, 4 * n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, size=count)
    cols = rng.integers(0, n, size=count)
    if draw(st.booleans()):  # repeat a slice: duplicates are idempotent
        rows = np.concatenate([rows, rows[: count // 2]])
        cols = np.concatenate([cols, cols[: count // 2]])
    if draw(st.booleans()):  # the self-loop diagonal
        rows = np.concatenate([rows, np.arange(n)])
        cols = np.concatenate([cols, np.arange(n)])
    return n, rows, cols


class TestPackEdgesEqualsDensePack:
    @settings(max_examples=60)
    @given(coordinate_lists(), st.sampled_from([8, 128]))
    @example((1, np.array([0]), np.array([0])), 8)
    @example((13, np.array([0, 12, 12, 5]), np.array([12, 0, 0, 5])), 128)
    @example((200, np.arange(200), np.arange(200)[::-1]), 8)
    def test_matches_pack_matrix(self, coords, pad_vectors):
        n, rows, cols = coords
        assert_equals_dense_pack(rows, cols, n, pad_vectors)

    def test_no_coordinates_packs_zeros(self):
        packed = pack_edges(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 9, 130)
        assert packed.words.shape == (1, 16, 8)
        assert not packed.words.any()
        assert packed.logical_shape == (9, 130)

    def test_rectangular_logical_shape(self, rng):
        rows, cols = rng.integers(0, 20, size=50), rng.integers(0, 260, size=50)
        dense = np.zeros((20, 260), dtype=np.int64)
        dense[rows, cols] = 1
        np.testing.assert_array_equal(
            pack_edges(rows, cols, 20, 260).words, pack_matrix(dense, 1, "col").words
        )


class TestPackEdgesRejects:
    @pytest.mark.parametrize(
        "rows,cols",
        [([0, 10], [1, 1]), ([1, 1], [0, 10]), ([-1], [0]), ([0], [-1])],
    )
    def test_out_of_range_or_negative_coordinate(self, rows, cols):
        with pytest.raises(ShapeError):
            pack_edges(np.array(rows), np.array(cols), 10, 10)

    def test_mismatched_coordinate_arrays(self):
        with pytest.raises(ShapeError):
            pack_edges(np.array([0, 1]), np.array([0]), 4, 4)

    def test_negative_logical_shape(self):
        with pytest.raises(ShapeError):
            pack_edges(np.array([], dtype=np.int64), np.array([], dtype=np.int64), -1, 4)

    def test_bad_pad_vectors(self):
        with pytest.raises(PackingError):
            pack_edges(np.array([0]), np.array([0]), 4, 4, pad_vectors=16)


def test_bit_address_scalar_and_array_agree():
    cols = np.array([0, 31, 32, 95, 127, 128])
    words, masks = bit_address(cols)
    assert masks.dtype == np.uint32
    for col, word, mask in zip(cols.tolist(), words, masks):
        scalar_word, scalar_mask = bit_address(col)
        assert (scalar_word, int(scalar_mask)) == (word, int(mask))
        assert (word, int(mask)) == (col // 32, 1 << (col % 32))

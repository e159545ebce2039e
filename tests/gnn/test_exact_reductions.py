"""The two BLAS reductions a round takes on integer codes, and the batch
CSR concatenated from memoised member CSRs — each equal to its exact
oracle, bit for bit.

* §4.3's ballot of a 1-bit operand held as codes is one float32 GEMM
  against a ``k -> k-tile`` indicator: a tile sum is at most 128, exact
  whatever the codes' dtype.  Oracle: :func:`tile_nonzero_mask` of the
  packed words.
* §4.5's rank-1 row sums are one GEMV against ones in the codes' dtype: a
  row sum is at most ``k * (2**bits - 1)``, within
  :func:`exact_gemm_dtype`'s bound.  Oracle: the ``int64`` sum.
* §4.1's block-diagonal ``A + I``.  Oracle: scipy's ``block_diag`` plus the
  identity, built here from the members' raw arrays.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.bitgemm import exact_gemm_dtype
from repro.core.bitpack import Operand, pack_matrix, tile_nonzero_mask
from repro.gnn.quantized import _row_sums, pack_batch_adjacency
from repro.graph.batching import Subgraph, SubgraphBatch
from repro.graph.csr import CSRGraph

DTYPES = [np.float32, np.float64, np.int64]


def _sparse_codes(rng, n, k, high, density):
    """Codes in ``[0, high]`` with all-zero rows and all-zero k-tiles."""
    codes = rng.integers(1, high + 1, size=(n, k)) * (rng.random((n, k)) < density)
    codes[rng.random(n) < 0.3] = 0
    for start in range(0, k, 128):
        if rng.random() < 0.3:
            codes[:, start : start + 128] = 0
    return codes


@settings(max_examples=150)
@given(
    n=st.integers(0, 41),
    k=st.integers(1, 300),
    dtype=st.sampled_from(DTYPES),
    density=st.sampled_from([0.0, 0.002, 0.03, 0.5, 1.0]),
    pad=st.sampled_from([8, 128]),
    proven=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(n=13, k=300, dtype=np.float32, density=0.0, pad=8, proven=True, seed=0)
@example(n=8, k=128, dtype=np.float64, density=1.0, pad=8, proven=True, seed=0)
@example(n=1, k=1, dtype=np.int64, density=1.0, pad=128, proven=False, seed=0)
@example(n=21, k=300, dtype=np.int64, density=0.03, pad=8, proven=False, seed=0)
def test_codes_census_equals_the_ballot_of_the_words(n, k, dtype, density, pad, proven, seed):
    codes = _sparse_codes(np.random.default_rng(seed), n, k, 1, density)
    words = pack_matrix(codes, 1, "col", pad_vectors=pad)
    operand = Operand(codes.astype(dtype), 1, "col", pad_vectors=pad, proven=proven)
    (mask,) = operand.tile_masks()
    want = tile_nonzero_mask(words.plane(0))
    assert mask.dtype == want.dtype and mask.shape == want.shape
    np.testing.assert_array_equal(mask, want)
    assert operand._packed is None  # the ballot packed nothing
    # One float32 (BLAS) GEMM whatever the codes' dtype: NumPy multiplies
    # int64 matrices without BLAS, ``k / 128`` times the work of a sum.
    assert list(operand._views) == [np.dtype(np.float32)]


@settings(max_examples=150)
@given(
    n=st.integers(0, 41),
    k=st.integers(1, 300),
    bits=st.integers(1, 8),
    dtype=st.sampled_from(DTYPES),
    density=st.sampled_from([0.0, 0.03, 0.5, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_row_sums_equal_int64_sums(n, k, bits, dtype, density, seed):
    codes = _sparse_codes(np.random.default_rng(seed), n, k, (1 << bits) - 1, density)
    got = _row_sums(codes.astype(dtype))
    assert got.dtype == np.float64 and got.shape == (n, 1)
    np.testing.assert_array_equal(got, codes.sum(axis=1, dtype=np.int64)[:, None])


@settings(max_examples=12)
@given(bits=st.integers(3, 8), slack=st.integers(0, 2), seed=st.integers(0, 2**16))
def test_row_sums_exact_just_below_the_float32_bound(bits, slack, seed):
    """``k * (2**bits - 1)`` just below ``2**24``: the forward's codes are
    float32, and a full row sums to the largest value float32 still holds
    exactly — one more and the GEMV would round."""
    top = (1 << bits) - 1
    k = (1 << 24) // top - slack
    assert k * top < 1 << 24 and exact_gemm_dtype(k, bits, 1) == np.float32
    codes = np.full((3, k), top, dtype=np.float32)
    codes[1, np.random.default_rng(seed).integers(0, k, size=7)] = 0
    codes[2] = 0
    got = _row_sums(codes)
    np.testing.assert_array_equal(got, codes.sum(axis=1, dtype=np.int64)[:, None])
    assert got[0, 0] == k * top


# --------------------------------------------------------------------- #
# The batch CSR: members' memoised ``A + I`` concatenated at offsets
# --------------------------------------------------------------------- #
@st.composite
def members(draw):
    """A member as any producer may store it: unsorted rows, repeated
    coordinates, stored self loops — or one node, or no edges."""
    n = draw(st.integers(1, 40))
    rows = draw(st.lists(st.integers(0, n - 1), max_size=4 * n))
    cols = draw(st.lists(st.integers(0, n - 1), min_size=len(rows), max_size=len(rows)))
    rows, cols = np.array(rows, np.int64), np.array(cols, np.int64)
    order = np.argsort(rows, kind="stable")  # by row; unsorted within one
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    graph = CSRGraph(indptr=indptr, indices=cols[order])
    return Subgraph(graph=graph, original_nodes=np.arange(n))


def _oracle(batch: SubgraphBatch) -> sp.csr_matrix:
    blocks = []
    for sub in batch.members:
        g, n = sub.graph, sub.num_nodes
        ones = np.ones(g.indices.size, np.float32)
        blocks.append(sp.csr_matrix((ones, g.indices.copy(), g.indptr.copy()), shape=(n, n)))
    n = batch.num_nodes
    adj = sp.block_diag(blocks, format="csr") + sp.identity(n, np.float32, format="csr")
    adj.sum_duplicates()
    adj.data[:] = 1
    return adj


@settings(max_examples=80)
@given(st.lists(members(), min_size=1, max_size=5))
@example(
    [
        Subgraph(graph=CSRGraph(indptr=[0, 0], indices=[]), original_nodes=np.arange(1)),
        Subgraph(  # unsorted rows, a repeat and a stored self loop
            graph=CSRGraph(indptr=[0, 3, 4, 4], indices=[2, 0, 2, 1]),
            original_nodes=np.arange(3),
        ),
        Subgraph(graph=CSRGraph(indptr=[0, 0, 0], indices=[]), original_nodes=np.arange(2)),
    ]
)
def test_concatenated_csr_equals_the_scipy_oracle(subs):
    batch = SubgraphBatch(members=tuple(subs))
    want = _oracle(batch)
    for _ in range(2):  # derived, then served from the members' memos
        got = batch.adjacency_csr()
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.has_canonical_format
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.data, want.data)
    np.testing.assert_array_equal(
        pack_batch_adjacency(batch).degrees, want.sum(axis=1, dtype=np.float64)
    )

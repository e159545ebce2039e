"""``pack_batch_adjacency`` against the dense reference, and its memory bound."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.bitgemm import codes_gemm
from repro.core.bitpack import Operand, pack_matrix, tile_nonzero_mask
from repro.gnn.quantized import PackedAdjacency, pack_batch_adjacency
from repro.graph.batching import Subgraph, SubgraphBatch, induced_subgraphs
from repro.graph.csr import CSRGraph
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.tc.kernel import plan_tile_skip


def partitioned(num_nodes, num_edges, parts, seed):
    g = planted_partition_graph(
        num_nodes, num_edges, num_communities=parts, rng=np.random.default_rng(seed)
    )
    return induced_subgraphs(g, metis_like_partition(g, parts))


def edgeless(num_nodes):
    graph = CSRGraph.from_edges(num_nodes, np.zeros((0, 2), dtype=np.int64))
    return Subgraph(graph=graph, original_nodes=np.arange(num_nodes))


@pytest.mark.parametrize(
    "members",
    [
        pytest.param(lambda: partitioned(90, 400, 1, seed=3), id="1-member"),
        pytest.param(
            lambda: [*partitioned(150, 700, 2, seed=4), edgeless(5)],
            id="3-member-one-edgeless",
        ),
        pytest.param(lambda: partitioned(1100, 6000, 16, seed=5), id="16-member"),
    ],
)
def test_equals_dense_reference_triple(members):
    batch = SubgraphBatch(members=tuple(members()))
    dense = batch.dense_adjacency()
    ref_packed = pack_matrix(dense.astype(np.int64), 1, "col")
    ref_mask = tile_nonzero_mask(ref_packed.plane(0))
    ref_degrees = dense.sum(axis=1, dtype=np.float64)[:, None]

    got = pack_batch_adjacency(batch)
    for value, ref in [
        (got.packed.words, ref_packed.words),
        (got.plan.masks[0], ref_mask),
        (got.degrees, ref_degrees),
    ]:
        assert value.dtype == ref.dtype and value.shape == ref.shape
        np.testing.assert_array_equal(value, ref)
    assert got.packed.logical_shape == ref_packed.logical_shape
    assert got.packed.pad_vectors == ref_packed.pad_vectors


def noisy(num_nodes, seed):
    """A member whose CSR stores self loops, repeated coordinates and
    unsorted rows — nothing ``CSRGraph.from_edges`` would produce."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 7, size=num_nodes)
    indices = rng.integers(0, num_nodes, size=counts.sum())
    indptr = np.concatenate([[0], np.cumsum(counts)])
    loops = rng.random(num_nodes) < 0.5
    indices[indptr[:-1][loops & (counts > 0)]] = np.flatnonzero(loops & (counts > 0))
    graph = CSRGraph(indptr=indptr, indices=indices)
    return Subgraph(graph=graph, original_nodes=np.arange(num_nodes))


@pytest.mark.parametrize("seed", range(6))
def test_one_pass_equals_dense_with_self_loops_and_duplicates(seed):
    """Words, census, degrees and the CSR the GEMM multiplies by all come
    from one pass over the coordinates and all equal the dense reference."""
    sizes = np.random.default_rng(seed).integers(1, 150, size=3)
    batch = SubgraphBatch(
        members=tuple(noisy(int(n), seed * 10 + i) for i, n in enumerate(sizes))
    )
    dense = batch.dense_adjacency()
    stored = sum(sub.graph.indices.size for sub in batch.members) + batch.num_nodes
    assert int(dense.sum()) < stored  # duplicates
    ref_packed = pack_matrix(dense.astype(np.int64), 1, "col")

    got = pack_batch_adjacency(batch)
    np.testing.assert_array_equal(got.packed.words, ref_packed.words)
    (mask,), (ref_mask,) = got.plan.masks, plan_tile_skip(ref_packed).masks
    np.testing.assert_array_equal(mask, ref_mask)
    np.testing.assert_array_equal(
        got.degrees, dense.sum(axis=1, dtype=np.float64)[:, None]
    )
    csr = got.operand.matrix(np.float32)
    assert csr is got.csr and csr.has_canonical_format
    np.testing.assert_array_equal(csr.toarray(), dense)
    x = np.random.default_rng(seed).integers(0, 16, size=(batch.num_nodes, 5))
    np.testing.assert_array_equal(
        codes_gemm(got.operand, Operand(x, 4, "row")), dense.astype(np.int64) @ x
    )


def canonical(num_nodes, seed):
    """A member as ``CSRGraph.from_edges`` builds it: sorted, no repeats."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, num_nodes, size=(2 * num_nodes, 2))
    graph = CSRGraph.from_edges(num_nodes, edges)
    return Subgraph(graph=graph, original_nodes=np.arange(num_nodes))


MEMBER_KINDS = {"canonical": canonical, "noisy": noisy, "edgeless": lambda n, seed: edgeless(n)}


@settings(max_examples=60)
@given(
    members=st.lists(
        st.tuples(st.sampled_from(sorted(MEMBER_KINDS)), st.sampled_from([1, 2, 7, 40, 131])),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(0, 2**16),
)
@example(members=[("edgeless", 1)], seed=0)  # a single node: the diagonal alone
@example(members=[("noisy", 131), ("edgeless", 7), ("canonical", 40)], seed=3)
def test_concatenated_csr_equals_the_dense_packer(members, seed):
    """Whatever the members store — unsorted rows, repeats, self loops,
    nothing — the one CSR, the census and degrees read off it and the words
    packed on first read equal the dense reference, bit for bit."""
    batch = SubgraphBatch(
        members=tuple(
            MEMBER_KINDS[kind](n, seed + i) for i, (kind, n) in enumerate(members)
        )
    )
    dense = batch.dense_adjacency()
    ref = pack_matrix(dense.astype(np.int64), 1, "col")

    got = pack_batch_adjacency(batch)
    csr = got.csr
    assert csr.has_canonical_format and csr.dtype == np.float32
    assert csr.shape == dense.shape and got.num_nodes == batch.num_nodes
    np.testing.assert_array_equal(csr.toarray(), dense)
    np.testing.assert_array_equal(got.plan.masks[0], tile_nonzero_mask(ref.plane(0)))
    assert got.degrees.dtype == np.float64
    np.testing.assert_array_equal(
        got.degrees, dense.sum(axis=1, dtype=np.float64)[:, None]
    )
    assert got.operand._packed is None  # nothing so far needed a word
    before = got.nbytes
    words = got.packed
    assert got.packed is words  # packed once
    assert words.words.dtype == ref.words.dtype
    np.testing.assert_array_equal(words.words, ref.words)
    assert (words.logical_shape, words.pad_vectors) == (ref.logical_shape, ref.pad_vectors)
    assert got.nbytes == before  # an entry weighs the same packed or not
    # The loop-free block diagonal plus the identity: every stored self loop
    # and the added one are one set bit.
    np.testing.assert_array_equal(
        batch.packed_adjacency().to_codes(),
        np.maximum(batch.dense_adjacency(self_loops=False), np.eye(len(dense), dtype=np.uint8)),
    )


def test_nbytes_counts_the_csr_the_artifact_carries():
    batch = SubgraphBatch(members=tuple(partitioned(300, 1500, 3, seed=8)))
    got = pack_batch_adjacency(batch)
    csr_bytes = got.csr.data.nbytes + got.csr.indices.nbytes + got.csr.indptr.nbytes
    assert csr_bytes > 0
    assert got.nbytes == (
        got.packed.nbytes + got.degrees.nbytes + got.plan.masks[0].nbytes + csr_bytes
    )
    wordsonly = PackedAdjacency(
        operand=Operand(packed=got.packed), plan=got.plan, degrees=got.degrees
    )
    assert wordsonly.nbytes == got.nbytes - csr_bytes
    np.testing.assert_array_equal(  # a words-only artifact decodes its own CSR
        wordsonly.operand.matrix(np.float32).toarray(), got.csr.toarray()
    )


def test_stored_self_loop_counts_once():
    """A CSR that already stores its diagonal: the degree is the number of
    distinct set bits, as the dense row sum counts it."""
    graph = CSRGraph(indptr=np.array([0, 2, 3]), indices=np.array([0, 1, 0]))
    batch = SubgraphBatch(members=(Subgraph(graph=graph, original_nodes=np.arange(2)),))
    got = pack_batch_adjacency(batch)
    np.testing.assert_array_equal(got.degrees, [[2.0], [2.0]])
    np.testing.assert_array_equal(
        got.packed.to_codes(), batch.dense_adjacency().astype(np.int64)
    )


def test_allocation_is_bounded_by_the_packed_size():
    batch = SubgraphBatch(members=tuple(partitioned(2048, 8000, 16, seed=6)))
    assert batch.num_nodes == 2048
    tracemalloc.start()
    try:
        adjacency = pack_batch_adjacency(batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * adjacency.packed.nbytes, (peak, adjacency.packed.nbytes)

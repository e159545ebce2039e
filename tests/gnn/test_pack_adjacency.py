"""``pack_batch_adjacency`` against the dense reference, and its memory bound."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.bitpack import pack_matrix, tile_nonzero_mask
from repro.gnn.quantized import pack_batch_adjacency
from repro.graph.batching import Subgraph, SubgraphBatch, induced_subgraphs
from repro.graph.csr import CSRGraph
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition


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

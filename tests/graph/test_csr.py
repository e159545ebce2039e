"""Tests for the CSR graph container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.gnn import make_cluster_gcn
from repro.gnn.reference import reference_forward, reference_forward_dense
from repro.graph.batching import Subgraph, SubgraphBatch
from repro.graph.csr import CSRGraph


@pytest.fixture
def triangle():
    """3-node triangle graph."""
    return CSRGraph.from_edges(3, np.array([[0, 1], [1, 2], [0, 2]]))


class TestConstruction:
    def test_from_edges_symmetrizes(self, triangle):
        assert triangle.num_nodes == 3
        assert triangle.num_edges == 3
        assert triangle.num_directed_edges == 6
        np.testing.assert_array_equal(triangle.neighbors(0), [1, 2])
        np.testing.assert_array_equal(triangle.neighbors(1), [0, 2])

    def test_duplicates_and_self_loops_dropped(self):
        edges = np.array([[0, 1], [1, 0], [0, 1], [2, 2]])
        g = CSRGraph.from_edges(3, edges)
        assert g.num_edges == 1
        assert g.degrees().tolist() == [1, 1, 0]

    def test_empty_graph(self):
        g = CSRGraph.from_edges(4, np.empty((0, 2)))
        assert g.num_nodes == 4
        assert g.num_edges == 0

    def test_bad_edges_shape(self):
        with pytest.raises(ShapeError):
            CSRGraph.from_edges(3, np.zeros((2, 3)))

    def test_out_of_range_endpoints(self):
        with pytest.raises(ShapeError):
            CSRGraph.from_edges(2, np.array([[0, 5]]))

    def test_from_scipy_roundtrip(self, triangle):
        g = CSRGraph.from_scipy(triangle.to_scipy())
        assert g.num_edges == triangle.num_edges
        np.testing.assert_array_equal(g.indptr, triangle.indptr)

    def test_validation_rejects_bad_indptr(self):
        with pytest.raises(ShapeError):
            CSRGraph(indptr=np.array([1, 0]), indices=np.array([], dtype=np.int64))

    def test_validation_rejects_row_pointers_past_empty_indices(self):
        """``indptr`` promising entries that ``indices`` does not hold used to
        pass (the length check was skipped on empty ``indices``) and fail
        deep inside the packer, which trusts ``indptr``."""
        with pytest.raises(ShapeError, match="indices length"):
            CSRGraph(indptr=[0, 2, 3], indices=[])
        with pytest.raises(ShapeError, match="indices length"):
            CSRGraph(indptr=[0, 1, 1], indices=[0, 1])
        assert CSRGraph(indptr=[0, 0, 0], indices=[]).num_edges == 0

    def test_feature_shape_check(self):
        with pytest.raises(ShapeError):
            CSRGraph.from_edges(3, np.array([[0, 1]]), features=np.zeros((2, 4)))

    def test_label_shape_check(self):
        with pytest.raises(ShapeError):
            CSRGraph.from_edges(3, np.array([[0, 1]]), labels=np.zeros(2, np.int64))


class TestAccessors:
    def test_degrees(self, triangle):
        np.testing.assert_array_equal(triangle.degrees(), [2, 2, 2])

    def test_neighbors_bounds(self, triangle):
        with pytest.raises(ShapeError):
            triangle.neighbors(3)

    def test_feature_dim_requires_features(self, triangle):
        with pytest.raises(ShapeError):
            _ = triangle.feature_dim

    def test_adjacency_dense(self, triangle):
        dense = triangle.adjacency_dense()
        expected = np.ones((3, 3), np.uint8) - np.eye(3, dtype=np.uint8)
        np.testing.assert_array_equal(dense, expected)

    def test_adjacency_dense_is_symmetric(self, rng):
        edges = rng.integers(0, 50, (200, 2))
        g = CSRGraph.from_edges(50, edges)
        dense = g.adjacency_dense()
        np.testing.assert_array_equal(dense, dense.T)


class TestToScipy:
    def test_cached_while_the_arrays_are_the_same(self, triangle):
        adj = triangle.to_scipy()
        assert triangle.to_scipy() is adj
        np.testing.assert_array_equal(adj.toarray(), triangle.adjacency_dense())

    def test_a_rebound_indices_array_rebuilds_the_adjacency(self):
        """Rebinding ``indices`` — how the owner of a read-only, digested
        member changes its structure — must not leave ``subgraph`` or the
        fp32 reference on the old one."""
        feats = np.arange(8, dtype=np.float32).reshape(4, 2)
        path = CSRGraph.from_edges(4, np.array([[0, 1], [1, 2], [2, 3]]), features=feats)
        # 0-2-1-3: the same degrees, hence the same indptr, other neighbours.
        other = CSRGraph.from_edges(4, np.array([[0, 2], [2, 1], [1, 3]]))
        batch = SubgraphBatch(members=(Subgraph(graph=path, original_nodes=np.arange(4)),))
        model = make_cluster_gcn(2, 2)
        reference_forward(model, batch)
        stale = path.to_scipy()
        path.indices = other.indices.copy()
        fresh = path.to_scipy()
        assert fresh is not stale and path.to_scipy() is fresh
        np.testing.assert_array_equal(fresh.toarray(), other.adjacency_dense())
        assert path.subgraph(np.array([0, 1])).num_edges == 0  # no longer adjacent
        assert path.subgraph(np.array([0, 2])).num_edges == 1
        np.testing.assert_allclose(
            reference_forward(model, batch),
            reference_forward_dense(model, batch.dense_adjacency(), feats),
            rtol=1e-5,
        )

    def test_a_rebound_indptr_array_rebuilds_the_adjacency(self, triangle):
        stale = triangle.to_scipy()
        # The same indices [1, 2, 0, 2, 0, 1] split 1 / 2 / 3 over the rows.
        triangle.indptr = np.array([0, 1, 3, 6])
        fresh = triangle.to_scipy()
        assert fresh is not stale and triangle.to_scipy() is fresh
        np.testing.assert_array_equal(fresh.toarray(), [[0, 1, 0], [1, 0, 1], [1, 1, 1]])


class TestSubgraph:
    def test_induced_edges(self):
        # Path 0-1-2-3 plus chord 0-3.
        g = CSRGraph.from_edges(4, np.array([[0, 1], [1, 2], [2, 3], [0, 3]]))
        sub = g.subgraph(np.array([0, 1, 3]))
        assert sub.num_nodes == 3
        assert sub.num_edges == 2  # 0-1 and 0-3 survive; 1-2, 2-3 dropped

    def test_node_order_preserved(self):
        g = CSRGraph.from_edges(4, np.array([[0, 1], [2, 3]]))
        sub = g.subgraph(np.array([3, 2]))
        # Node 3 becomes row 0, node 2 becomes row 1; edge survives.
        np.testing.assert_array_equal(sub.neighbors(0), [1])

    def test_features_sliced(self, rng):
        feats = rng.normal(size=(5, 3)).astype(np.float32)
        g = CSRGraph.from_edges(5, np.array([[0, 1]]), features=feats)
        sub = g.subgraph(np.array([4, 0]))
        np.testing.assert_array_equal(sub.features, feats[[4, 0]])

    def test_duplicate_nodes_rejected(self, triangle):
        with pytest.raises(ShapeError):
            triangle.subgraph(np.array([0, 0]))

    def test_out_of_range_rejected(self, triangle):
        with pytest.raises(ShapeError):
            triangle.subgraph(np.array([5]))

    def test_with_features(self, triangle, rng):
        feats = rng.normal(size=(3, 4)).astype(np.float32)
        g = triangle.with_features(feats)
        assert g.feature_dim == 4
        assert g.num_edges == triangle.num_edges

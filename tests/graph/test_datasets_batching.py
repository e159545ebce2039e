"""Tests for Table 1 dataset stand-ins and subgraph batching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, PartitionError, ShapeError
from repro.graph.batching import (
    SubgraphBatch,
    batch_subgraphs,
    batch_subgraphs_by_nodes,
    induced_subgraphs,
)
from repro.graph.datasets import TABLE1, dataset_names, get_spec, load_dataset
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition


class TestDatasetSpecs:
    def test_table1_verbatim(self):
        spec = get_spec("ogbn-products")
        assert spec.num_nodes == 2_449_029
        assert spec.num_edges == 61_859_140
        assert spec.feature_dim == 100
        assert spec.num_classes == 47
        assert get_spec("Proteins").num_nodes == 43_471

    def test_six_datasets_in_order(self):
        assert dataset_names() == [
            "Proteins",
            "artist",
            "BlogCatalog",
            "PPI",
            "ogbn-arxiv",
            "ogbn-products",
        ]
        assert [s.type_tag for s in TABLE1] == ["I", "I", "II", "II", "III", "III"]

    def test_scaled_spec(self):
        half = get_spec("PPI").scaled(0.5)
        assert half.num_nodes == 56_944 // 2
        assert half.feature_dim == 50  # dims never scale

    def test_bad_scale(self):
        with pytest.raises(ConfigError):
            get_spec("PPI").scaled(0.0)

    def test_unknown_dataset(self):
        with pytest.raises(ConfigError):
            get_spec("cora")


class TestLoadDataset:
    def test_sizes_match_scaled_spec(self):
        g = load_dataset("Proteins", scale=0.1)
        spec = get_spec("Proteins").scaled(0.1)
        assert g.num_nodes == spec.num_nodes
        assert abs(g.num_edges - spec.num_edges) / spec.num_edges < 0.05
        assert g.features.shape == (spec.num_nodes, spec.feature_dim)
        assert g.num_classes == spec.num_classes

    def test_deterministic(self):
        g1 = load_dataset("PPI", scale=0.05, seed=3)
        g2 = load_dataset("PPI", scale=0.05, seed=3)
        np.testing.assert_array_equal(g1.indices, g2.indices)

    def test_no_features_flag(self):
        g = load_dataset("PPI", scale=0.05, with_features=False)
        assert g.features is None


class TestInducedSubgraphs:
    @pytest.fixture
    def partitioned(self, rng):
        g = planted_partition_graph(
            400, 2400, num_communities=8, feature_dim=8, num_classes=3, rng=rng
        )
        assignment = metis_like_partition(g, 8)
        return g, assignment

    def test_covers_all_nodes(self, partitioned):
        g, assignment = partitioned
        subs = induced_subgraphs(g, assignment)
        assert sum(s.num_nodes for s in subs) == g.num_nodes
        all_nodes = np.concatenate([s.original_nodes for s in subs])
        assert np.unique(all_nodes).size == g.num_nodes

    def test_edges_only_intra(self, partitioned):
        g, assignment = partitioned
        subs = induced_subgraphs(g, assignment)
        # Total subgraph edges equal intra-partition edges of the parent.
        from repro.partition.quality import edge_cut

        intra = g.num_edges - edge_cut(g, assignment)
        assert sum(s.num_edges for s in subs) == intra

    def test_rejects_empty_part(self, partitioned):
        g, assignment = partitioned
        bad = assignment.copy()
        bad[bad == 3] = 2  # empty part 3
        with pytest.raises(PartitionError):
            induced_subgraphs(g, bad)

    def test_rejects_wrong_shape(self, partitioned):
        g, _ = partitioned
        with pytest.raises(PartitionError):
            induced_subgraphs(g, np.zeros(3, np.int64))


class TestBatching:
    @pytest.fixture
    def subgraphs(self, rng):
        g = planted_partition_graph(
            240, 1500, num_communities=6, feature_dim=4, num_classes=2, rng=rng
        )
        return induced_subgraphs(g, metis_like_partition(g, 6))

    def test_batch_sizes(self, subgraphs):
        batches = list(batch_subgraphs(subgraphs, 4))
        assert len(batches) == 2
        assert len(batches[0].members) == 4
        assert len(batches[1].members) == 2

    def test_block_diagonal_adjacency(self, subgraphs):
        batch = next(batch_subgraphs(subgraphs, 3))
        dense = batch.dense_adjacency(self_loops=False)
        offsets = batch.node_offsets
        # Off-diagonal blocks must be all zero.
        for i, (sub_i, off_i) in enumerate(zip(batch.members, offsets)):
            for j, (sub_j, off_j) in enumerate(zip(batch.members, offsets)):
                block = dense[
                    off_i : off_i + sub_i.num_nodes, off_j : off_j + sub_j.num_nodes
                ]
                if i != j:
                    assert block.sum() == 0
                else:
                    assert block.sum() == 2 * sub_i.num_edges

    def test_self_loops_on_diagonal(self, subgraphs):
        batch = next(batch_subgraphs(subgraphs, 2))
        dense = batch.dense_adjacency(self_loops=True)
        assert np.diagonal(dense).sum() == batch.num_nodes

    def test_features_and_labels_aligned(self, subgraphs):
        batch = next(batch_subgraphs(subgraphs, 3))
        feats = batch.features()
        labels = batch.labels()
        assert feats.shape[0] == batch.num_nodes
        assert labels.shape == (batch.num_nodes,)
        off = batch.node_offsets[1]
        np.testing.assert_array_equal(
            feats[off : off + batch.members[1].num_nodes],
            batch.members[1].graph.features,
        )

    def test_features_concatenate_straight_into_a_dtype(self, subgraphs):
        batch = next(batch_subgraphs(subgraphs, 3))
        plain = batch.features()
        assert plain.dtype == batch.members[0].graph.features.dtype
        wide = batch.features(np.float64)
        assert wide.dtype == np.float64
        # fp32 -> fp64 is exact: the same values as concatenate-then-cast.
        np.testing.assert_array_equal(wide, plain.astype(np.float64))

    def test_member_slices(self, subgraphs):
        batch = next(batch_subgraphs(subgraphs, 3))
        slices = batch.member_slices()
        assert slices[0].start == 0
        assert slices[-1].stop == batch.num_nodes

    def test_packed_adjacency_roundtrip(self, subgraphs):
        batch = next(batch_subgraphs(subgraphs, 2))
        packed = batch.packed_adjacency()
        np.testing.assert_array_equal(
            packed.to_codes(), batch.dense_adjacency().astype(np.int64)
        )

    def test_empty_batch_rejected(self):
        with pytest.raises(PartitionError):
            SubgraphBatch(members=())

    def test_bad_batch_size(self, subgraphs):
        with pytest.raises(PartitionError):
            list(batch_subgraphs(subgraphs, 0))


class TestNodeBudgetBatching:
    @pytest.fixture
    def subgraphs(self, rng):
        g = planted_partition_graph(
            240, 1500, num_communities=6, feature_dim=4, num_classes=2, rng=rng
        )
        return induced_subgraphs(g, metis_like_partition(g, 6))

    def test_respects_node_budget(self, subgraphs):
        budget = 2 * max(s.num_nodes for s in subgraphs)
        batches = list(batch_subgraphs_by_nodes(subgraphs, budget))
        for batch in batches:
            assert batch.num_nodes <= budget
        # Order and coverage preserved.
        flat = [m for b in batches for m in b.members]
        assert [m.num_nodes for m in flat] == [s.num_nodes for s in subgraphs]

    def test_respects_member_cap(self, subgraphs):
        batches = list(
            batch_subgraphs_by_nodes(subgraphs, 10**9, max_members=2)
        )
        assert all(len(b.members) <= 2 for b in batches)
        assert len(batches) == 3

    def test_oversized_subgraph_gets_own_batch(self, subgraphs):
        batches = list(batch_subgraphs_by_nodes(subgraphs, 1))
        assert len(batches) == len(subgraphs)
        assert all(len(b.members) == 1 for b in batches)

    def test_bad_budgets(self, subgraphs):
        with pytest.raises(PartitionError):
            list(batch_subgraphs_by_nodes(subgraphs, 0))
        with pytest.raises(PartitionError):
            list(batch_subgraphs_by_nodes(subgraphs, 10, max_members=0))

"""Tests for batch profiling and the end-to-end epoch executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.dgl_like import DGLRunConfig, dgl_epoch_report
from repro.core.bitpack import tile_nonzero_mask
from repro.errors import ConfigError
from repro.gnn.models import make_batched_gin, make_cluster_gcn
from repro.graph.batching import batch_subgraphs, induced_subgraphs
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.runtime.executor import (
    QGTCRunConfig,
    modeled_plan_report,
    qgtc_epoch_report,
)
from repro.runtime.profilebatch import profile_batch, profile_batches
from repro.runtime.report import EpochReport
from repro.tc.hardware import RTX3090
from repro.tc.kernel import KernelConfig, TileSkipPlan, plan_tile_skip


@pytest.fixture(scope="module")
def setup():
    g = planted_partition_graph(
        800,
        5200,
        num_communities=16,
        feature_dim=16,
        num_classes=4,
        rng=np.random.default_rng(31),
    )
    assignment = metis_like_partition(g, 16)
    subs = induced_subgraphs(g, assignment)
    return g, subs


class TestProfiles:
    def test_fast_census_matches_densified(self, setup):
        _, subs = setup
        for batch in batch_subgraphs(subs, 4):
            fast = profile_batch(batch)
            ballot = tile_nonzero_mask(batch.packed_adjacency().plane(0))
            assert fast.nnz_tiles == ballot.sum()
            assert fast.total_tiles == ballot.size

    def test_profile_fields(self, setup):
        _, subs = setup
        profiles = profile_batches(subs, 4)
        assert len(profiles) == 4
        for p in profiles:
            assert 0 < p.nnz_tiles <= p.total_tiles
            assert p.nnz_adj == 2 * p.num_edges + p.num_nodes
            assert 0 < p.nonzero_tile_fraction <= 1.0
            assert 0 < p.adjacency_density <= 1.0

    def test_batching_creates_zero_tiles(self, setup):
        # The Figure 8 mechanism: batching B subgraphs makes off-diagonal
        # blocks zero, so the processed fraction drops as B grows.
        _, subs = setup
        single = profile_batches(subs, 1)
        batched = profile_batches(subs, 8)
        frac_single = np.mean([p.nonzero_tile_fraction for p in single])
        frac_batched = np.mean([p.nonzero_tile_fraction for p in batched])
        assert frac_batched < frac_single


class TestModeledPlanReport:
    """Batch-profile-free modeling: the census comes from the adjacency
    artifact's TileSkipPlan, not a separate BatchProfile pass."""

    def test_matches_profile_epoch_path(self, setup):
        _, subs = setup
        gin = make_batched_gin(16, 4)
        for batch in batch_subgraphs(subs, 4):
            packed = batch.packed_adjacency()
            tile_plan = plan_tile_skip(packed)
            from_plan = modeled_plan_report(
                gin,
                QGTCRunConfig(feature_bits=4),
                num_nodes=batch.num_nodes,
                tile_plan=tile_plan,
            )
            assert tile_plan.summary().nonzero_tiles == tile_plan.nonzero_tiles
            from_profile = qgtc_epoch_report(
                [profile_batch(batch)], gin, QGTCRunConfig(feature_bits=4)
            )
            # Same census, same closed forms: identical modeled report.
            assert from_plan.total_s(include_transfer=True) == (
                from_profile.total_s(include_transfer=True)
            )
            assert from_plan.tiles_skipped == from_profile.tiles_skipped
            assert from_plan.mma_ops == from_profile.mma_ops

    def test_rejects_multibit_plan(self, setup):
        _, subs = setup
        gin = make_batched_gin(16, 4)
        mask = np.ones((4, 1), dtype=bool)
        with pytest.raises(ConfigError, match="1-bit"):
            modeled_plan_report(
                gin,
                QGTCRunConfig(feature_bits=4),
                num_nodes=32,
                tile_plan=TileSkipPlan(masks=(mask, mask)),
            )


class TestQGTCEpoch:
    @pytest.fixture(scope="class")
    def profiles(self, setup):
        _, subs = setup
        return profile_batches(subs, 2)

    @pytest.fixture(scope="class")
    def gcn(self):
        return make_cluster_gcn(16, 4)

    def test_report_structure(self, profiles, gcn):
        rep = qgtc_epoch_report(profiles, gcn, QGTCRunConfig(feature_bits=4))
        assert isinstance(rep, EpochReport)
        assert rep.num_batches == len(profiles)
        # GCN: 2 kernels per layer per batch, fused (no elementwise).
        assert rep.kernels == 2 * gcn.num_layers * len(profiles)
        assert rep.elementwise_s == 0.0
        assert rep.total_s() > 0
        assert rep.transfer_s > 0
        # Transfer excluded from the headline by default.
        assert rep.total_s(include_transfer=True) > rep.total_s()

    def test_latency_increases_with_bits(self, profiles, gcn):
        times = [
            qgtc_epoch_report(
                profiles, gcn, QGTCRunConfig(feature_bits=b)
            ).total_s()
            for b in (2, 4, 8, 16, 32)
        ]
        assert times == sorted(times)

    def test_jumping_saves_time(self, setup, gcn):
        # Jumping needs batches wide enough to span several 128-column
        # tiles (a 2-subgraph batch of ~100 nodes has a single K tile and
        # self loops keep every row tile alive).
        _, subs = setup
        wide_profiles = profile_batches(subs, 8)
        on = qgtc_epoch_report(
            wide_profiles, gcn,
            QGTCRunConfig(feature_bits=4, kernel=KernelConfig(zero_tile_jumping=True)),
        )
        off = qgtc_epoch_report(
            wide_profiles, gcn,
            QGTCRunConfig(feature_bits=4, kernel=KernelConfig(zero_tile_jumping=False)),
        )
        assert on.total_s() < off.total_s()
        assert on.mma_ops < off.mma_ops

    def test_fusion_saves_kernels(self, profiles, gcn):
        fused = qgtc_epoch_report(profiles, gcn, QGTCRunConfig(feature_bits=4))
        unfused = qgtc_epoch_report(
            profiles, gcn, QGTCRunConfig(feature_bits=4, fused=False)
        )
        assert unfused.kernels > fused.kernels
        assert unfused.total_s() > fused.total_s()

    def test_gin_aggregates_on_output_dim(self, profiles):
        # GIN (update first) aggregates on hidden width (64), so its
        # aggregation work differs from GCN's at equal layer count.
        gin = make_batched_gin(16, 4)
        gcn_like = make_cluster_gcn(16, 4, hidden_dim=64)
        rep_gin = qgtc_epoch_report(profiles, gin, QGTCRunConfig(feature_bits=4))
        rep_gcn = qgtc_epoch_report(profiles, gcn_like, QGTCRunConfig(feature_bits=4))
        assert rep_gin.mma_ops != rep_gcn.mma_ops

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            QGTCRunConfig(feature_bits=0)
        with pytest.raises(ConfigError):
            QGTCRunConfig(feature_bits=4, weight_bits=40)

    def test_report_merge(self, profiles, gcn):
        r1 = qgtc_epoch_report(profiles[:1], gcn, QGTCRunConfig(feature_bits=4))
        r2 = qgtc_epoch_report(profiles[1:], gcn, QGTCRunConfig(feature_bits=4))
        total = qgtc_epoch_report(profiles, gcn, QGTCRunConfig(feature_bits=4))
        merged = r1.merge(r2)
        assert merged.total_s() == pytest.approx(total.total_s())
        assert merged.kernels == total.kernels


class TestDGLBaseline:
    @pytest.fixture(scope="class")
    def profiles(self, setup):
        _, subs = setup
        return profile_batches(subs, 2)

    def test_dgl_slower_than_low_bit_qgtc(self, profiles):
        # The headline claim: QGTC low-bit beats DGL fp32 end to end.
        gcn = make_cluster_gcn(16, 4)
        dgl = dgl_epoch_report(profiles, gcn)
        qgtc = qgtc_epoch_report(profiles, gcn, QGTCRunConfig(feature_bits=2))
        speedup = dgl.total_s() / qgtc.total_s()
        assert 1.5 < speedup < 6.0

    def test_dgl_kernel_count(self, profiles):
        gcn = make_cluster_gcn(16, 4)
        rep = dgl_epoch_report(profiles, gcn, DGLRunConfig())
        # SpMM + GEMM + 2 elementwise = 4 kernels per layer per batch.
        assert rep.kernels == 4 * gcn.num_layers * len(profiles)

    def test_dgl_transfer_larger_than_qgtc(self, profiles):
        gcn = make_cluster_gcn(16, 4)
        dgl = dgl_epoch_report(profiles, gcn)
        qgtc = qgtc_epoch_report(profiles, gcn, QGTCRunConfig(feature_bits=2))
        assert dgl.transfer_s > qgtc.transfer_s

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DGLRunConfig(framework_overhead_s=-1.0)

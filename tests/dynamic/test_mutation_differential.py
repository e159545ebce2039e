"""Mutation differential harness: incremental == fresh pack, bit for bit.

The dynamic-graph extension of the PR-2 int64-oracle harness: after
*every* mutation in seeded random streams, the incrementally-maintained
state must equal a fresh pack-from-scratch of the mutated edge set (and,
once per stream, the dense ``pack_matrix`` reference) on

* the packed bit-plane words,
* the zero-tile census,
* the degree vector,
* the aggregation product itself (checked against
  ``matmul_int_reference`` on the unpacked operand), and
* the final logits of a served forward pass (shared calibration, so the
  incremental serve and the fresh-pack oracle are bit-comparable).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitgemm import bitgemm_codes, matmul_int_reference
from repro.core.bitpack import pack_matrix, tile_nonzero_mask
from repro.dynamic import DynamicSession, MutableGraph
from repro.gnn.models import make_cluster_gcn
from repro.gnn.quantized import pack_batch_adjacency, quantized_forward
from repro.graph.csr import CSRGraph


def random_graph(n, edges, seed, feature_dim=8):
    rng = np.random.default_rng(seed)
    return CSRGraph.from_edges(
        n,
        rng.integers(0, n, size=(edges, 2)),
        features=rng.standard_normal((n, feature_dim)).astype(np.float32),
    )


def random_stream(rng, n, length, insert_p=0.55):
    return [
        (
            "insert" if rng.random() < insert_p else "delete",
            int(rng.integers(0, n)),
            int(rng.integers(0, n)),
        )
        for _ in range(length)
    ]


def assert_matches_dense_reference(mg: MutableGraph, context: str = ""):
    """Incremental state == the dense pipeline, which shares no code with
    ``pack_edges`` (``pack_batch_adjacency`` and the bit flips both do)."""
    dense = mg.to_batch().dense_adjacency(self_loops=True)
    packed = pack_matrix(dense.astype(np.int64), 1, "col")
    snap = mg.snapshot()
    np.testing.assert_array_equal(
        snap.packed.words, packed.words, err_msg=f"words {context}"
    )
    np.testing.assert_array_equal(
        snap.plan.masks[0],
        tile_nonzero_mask(packed.plane(0)),
        err_msg=f"census {context}",
    )
    np.testing.assert_array_equal(
        snap.degrees,
        dense.sum(axis=1, dtype=np.float64)[:, None],
        err_msg=f"degrees {context}",
    )


def assert_matches_fresh_pack(mg: MutableGraph, context: str = ""):
    """The harness core: incremental state == pack_batch_adjacency."""
    oracle = pack_batch_adjacency(mg.to_batch())
    snap = mg.snapshot()
    np.testing.assert_array_equal(
        snap.packed.words, oracle.packed.words, err_msg=f"words {context}"
    )
    np.testing.assert_array_equal(
        snap.plan.masks[0], oracle.plan.masks[0], err_msg=f"census {context}"
    )
    np.testing.assert_array_equal(
        snap.degrees, oracle.degrees, err_msg=f"degrees {context}"
    )


class TestPackedStateDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [33, 128, 130])
    def test_every_mutation_matches_fresh_pack(self, seed, n):
        """Check after *each* mutation, not just at stream end."""
        mg = MutableGraph.from_csr(random_graph(n, 3 * n, seed))
        rng = np.random.default_rng(1000 + seed)
        for step, mutation in enumerate(random_stream(rng, n, 40)):
            mg.apply([mutation])
            assert_matches_fresh_pack(mg, f"n={n} seed={seed} step={step}")
        assert_matches_dense_reference(mg, f"n={n} seed={seed} stream end")

    @pytest.mark.parametrize("seed", [5, 6])
    def test_batched_streams_match_fresh_pack(self, seed):
        n = 96
        mg = MutableGraph.from_csr(random_graph(n, 200, seed))
        rng = np.random.default_rng(2000 + seed)
        for batch in range(6):
            mg.apply(random_stream(rng, n, 25))
            assert_matches_fresh_pack(mg, f"seed={seed} batch={batch}")
        assert_matches_dense_reference(mg, f"seed={seed} stream end")

    def test_drain_to_empty_and_refill(self):
        """Delete every edge, then rebuild — the all-zero-off-diagonal
        census and the re-densified one must both match fresh packs."""
        n = 48
        mg = MutableGraph.from_csr(random_graph(n, 100, seed=9))
        for u, v in sorted(
            {(u, v) for u in range(n) for v in range(u + 1, n) if mg.has_edge(u, v)}
        ):
            mg.delete_edge(u, v)
        assert mg.num_edges == 0
        assert_matches_fresh_pack(mg, "drained")
        assert_matches_dense_reference(mg, "drained")
        mg.apply([("insert", u, (u + 7) % n) for u in range(n)])
        assert_matches_fresh_pack(mg, "refilled")
        assert_matches_dense_reference(mg, "refilled")


class TestAggregationProductDifferential:
    """The int64-oracle check of PR 2, on the *mutated* operand."""

    def test_aggregate_product_matches_int_reference(self):
        n = 64
        mg = MutableGraph.from_csr(random_graph(n, 150, seed=11))
        rng = np.random.default_rng(11)
        mg.apply(random_stream(rng, n, 30))
        snap = mg.snapshot()
        dense = snap.packed.to_codes()[:n, :n]  # unpacked mutated operand
        codes = rng.integers(0, 16, size=(n, 12), dtype=np.int64)
        ref = matmul_int_reference(dense, codes)
        got = bitgemm_codes(dense, codes, 1, 4, engine="packed")
        np.testing.assert_array_equal(got, ref)
        # And the dense operand is exactly adjacency + identity.
        oracle_dense = mg.to_batch().dense_adjacency(self_loops=True)
        np.testing.assert_array_equal(dense, oracle_dense.astype(np.int64))


class TestLogitsDifferential:
    @pytest.mark.parametrize("rate", [1, 4, 16])
    def test_served_logits_match_fresh_pack_oracle(self, rate):
        """Incremental serve == fresh-pack forward, at several rates."""
        n, fdim, classes = 160, 8, 4
        graph = random_graph(n, 400, seed=21, feature_dim=fdim)
        model = make_cluster_gcn(fdim, classes, seed=2)
        session = DynamicSession(model, graph)
        rng = np.random.default_rng(300 + rate)
        for _ in range(4):
            session.mutate(random_stream(rng, n, rate))
            served = session.serve()
            batch = session.mutable.to_batch()
            oracle = quantized_forward(
                model,
                batch,
                feature_bits=session.engine.config.feature_bits,
                weight_bits=session.engine.config.effective_weight_bits,
                packed_adjacency=pack_batch_adjacency(batch),
                calibration=session.engine.calibration,
            )
            np.testing.assert_array_equal(served.logits, oracle.logits)
        assert session.stats.stale_kernel_hits == 0

"""Deterministic work budget of a ``blas``-routed 1-bit serving round.

Call counts, not seconds — it cannot flake on a slow host.  A warm round
does no bit-level work at all (no activation words, no adjacency scatter,
no decode, no word-wide ballot) and hashes each member once; a structure
miss scatters the adjacency exactly once and reads no word back.
"""

from __future__ import annotations

import hashlib
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import bitpack
from repro.gnn import make_cluster_gcn
from repro.graph import induced_subgraphs
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.serving import InferenceEngine, ServingConfig
from repro.serving import engine as engine_module


@pytest.fixture
def spies(monkeypatch):
    """Call counters on the bit-level workers, under every name they are
    imported by inside ``repro``."""
    counts = dict.fromkeys(
        ["pack_matrix", "pack_edges", "tile_nonzero_mask", "_csr_from_words", "blake2b"], 0
    )

    def counting(name, real):
        def spy(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return spy

    for name in ("pack_matrix", "pack_edges", "tile_nonzero_mask"):
        real = getattr(bitpack, name)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, name, None) is real
            ):
                monkeypatch.setattr(module, name, counting(name, real))
    monkeypatch.setattr(
        bitpack.Operand,
        "_csr_from_words",
        counting("_csr_from_words", bitpack.Operand._csr_from_words),
    )
    # Only the engine's member digests: verified cache segments hash too.
    monkeypatch.setattr(
        engine_module,
        "hashlib",
        SimpleNamespace(blake2b=counting("blake2b", hashlib.blake2b)),
    )
    return counts


def test_one_bit_blas_round_work_budget(spies):
    g = planted_partition_graph(
        320, 1800, num_communities=8, feature_dim=12, num_classes=3,
        rng=np.random.default_rng(11),
    )
    subgraphs = induced_subgraphs(g, metis_like_partition(g, 8))
    first, second = subgraphs[:4], subgraphs[4:]
    engine = InferenceEngine(
        make_cluster_gcn(12, 3), ServingConfig(feature_bits=1, engine="blas", batch_size=4)
    ).warm_up()

    def round_counts(members):
        for name in spies:
            spies[name] = 0
        results = engine.infer(members)
        return dict(spies), [r.logits for r in results]

    miss, cold_logits = round_counts(first)
    assert miss == {
        "pack_matrix": 0,
        "pack_edges": 1,
        "tile_nonzero_mask": 0,
        "_csr_from_words": 0,
        "blake2b": len(first),
    }
    warm, warm_logits = round_counts(first)
    assert warm == {
        "pack_matrix": 0,
        "pack_edges": 0,
        "tile_nonzero_mask": 0,
        "_csr_from_words": 0,
        "blake2b": len(first),
    }
    for cold, again in zip(cold_logits, warm_logits):
        np.testing.assert_array_equal(cold, again)
    # A second structure is a miss again: one scatter, nothing read back.
    assert round_counts(second)[0] == {**miss, "blake2b": len(second)}
    assert engine.stats.tiles_skipped > 0  # the ballot still feeds the counters

"""Concurrency stress: mutate while a ServingPool shard replays snapshots.

Snapshot isolation is the whole contract of :meth:`MutableGraph.snapshot`
and :meth:`MutableGraph.to_csr`: a structure captured at version *t* is a
frozen copy, so a pool worker replaying it must produce bit-identical
logits no matter how hard a mutator thread is rewriting the live planes
at the same time — and the live state must come out of the storm exactly
equal to a fresh pack of its final edge set.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.dynamic import MutableGraph
from repro.gnn.models import make_cluster_gcn
from repro.gnn.quantized import pack_batch_adjacency
from repro.graph.batching import Subgraph
from repro.graph.csr import CSRGraph
from repro.serving.engine import ServingConfig
from repro.serving.pool import PoolConfig, ServingPool


def feature_graph(n, edges, seed, feature_dim=8):
    rng = np.random.default_rng(seed)
    return CSRGraph.from_edges(
        n,
        rng.integers(0, n, size=(edges, 2)),
        features=rng.standard_normal((n, feature_dim)).astype(np.float32),
    )


def mutator(mg, n, rounds, seed, errors, done):
    rng = np.random.default_rng(seed)
    try:
        for _ in range(rounds):
            mg.apply(
                [
                    (
                        "insert" if rng.random() < 0.55 else "delete",
                        int(rng.integers(0, n)),
                        int(rng.integers(0, n)),
                    )
                    for _ in range(4)
                ]
            )
            mg.snapshot()  # publish under churn, too
    except BaseException as exc:  # pragma: no cover - failure path
        errors.append(exc)
    finally:
        done.set()


class TestMutateWhilePoolReplays:
    def test_replayed_snapshot_is_isolated_from_mutation_storm(self):
        n = 96
        mg = MutableGraph.from_csr(feature_graph(n, 250, seed=0))
        model = make_cluster_gcn(8, 4, seed=3)
        # Capture the structure at version t: the pool replays THIS.
        frozen = Subgraph(graph=mg.to_csr(), original_nodes=np.arange(n))
        errors: list[BaseException] = []
        done = threading.Event()
        with ServingPool(
            model,
            ServingConfig(feature_bits=8),
            pool=PoolConfig(workers=2),
        ) as pool:
            baseline = pool.serve([frozen])[0].logits.copy()
            thread = threading.Thread(
                target=mutator, args=(mg, n, 120, 7, errors, done)
            )
            thread.start()
            replays = 0
            while not done.is_set() or replays < 8:
                for result in pool.serve([frozen, frozen]):
                    np.testing.assert_array_equal(result.logits, baseline)
                    replays += 1
                if replays >= 64:
                    break
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert errors == []
        assert replays >= 8
        # The storm really mutated the live graph away from the capture...
        assert mg.version > 0
        # ...and the live incremental state survived it bit-for-bit.
        oracle = pack_batch_adjacency(mg.to_batch())
        snap = mg.snapshot()
        np.testing.assert_array_equal(snap.packed.words, oracle.packed.words)
        np.testing.assert_array_equal(snap.plan.masks[0], oracle.plan.masks[0])
        np.testing.assert_array_equal(snap.degrees, oracle.degrees)

    def test_snapshot_captured_mid_storm_is_frozen(self):
        n = 64
        mg = MutableGraph.from_csr(feature_graph(n, 150, seed=1))
        errors: list[BaseException] = []
        done = threading.Event()
        thread = threading.Thread(
            target=mutator, args=(mg, n, 60, 11, errors, done)
        )
        thread.start()
        captured = []
        while not done.is_set() or len(captured) < 4:
            snap = mg.snapshot()
            words_then = snap.packed.words.copy()
            captured.append((snap, words_then))
            if len(captured) >= 32:
                break
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert errors == []
        for snap, words_then in captured:
            # Frozen: writes raise, content never moved after capture.
            with pytest.raises(ValueError):
                snap.packed.words[0, 0] = 1
            np.testing.assert_array_equal(snap.packed.words, words_then)

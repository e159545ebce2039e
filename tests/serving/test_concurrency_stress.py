"""Seeded concurrency stress tests for the shared serving state.

The pool's correctness story rests on two shared, locked objects: the
``LRUCache`` weight segment (build exactly once, pool-wide) and the
``ActivationCalibration`` (exactly one thread freezes each quantize
site, however many sessions or pools share it — the bit-identity
guarantee).  Each test hammers one structure from many threads behind a
barrier (so the race window is real, not incidental) and asserts no
lost updates, no duplicate builds, and no deadlock — the module-level
``timeout`` marker turns a deadlock into a fast failure.
"""

from __future__ import annotations

import pickle
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.gnn import make_batched_gin
from repro.gnn import quantized
from repro.gnn.quantized import ActivationCalibration
from repro.graph import induced_subgraphs
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.plan.cache import LRUCache
from repro.serving import (
    InferenceEngine,
    PoolConfig,
    ServingConfig,
    ServingPool,
)

pytestmark = pytest.mark.timeout(300)

THREADS = 16


@pytest.fixture
def served(rng):
    """``(subgraphs, model)``: eight planted-partition structures and a GIN."""
    g = planted_partition_graph(
        192, 1200, num_communities=8, feature_dim=12, num_classes=3, rng=rng
    )
    subgraphs = induced_subgraphs(g, metis_like_partition(g, 8))
    return subgraphs, make_batched_gin(g.features.shape[1], 3, hidden_dim=16, seed=3)


def hammer(worker) -> None:
    """Run ``worker(thread_index)`` on THREADS threads behind one barrier."""
    barrier = threading.Barrier(THREADS)
    errors: list[BaseException] = []

    def target(index: int) -> None:
        try:
            barrier.wait()
            worker(index)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=target, args=(i,)) for i in range(THREADS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often: widen every race
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive(), "stress worker deadlocked"
    finally:
        sys.setswitchinterval(interval)
    if errors:
        raise errors[0]


class TestLRUCacheStress:
    def test_each_key_built_exactly_once_under_contention(self):
        keys = 32
        cache = LRUCache(64)
        builds: Counter = Counter()  # mutated only under the cache lock

        def worker(index: int) -> None:
            for k in range(keys):
                def build(k=k):
                    builds[k] += 1
                    return ("value", k)

                assert cache.get_or_build(("w", k), build) == ("value", k)

        hammer(worker)
        # No duplicate builds (a lost update would rebuild), no lost keys.
        assert dict(builds) == {k: 1 for k in range(keys)}
        assert sorted(cache.keys()) == [("w", k) for k in range(keys)]
        # Telemetry adds up: every lookup is a hit or the one miss that
        # built the key, and nothing was evicted from a roomy cache.
        stats = cache.stats
        assert stats.misses == keys
        assert stats.insertions == keys
        assert stats.evictions == 0
        assert stats.hits + stats.misses == THREADS * keys

    def test_mixed_put_get_keeps_counters_coherent(self):
        cache = LRUCache(8)

        def worker(index: int) -> None:
            for k in range(64):
                cache.put(("k", k % 16), index)
                cache.get(("k", (k + 1) % 16))

        hammer(worker)
        stats = cache.stats
        # No lost lookups: every get was counted a hit or a miss, and
        # every put was counted an insertion (replacements included).
        assert stats.hits + stats.misses == THREADS * 64
        assert stats.insertions == THREADS * 64
        # The cache is bounded even under concurrent inserts.
        assert len(cache.keys()) <= 8


class TestActivationCalibrationStress:
    def test_exactly_one_thread_freezes_each_site(self, rng):
        shared = ActivationCalibration()
        # Every thread brings *different* values to the same site: only
        # one calibration may win, or differently-coalesced executions
        # would quantize with different parameters.
        values = [
            np.asarray(rng.normal(size=(32, 8)), dtype=np.float64)
            for _ in range(THREADS)
        ]
        params_seen: list = [None] * THREADS

        def worker(index: int) -> None:
            for _ in range(8):
                _, params = shared.quantize("L0/agg", values[index], 8)
                params_seen[index] = params

        hammer(worker)
        assert len(shared.sites) == 1
        frozen = shared.sites[("L0/agg", 8)]
        assert all(p == frozen for p in params_seen)
        # Replays of a frozen site quantize deterministically.
        codes_a, _ = shared.quantize("L0/agg", values[0], 8)
        codes_b, _ = shared.quantize("L0/agg", values[0], 8)
        np.testing.assert_array_equal(codes_a, codes_b)

    def test_a_frozen_site_is_read_without_the_lock(self, rng):
        # The freeze checks twice: a frozen site is a plain dict read, so
        # a first touch elsewhere (which holds the lock while it
        # calibrates) never stalls replays of the sites already frozen.
        calibration = ActivationCalibration()
        values = np.asarray(rng.normal(size=(16, 4)), dtype=np.float64)
        frozen = calibration.params_for("L0/agg", values, 8)
        seen = []
        with calibration._lock:
            thread = threading.Thread(
                target=lambda: seen.append(
                    calibration.params_for("L0/agg", values * 3, 8)
                ),
                daemon=True,
            )
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive(), "a frozen site waited on the lock"
        assert seen == [frozen]

    def test_a_frozen_calibration_pickles_with_a_fresh_lock(self, rng):
        calibration = ActivationCalibration()
        values = np.asarray(rng.normal(size=(16, 4)), dtype=np.float64)
        calibration.params_for("L0/agg", values, 8)
        with calibration._lock:  # held here: the lock does not travel
            clone = pickle.loads(pickle.dumps(calibration))
        assert clone.sites == calibration.sites
        assert clone._lock.acquire(blocking=False)
        clone._lock.release()
        fresh = clone.params_for("L1/agg", values, 4)
        assert clone.sites[("L1/agg", 4)] == fresh
        assert len(calibration) == 1

    def test_two_pools_sharing_a_calibration_freeze_each_site_once(
        self, served, monkeypatch
    ):
        subgraphs, model = served
        # Two first touches meet inside ``calibrate``: with one lock per
        # pool both would calibrate the first site, each from its own
        # request, and each pool would bind its own parameters.  With the
        # calibration's own lock the second waits out the barrier outside.
        barrier = threading.Barrier(2, timeout=1.0)
        calibrate = quantized.calibrate

        def meet(values, bits):
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                pass
            return calibrate(values, bits)

        monkeypatch.setattr(quantized, "calibrate", meet)
        calibration = ActivationCalibration()
        config = ServingConfig(feature_bits=8, batch_size=1)
        pools = [
            ServingPool(
                model, config, pool=PoolConfig(workers=1), calibration=calibration
            )
            for _ in range(2)
        ]
        try:
            a, b = subgraphs[0], subgraphs[1]
            first = [pools[0].submit(a), pools[1].submit(b)]
            a_on_0, b_on_1 = (f.result(timeout=60) for f in first)
            b_on_0 = pools[0].submit(b).result(timeout=60)
            a_on_1 = pools[1].submit(a).result(timeout=60)
        finally:
            for pool in pools:
                pool.shutdown()
        np.testing.assert_array_equal(a_on_0, a_on_1)
        np.testing.assert_array_equal(b_on_0, b_on_1)
        sites = calibration.sites
        assert len(sites) == len({site for site, _ in sites})
        assert len(sites) == 2 * model.num_layers


class TestPoolUnderConcurrentSubmitters:
    def test_hammered_pool_is_bit_identical_to_single_engine(self, served):
        subgraphs, model = served
        calibration = ActivationCalibration()
        engine = InferenceEngine(
            model,
            ServingConfig(feature_bits=8, batch_size=4),
            calibration=calibration,
        )
        expected = [r.logits for r in engine.infer(subgraphs)]
        outputs: list = [None] * THREADS
        with ServingPool(
            model,
            ServingConfig(feature_bits=8, batch_size=4),
            pool=PoolConfig(workers=4),
            calibration=calibration,
        ) as pool:

            def worker(index: int) -> None:
                futures = [pool.submit(sub) for sub in subgraphs]
                outputs[index] = [f.result(timeout=120) for f in futures]

            hammer(worker)
            stats = pool.stats()
            assert stats.requests == THREADS * len(subgraphs)
        # Every submitter, racing every other, got the single engine's
        # bits — scheduling is never an accuracy decision.
        for got in outputs:
            assert got is not None
            for want, logits in zip(expected, got):
                np.testing.assert_array_equal(logits, want)

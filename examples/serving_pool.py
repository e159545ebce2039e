#!/usr/bin/env python
"""Serve a mixed-session workload through a sharded worker pool.

The scale-out story on top of ``examples/serving_session.py``: one
:class:`~repro.serving.InferenceEngine` is bounded by its plan cache, so
a workload mixing more distinct request structures than one session can
hold replays nothing — every round densifies, packs, ballots and
compiles again.  A :class:`~repro.serving.ServingPool` shards the stream
by structure digest across N workers: each shard's slice fits its
shard-local cache (steady state is pure plan replay), packed weights
live in one shared read-only segment, compiled plans broadcast through
the cross-worker exchange, and every shard records into and prices from
the one measured dispatch table the pool mounts.

Logits are bit-identical to the single engine for every request — the
pool is a throughput decision, never an accuracy decision.

Run:  python examples/serving_pool.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.gnn import make_batched_gin
from repro.gnn.quantized import ActivationCalibration
from repro.graph import induced_subgraphs
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.serving import InferenceEngine, PoolConfig, ServingConfig, ServingPool

WORKERS = 4
SESSIONS = 16          # distinct request structures in the mix
CYCLES = 3             # times the whole mix repeats
CACHE_CAPACITY = 8     # per-session plan/adjacency capacity (< SESSIONS)


def main() -> None:
    rng = np.random.default_rng(11)
    graph = planted_partition_graph(
        12800, 76800, num_communities=SESSIONS, feature_dim=8,
        num_classes=4, rng=rng,
    )
    structures = induced_subgraphs(graph, metis_like_partition(graph, SESSIONS))
    requests = structures * CYCLES
    model = make_batched_gin(graph.features.shape[1], 4, hidden_dim=8, seed=5)
    config = ServingConfig(
        feature_bits=1,
        batch_size=1,
        adjacency_cache_capacity=CACHE_CAPACITY,
        plan_cache_capacity=CACHE_CAPACITY,
    )
    print(f"workload: {len(requests)} requests — {SESSIONS} sessions of "
          f"~{structures[0].num_nodes}-node subgraphs, cycled {CYCLES}x; "
          f"per-session cache capacity {CACHE_CAPACITY}")

    # ---------------- single session: the workload outgrows it ----------- #
    calibration = ActivationCalibration()
    engine = InferenceEngine(model, config, calibration=calibration).warm_up()
    expected = engine.infer(requests)  # warm pass + the reference bits
    start = time.perf_counter()
    engine.infer(requests)
    single_s = time.perf_counter() - start
    plan = engine.stats.plan_cache
    print(f"\nsingle session : {len(requests) / single_s:7.1f} req/s "
          f"(plan cache {plan.hits} hits / {plan.misses} misses — "
          f"{SESSIONS} structures cycling through {CACHE_CAPACITY} slots "
          f"replay nothing)")

    # ---------------- sharded pool: slices fit the shard caches ---------- #
    pool = ServingPool(
        model, config, pool=PoolConfig(workers=WORKERS), calibration=calibration
    )
    pool.serve(requests)  # warm pass: fill the shard-local caches
    start = time.perf_counter()
    results = pool.serve(requests)
    pool_s = time.perf_counter() - start
    print(f"{WORKERS}-worker pool  : {len(results) / pool_s:7.1f} req/s "
          f"({single_s / pool_s:.1f}x) — structure-sharded, aggregate "
          f"capacity {WORKERS * CACHE_CAPACITY}")

    identical = all(
        np.array_equal(want.logits, got.logits)
        for want, got in zip(expected, results)
    )
    assert identical, "pool must reproduce the single session bit for bit"
    print("per-request logits: bit-identical to the single session")

    # ---------------- pool telemetry -------------------------------------- #
    stats = pool.stats()
    print(f"\npool telemetry after {stats.requests} pooled requests:")
    for worker in stats.per_worker:
        cache = worker.plan_cache
        print(f"  {worker.label}: {worker.requests:3d} requests, "
              f"{worker.batches:3d} rounds, plan cache {cache.hits}/"
              f"{cache.hits + cache.misses} hits, "
              f"{worker.wall_s * 1e3:6.1f} ms measured")
    print(f"  shared weight segment: "
          f"{pool.workers[0].weight_cache.stats.misses} packs "
          f"(once pool-wide), {pool.workers[0].weight_cache.stats.hits} hits")
    print(f"  plan exchange: {stats.plans_published} plans broadcast, "
          f"{stats.plans_adopted} adopted by sibling shards")
    print(f"  dispatch table: one object mounted by every shard, "
          f"{pool.workers[0].dispatch_table.sample_count()} samples")
    print(f"  backend attribution: " + ", ".join(
        f"{name} {seconds * 1e3:.1f} ms"
        for name, seconds in sorted(stats.backend_seconds.items())
    ))
    pool.shutdown()
    print("\npool shut down")


if __name__ == "__main__":
    main()

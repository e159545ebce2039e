"""Pool throughput: a sharded worker pool vs a single serving session.

The systems point of the ``ServingPool``: a single
:class:`~repro.serving.InferenceEngine` is bounded by its plan cache —
on a *mixed-session* workload whose distinct batch structures outnumber
the ``adjacency``/``plan`` segment capacity, LRU cycling makes every
round a miss (pack + ballot + compile, every time).  Sharding
the same stream by structure digest across 4 workers partitions the
working set: each shard's slice fits its shard-local cache, so steady
state is pure plan replay — while packed weights stay shared (one copy,
one pack) and the shards keep each other's dispatch tables warm.

Both paths are measured host wall-clock of this process serving the
identical request stream with one shared frozen calibration, so the
per-request logits are bit-identical by construction — which the
benchmark asserts entry for entry.

What this benchmark no longer asserts: a wall-clock floor.  The 1.3x
floor was defended twice by growing the graph (25.6k -> 38.4k nodes)
until the O(n^2) densify+pack miss dominated the thrashing single
session.  That premise is gone: the adjacency is packed straight from
CSR in O(E + n^2/32), so the miss penalty the pool amortised is small
next to execution and four thread workers contend for the interpreter
lock instead.  The ratio is still emitted (``speedup``) with the premise
stated in the record, but it gates nothing; pool throughput is tracked
end to end, against the fp32 yardstick, by the ``gateway_open`` workload
of ``benchmarks/e2e``.

Asserted, all structural: bit-identical per-request logits, the single
session genuinely thrashes (misses > hits), every shard replays from its
local cache (hits > misses), and the PAG attributes >= 95% of the pool's
execution wall-clock.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.gnn import make_batched_gin
from repro.gnn.quantized import ActivationCalibration
from repro.graph import induced_subgraphs
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.perf import build_pag
from repro.serving import InferenceEngine, PoolConfig, ServingConfig, ServingPool

#: 1-bit keeps per-request *execution* cheap (one plane pair per GEMM)
#: while the per-distinct-batch artifact cost — pack + census + compile —
#: is bitwidth-independent, which is exactly the cost the shard-local
#: caches amortize and a thrashing session pays per round.
FEATURE_BITS = 1
WORKERS = 4
#: Distinct request structures in the mix (concurrent "sessions").
DISTINCT_STRUCTURES = 16
#: Times the whole mix is replayed per measured pass.
CYCLES = 3
#: Per-shard adjacency/plan cache capacity — deliberately smaller than
#: the workload mix (16 distinct structures), so one engine thrashes
#: while 4 shards (aggregate capacity 32) hold their slices warm.
CACHE_CAPACITY = 8
#: Passes per measured path; best-of-N damps scheduler noise.
PASSES = 5
#: Graph size: 16 structures of ~2.4k nodes, so a miss (pack + compile)
#: stays visible next to the 1-bit execution it precedes.
NODES = 38400
EDGES = 225000


def run_pool_throughput() -> dict:
    rng = np.random.default_rng(0xA11CE)
    graph = planted_partition_graph(
        NODES,
        EDGES,
        num_communities=DISTINCT_STRUCTURES,
        feature_dim=8,
        num_classes=4,
        rng=rng,
    )
    structures = induced_subgraphs(
        graph, metis_like_partition(graph, DISTINCT_STRUCTURES)
    )
    requests = structures * CYCLES
    model = make_batched_gin(graph.features.shape[1], 4, hidden_dim=8, seed=5)
    config = ServingConfig(
        feature_bits=FEATURE_BITS,
        batch_size=1,
        adjacency_cache_capacity=CACHE_CAPACITY,
        plan_cache_capacity=CACHE_CAPACITY,
    )

    # One shared calibration, frozen before any measured pass: every path
    # below computes bit-identical logits for the same request.
    calibration = ActivationCalibration()
    engine = InferenceEngine(model, config, calibration=calibration).warm_up()
    expected = engine.infer(requests)  # warm pass (and the reference bits)

    single_times = []
    for _ in range(PASSES):
        start = time.perf_counter()
        single_results = engine.infer(requests)
        single_times.append(time.perf_counter() - start)
    single_s = min(single_times)

    pool = ServingPool(
        model,
        config,
        pool=PoolConfig(workers=WORKERS),
        calibration=calibration,
    )
    # The per-shard slices must actually fit the shard caches, or the
    # "aggregate capacity" story above is not what is being measured.
    shard_load = [0] * WORKERS
    for i, sub in enumerate(structures):
        shard_load[pool.shard_of(sub, i)] += 1
    assert max(shard_load) <= CACHE_CAPACITY, shard_load

    pool.serve(requests)  # warm pass: fill the shard-local caches
    pool_times = []
    for _ in range(PASSES):
        start = time.perf_counter()
        pool_results = pool.serve(requests)
        pool_times.append(time.perf_counter() - start)
    pool_s = min(pool_times)

    identical = all(
        np.array_equal(want.logits, got.logits)
        for want, got in zip(expected, pool_results)
    ) and all(
        np.array_equal(want.logits, got.logits)
        for want, got in zip(expected, single_results)
    )

    stats = pool.stats()
    single_plan = engine.stats.plan_cache.snapshot()
    per_worker = [
        (w.label, w.requests, w.batches, w.plan_cache.hits, w.plan_cache.misses)
        for w in stats.per_worker
    ]
    # Perf-report health: the PAG's phase attribution must account for
    # (nearly) every measured second the pool spent executing.
    pag_coverage = build_pag(pool).coverage()
    pool.shutdown()
    return {
        "requests": len(requests),
        "distinct": DISTINCT_STRUCTURES,
        "capacity": CACHE_CAPACITY,
        "shard_load": shard_load,
        "single_s": single_s,
        "pool_s": pool_s,
        "single_times": single_times,
        "pool_times": pool_times,
        "speedup": single_s / pool_s,
        "single_req_per_s": len(requests) / single_s,
        "pool_req_per_s": len(requests) / pool_s,
        "identical": identical,
        "single_plan_hits": single_plan.hits,
        "single_plan_misses": single_plan.misses,
        "per_worker": per_worker,
        "pag_coverage": pag_coverage,
    }


def format_pool_throughput(r: dict) -> str:
    lines = [
        f"Pool throughput: {WORKERS}-worker sharded pool vs single session "
        f"({r['requests']} requests over {r['distinct']} structures, "
        f"per-session plan-cache capacity {r['capacity']})",
        f"{'path':<30} {'total ms':>10} {'req/s':>10}",
        f"{'single engine (thrashing)':<30} {r['single_s'] * 1e3:>10.1f} "
        f"{r['single_req_per_s']:>10.1f}",
        f"{'4-worker pool (sharded)':<30} {r['pool_s'] * 1e3:>10.1f} "
        f"{r['pool_req_per_s']:>10.1f}",
        f"speedup: {r['speedup']:.2f}x   bit-identical logits: {r['identical']}"
        f"   PAG phase coverage: {r['pag_coverage']:.3f}",
        "per-worker (requests, batches, plan hits/misses): "
        + "  ".join(
            f"{label}: {req}r {bat}b {hits}/{misses}"
            for label, req, bat, hits, misses in r["per_worker"]
        ),
    ]
    return "\n".join(lines)


def test_pool_throughput(benchmark, once, report, bench_json):
    r = once(benchmark, run_pool_throughput)
    report(benchmark, format_pool_throughput(r))
    benchmark.extra_info["speedup"] = r["speedup"]
    single_median = statistics.median(r["single_times"])
    pool_median = statistics.median(r["pool_times"])
    bench_json(
        "pool",
        {
            "benchmark": "pool_throughput",
            "workers": WORKERS,
            "passes": PASSES,
            "requests": r["requests"],
            "distinct_structures": r["distinct"],
            "cache_capacity": r["capacity"],
            "feature_bits": FEATURE_BITS,
            "single_s": {"best": r["single_s"], "median": single_median},
            "pool_s": {"best": r["pool_s"], "median": pool_median},
            "speedup": {
                "best": r["speedup"],
                "median": single_median / pool_median,
            },
            "pool_req_per_s": r["pool_req_per_s"],
            "bit_identical": r["identical"],
            "pag_coverage": r["pag_coverage"],
            "premise": (
                "The miss penalty the pool amortised was the O(n^2) "
                "densify+pack; the adjacency now packs from CSR in "
                "O(E + n^2/32), so speedup is recorded, not gated. Pool "
                "throughput is tracked by the e2e gateway_open workload."
            ),
        },
    )

    # Per-request logits are bit-identical across single engine and pool.
    assert r["identical"], "pool logits diverged from the single engine"
    # The single engine genuinely thrashed (the workload outgrew it)...
    assert r["single_plan_misses"] > r["single_plan_hits"]
    # ...while the shards replayed from their local caches.
    for label, _req, _bat, hits, misses in r["per_worker"]:
        assert hits > misses, f"{label} did not reach steady-state replay"
    # The perf report's phase attribution accounts for >= 95% of the
    # pool's measured execution wall-clock.
    assert r["pag_coverage"] >= 0.95, (
        f"PAG attributes only {r['pag_coverage']:.3f} of pool wall-clock"
    )

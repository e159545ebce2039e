"""Serving reuse: warm-cache session throughput vs the cold one-shot path.

The system-level realization of Figure 10's argument: bit-packed operands
should be built once and reused.  The *cold* path is what the repo's
experiment scripts did before the serving subsystem — every request
re-calibrates, re-quantizes and re-packs the model weights and runs alone.
The *warm* path serves the same request stream through an
:class:`~repro.serving.InferenceEngine` session in steady state: packed
weight planes held in the LRU cache, requests coalesced into batched-GIN
rounds, every bit-GEMM dispatched by the cost model.

Both paths are measured host wall-clock of this process (not modeled
device time); the recorded ``speedup.median`` is gated by
``repro.perf.regression`` (the CI regression-gate step), not here.
"""

from __future__ import annotations

import statistics
import time

from repro.gnn import make_batched_gin, quantized_forward
from repro.graph import batch_subgraphs, induced_subgraphs, load_dataset
from repro.partition import partition_graph
from repro.serving import InferenceEngine, ServingConfig

FEATURE_BITS = 8
NUM_PARTS = 48
BATCH_SIZE = 8
#: Passes per measured path; best-of-N damps scheduler noise on shared
#: CI runners.
PASSES = 3


def run_serving_reuse() -> dict:
    graph = load_dataset("PPI", scale=0.02)
    result = partition_graph(graph, NUM_PARTS, method="metis")
    subgraphs = induced_subgraphs(graph, result.assignment)
    model = make_batched_gin(graph.feature_dim, graph.num_classes)

    # Cold: the pre-serving one-shot path, one request at a time.
    singles = [next(batch_subgraphs([s], 1)) for s in subgraphs]
    cold_times = []
    for _ in range(PASSES):
        start = time.perf_counter()
        for single in singles:
            quantized_forward(model, single, feature_bits=FEATURE_BITS)
        cold_times.append(time.perf_counter() - start)
    cold_s = min(cold_times)

    # Warm: a serving session in steady state.  The first pass pays the
    # one-time session costs (weight packing, plan compilation,
    # calibration); the measured passes replay the same request stream —
    # and its cached plans — against the warm cache.
    engine = InferenceEngine(
        model,
        ServingConfig(feature_bits=FEATURE_BITS, batch_size=BATCH_SIZE),
    ).warm_up()
    engine.infer(subgraphs)
    cache_after_first_pass = engine.stats.weight_cache.snapshot()
    warm_times = []
    for _ in range(PASSES):
        start = time.perf_counter()
        results = engine.infer(subgraphs)
        warm_times.append(time.perf_counter() - start)
    warm_s = min(warm_times)

    return {
        "requests": len(subgraphs),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold_times": cold_times,
        "warm_times": warm_times,
        "speedup": cold_s / warm_s,
        "cold_req_per_s": len(subgraphs) / cold_s,
        "warm_req_per_s": len(subgraphs) / warm_s,
        "cache_first_pass": cache_after_first_pass,
        "cache": engine.stats.weight_cache.snapshot(),
        "plan_cache": engine.stats.plan_cache.snapshot(),
        "total_batches": engine.stats.batches,
        "num_layers": model.num_layers,
        "results": len(results),
    }


def format_serving_reuse(r: dict) -> str:
    lines = [
        "Serving reuse: warm-cache session vs cold one-shot path "
        f"({r['requests']} batched-GIN requests, {FEATURE_BITS}-bit)",
        f"{'path':<28} {'total ms':>10} {'req/s':>10}",
        f"{'cold (re-pack per request)':<28} {r['cold_s'] * 1e3:>10.1f} "
        f"{r['cold_req_per_s']:>10.1f}",
        f"{'warm (cached + coalesced)':<28} {r['warm_s'] * 1e3:>10.1f} "
        f"{r['warm_req_per_s']:>10.1f}",
        f"speedup: {r['speedup']:.2f}x   "
        f"weight cache: {r['cache'].hits} hits / {r['cache'].misses} misses "
        f"(hit rate {100 * r['cache'].hit_rate:.1f}%)",
    ]
    return "\n".join(lines)


def test_serving_reuse(benchmark, once, report, bench_json):
    r = once(benchmark, run_serving_reuse)
    report(benchmark, format_serving_reuse(r))
    benchmark.extra_info["speedup"] = r["speedup"]
    cold_median = statistics.median(r["cold_times"])
    warm_median = statistics.median(r["warm_times"])
    bench_json(
        "serving",
        {
            "benchmark": "serving_reuse",
            "passes": PASSES,
            "requests": r["requests"],
            "feature_bits": FEATURE_BITS,
            "cold_s": {"best": r["cold_s"], "median": cold_median},
            "warm_s": {"best": r["warm_s"], "median": warm_median},
            "speedup": {
                "best": r["speedup"],
                "median": cold_median / warm_median,
            },
            "warm_req_per_s": r["warm_req_per_s"],
            "weight_cache": {
                "hits": r["cache"].hits,
                "misses": r["cache"].misses,
            },
            "plan_cache": {
                "hits": r["plan_cache"].hits,
                "misses": r["plan_cache"].misses,
            },
        },
    )

    # Every request came back.
    assert r["results"] == r["requests"]
    # Weights were packed exactly once per layer (at warm-up), then only hit:
    # every executed batch looks up every layer and finds it cached.
    assert r["cache_first_pass"].misses == r["num_layers"]
    assert r["cache"].misses == r["num_layers"]
    assert r["cache"].evictions == 0
    assert r["cache"].hits == r["num_layers"] * r["total_batches"]
    # Plans compiled once per distinct round, then replayed from cache.
    assert r["plan_cache"].hits > 0
    assert r["plan_cache"].evictions == 0

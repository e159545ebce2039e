"""Every name the benchmark emits, declared once.

``BENCHMARK.json`` at the repo root is ``benchmark_manifest()`` written
out; the self-tests assert the two agree and that every run emits exactly
these names.
"""

from __future__ import annotations

#: Workload name -> why it is in the benchmark (one line each).
WORKLOADS = {
    "replay8": (
        "warm 8-bit PPI plan replay, one closed-loop client: gemm is ~0.8 "
        "of engine time, so GEMM/backend changes must show here and "
        "packing or queueing changes must not"
    ),
    "cold_structures": (
        "1-bit rounds of ~2.4k nodes cycled through caches of capacity 2, "
        "every round a miss: pack_adjacency and plan compile dominate, so "
        "packing and codegen-lowering cost and peak_rss_mb move here"
    ),
    "gateway_open": (
        "2-worker pool behind the gateway: open-loop Poisson arrivals at a "
        "fixed 50 req/s, then closed-loop saturation; about half of p50 is "
        "admission, queue and coalesce wait, GEMM is little"
    ),
    "dynamic_rounds": (
        "DynamicSession mutate(8 edits)+serve rounds: incremental bit "
        "flips, dirty-tile re-ballot and plan patching through the third "
        "executor copy, beside cold_structures' bulk builds"
    ),
}

#: (name, unit, better, regression bound as a share of the parent median).
#: Only metrics the host's speed does not move carry a bound (README, "How
#: steady it is"): absolute throughput and latency drift by a third within
#: the hour on the 2-core VM this was written on, so they are reported
#: unbounded, as the first rows of ``PER_LAYER``.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("vs_fp32", "ratio", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

#: Registered backends the dispatcher may route to (``tensorcore8`` is
#: permanently vetoed, so it has no host time to report).
BACKENDS = ("packed", "blas", "sparse", "einsum", "codegen", "csr")

_BACKEND_LAYERS = tuple(
    (f"plan.backends.{name}.{role}_ms", "ms", "lower")
    for name in BACKENDS
    for role in ("agg", "upd")
) + tuple((f"plan.dispatch.mix.{name}", "share", "higher") for name in BACKENDS)

#: (name, unit, better): the workload's entry point, measured with recording
#: off — by every run, and reported by the traced run ahead of the layers.
ENTRY_POINT = (
    ("req_per_s", "1/s", "higher"),
    ("lat_p50_ms", "ms", "lower"),
    ("lat_p75_ms", "ms", "lower"),
)

#: (name, unit, better).  A metric a workload does not exercise reads 0.
PER_LAYER = (
    *ENTRY_POINT,
    ("graph.batching.coalesce_ms", "ms", "lower"),
    ("gnn.quantized.pack_adjacency_ms", "ms", "lower"),
    ("gnn.quantized.pack_peak_mb", "MiB", "lower"),
    ("core.bitpack.packed_mb", "MiB", "lower"),
    ("plan.ir.compile_ms", "ms", "lower"),
    ("codegen.prepare_ms", "ms", "lower"),
    ("runtime.executor.modeled_report_ms", "ms", "lower"),
    ("exec.quantize_ms", "ms", "lower"),
    ("exec.pack_ms", "ms", "lower"),
    ("exec.census_ms", "ms", "lower"),
    ("exec.gemm_ms", "ms", "lower"),
    ("exec.epilogue_ms", "ms", "lower"),
    ("exec.activation_ms", "ms", "lower"),
    ("exec.gemm_share", "share", "lower"),
    *_BACKEND_LAYERS,
    ("plan.dispatch.stale_after_settle", "count", "lower"),
    ("plan.cache.plan_hit_rate", "share", "higher"),
    ("plan.cache.adjacency_hit_rate", "share", "higher"),
    ("plan.cache.weight_hit_rate", "share", "higher"),
    ("plan.cache.evictions", "count", "lower"),
    ("serving.engine.glue_share", "share", "lower"),
    ("serving.engine.drive_ratio", "ratio", "lower"),
    ("serving.pool.busy_share", "share", "higher"),
    ("serving.pool.occupancy", "req/round", "higher"),
    ("serving.pool.imbalance", "ratio", "lower"),
    ("serving.gateway.wait_ms_p50", "ms", "lower"),
    ("serving.gateway.shed_share", "share", "lower"),
    ("serving.gateway.lat_p95_ms", "ms", "lower"),
    ("serving.gateway.gen_lag_ms_p95", "ms", "lower"),
    ("serving.gateway.r100_p50_ms", "ms", "lower"),
    ("dynamic.mutable.apply_ms", "ms", "lower"),
    ("dynamic.mutable.snapshot_ms", "ms", "lower"),
    ("dynamic.mutable.tiles_per_mutation", "count", "lower"),
    ("dynamic.session.mutate_ms_p50", "ms", "lower"),
    ("dynamic.session.serve_ms_p50", "ms", "lower"),
    ("dynamic.session.patch_share", "share", "higher"),
    ("dynamic.session.stale_kernel_hits", "count", "lower"),
    ("gnn.reference.req_per_s", "1/s", "higher"),
    ("gnn.quantized.rel_err_vs_fp32", "ratio", "lower"),
    # Modeled RTX 3090 time, not host time: its own unit keeps the two
    # clocks apart (it repeats exactly for a seed; a measured time cannot).
    ("tc.modeled_device_ms", "modeled_ms", "lower"),
    ("tc.mma_ops", "count", "lower"),
    ("tc.tile_skip_share", "share", "higher"),
    ("repo.src_loc", "count", "lower"),
    ("trace_overhead", "ratio", "lower"),
    ("ledger_valid", "count", "higher"),
    ("traced_ops", "count", "higher"),
)

#: Seconds one contract run measures (``--seconds``).  The driver makes
#: 4 + 22 x 4 runs inside 3420 s, so a run — three set-ups, the window,
#: imports and the oracle — has ~37 s; 12 s leaves room for a slow host.
RUN_SECONDS = 12


def benchmark_manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def unit_of(name: str) -> str:
    """The declared unit of a metric name."""
    for row in END_TO_END + PER_LAYER:
        if row[0] == name:
            return row[1]
    raise KeyError(name)


if __name__ == "__main__":  # python3 benchmarks/e2e/metrics.py > BENCHMARK.json
    import json

    print(json.dumps(benchmark_manifest(), indent=2))

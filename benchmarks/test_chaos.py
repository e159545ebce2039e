"""Chaos benchmark: serving correctness and throughput under injected faults.

The fault-tolerance capstone.  The same open-loop workload is served
twice through a supervised pool behind a retrying gateway — once
fault-free, once with a seeded :class:`~repro.faultinject.FaultPlan`
arming a ~1% kernel-failure rate plus exactly one mid-run worker kill —
and the two runs are compared:

* **zero lost or corrupted requests** — every submitted request
  completes, and every completed request's logits are bit-identical to
  a fault-free single-engine reference under the shared frozen
  calibration.  Recovery (backend fallback, worker respawn + re-queue,
  gateway retry) is a latency mechanism, never a correctness mechanism.
* **bounded slowdown** — the faulty run's share of the fault-free
  run's throughput is recorded (``throughput_ratio``) and gated by
  ``repro.perf.regression``, not here.  Both
  runs use a cold pool (fresh shard caches), so the comparison is
  symmetric and the ratio measures the cost of the faults themselves.
* **the faults actually happened** — the plan records kernel fires and
  the worker kill, and the pool's stats show the respawn; a chaos run
  that injected nothing proves nothing.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.faultinject import FaultPlan, FaultSpec
from repro.gnn import make_batched_gin
from repro.gnn.quantized import ActivationCalibration
from repro.graph import induced_subgraphs
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.serving import (
    GatewayConfig,
    InferenceEngine,
    PoolConfig,
    ServingConfig,
    ServingGateway,
    ServingPool,
)

#: 1-bit features keep per-request execution ms-scale, so the measured
#: slowdown is the recovery machinery's, not the GEMMs'.
FEATURE_BITS = 1
WORKERS = 2
DISTINCT_STRUCTURES = 12
#: Open-loop requests per run (the structures, cycled).
N_REQUESTS = 144
#: Seeded probability that one GEMM-step attempt fails (plus one exact
#: early fire so the step-recovery path is always exercised).
KERNEL_FAULT_RATE = 0.01
#: Worker-site probe index of the single injected worker kill.  Workers
#: probe the site once per drained round (``_Worker._execute``), so this
#: lands mid-run.
WORKER_KILL_AT = 24
#: Passes per variant (best-of; fresh cold pool each pass) so one
#: interference-hit window cannot masquerade as a recovery-cost
#: regression.
PASSES = 2


def make_fault_plan() -> FaultPlan:
    """The chaos schedule: ~1% kernel failures + one mid-run worker kill."""
    return FaultPlan(
        seed=0xC405,
        specs=[
            FaultSpec("kernel", rate=KERNEL_FAULT_RATE, at=(5,)),
            FaultSpec("worker", at=(WORKER_KILL_AT,), max_fires=1),
        ],
    )


def run_pass(model, config, calibration, requests, expected, fault_plan):
    """Serve the workload through one cold pool + gateway; returns the
    elapsed seconds and telemetry (asserting nothing lost or corrupted)."""
    with ServingPool(
        model,
        config,
        pool=PoolConfig(workers=WORKERS, supervise_interval_s=0.01),
        calibration=calibration,
        fault_plan=fault_plan,
    ) as pool:
        gateway = ServingGateway(
            pool,
            GatewayConfig(
                max_in_flight=32, queue_timeout_s=30.0, max_retries=5
            ),
        )
        start = time.perf_counter()
        results = asyncio.run(gateway.serve(requests))
        elapsed = time.perf_counter() - start
        pool_stats = pool.stats()
        gateway_stats = gateway.stats()
    assert len(results) == len(requests), "a request was lost"
    corrupted = sum(
        not np.array_equal(reply.logits, expected[i].logits)
        for i, reply in enumerate(results)
    )
    assert corrupted == 0, f"{corrupted} requests returned corrupted logits"
    return {
        "elapsed_s": elapsed,
        "throughput_rps": len(requests) / elapsed,
        "step_retries": pool_stats.step_retries,
        "respawns": pool_stats.respawns,
        "requeued": pool_stats.requeued,
        "gateway_retries": gateway_stats.retries,
        "gateway_failures": gateway_stats.failures,
    }


def run_chaos() -> dict:
    rng = np.random.default_rng(0xC0C0)
    graph = planted_partition_graph(
        2048,
        12000,
        num_communities=DISTINCT_STRUCTURES,
        feature_dim=8,
        num_classes=4,
        rng=rng,
    )
    structures = induced_subgraphs(
        graph, metis_like_partition(graph, DISTINCT_STRUCTURES)
    )
    requests = (structures * (N_REQUESTS // len(structures) + 1))[:N_REQUESTS]
    model = make_batched_gin(graph.features.shape[1], 4, hidden_dim=8, seed=5)
    config = ServingConfig(feature_bits=FEATURE_BITS, batch_size=2)

    # One fault-free reference engine freezes the calibration and pins
    # the ground-truth bits every pass below must reproduce.
    calibration = ActivationCalibration()
    reference = InferenceEngine(model, config, calibration=calibration)
    expected = reference.infer(requests)

    clean_passes, faulty_passes, plans = [], [], []
    for _ in range(PASSES):
        clean_passes.append(
            run_pass(model, config, calibration, requests, expected, None)
        )
        plan = make_fault_plan()
        faulty_passes.append(
            run_pass(model, config, calibration, requests, expected, plan)
        )
        plans.append(plan)
    clean = max(clean_passes, key=lambda p: p["throughput_rps"])
    # Best faulty pass by throughput; the bit-identity and zero-lost
    # assertions already ran inside *every* pass.
    best = max(range(PASSES), key=lambda i: faulty_passes[i]["throughput_rps"])
    faulty, plan = faulty_passes[best], plans[best]
    snapshot = plan.snapshot()
    return {
        "clean": clean,
        "faulty": faulty,
        "throughput_ratio": (
            faulty["throughput_rps"] / clean["throughput_rps"]
        ),
        "kernel_fires": snapshot["kernel"]["fires"],
        "worker_fires": snapshot["worker"]["fires"],
        "fault_sites": snapshot,
    }


def format_chaos(r: dict) -> str:
    lines = [
        f"Chaos run ({N_REQUESTS} open-loop requests, {WORKERS} workers, "
        f"kernel fault rate {KERNEL_FAULT_RATE:.0%}, one worker kill at "
        f"probe {WORKER_KILL_AT})",
        f"{'variant':<12} {'req/s':>8} {'retries':>8} {'respawns':>9} "
        f"{'requeued':>9}",
    ]
    for name in ("clean", "faulty"):
        s = r[name]
        lines.append(
            f"{name:<12} {s['throughput_rps']:>8.1f} "
            f"{s['step_retries']:>8} {s['respawns']:>9} {s['requeued']:>9}"
        )
    lines.append(
        f"throughput kept under faults: {r['throughput_ratio']:.2f}x   "
        f"kernel fires: {r['kernel_fires']}   "
        f"worker kills: {r['worker_fires']}   lost: 0   corrupted: 0"
    )
    return "\n".join(lines)


def test_chaos(benchmark, once, report, bench_json):
    r = once(benchmark, run_chaos)
    report(benchmark, format_chaos(r))
    benchmark.extra_info["throughput_ratio"] = r["throughput_ratio"]
    bench_json(
        "chaos",
        {
            "benchmark": "chaos",
            "workers": WORKERS,
            "requests": N_REQUESTS,
            "feature_bits": FEATURE_BITS,
            "kernel_fault_rate": KERNEL_FAULT_RATE,
            "worker_kill_at": WORKER_KILL_AT,
            "clean": r["clean"],
            "faulty": r["faulty"],
            "fault_sites": r["fault_sites"],
            "throughput_ratio": r["throughput_ratio"],
        },
    )

    # The chaos actually happened: kernel faults fired (the exact `at`
    # fire plus whatever the 1% rate seeded) and the one worker kill was
    # delivered and recovered by a supervision respawn.
    assert r["kernel_fires"] >= 1, "no kernel fault ever fired"
    assert r["worker_fires"] == 1, "the worker kill did not fire exactly once"
    assert r["faulty"]["respawns"] >= 1, "supervision never respawned a worker"
    assert r["faulty"]["step_retries"] >= 1, "no step was retried on fallback"
    # Zero lost / corrupted is asserted inside every pass.

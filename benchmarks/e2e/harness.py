"""Set a workload up, measure it in one mode, check its outputs.

The importable half of the benchmark (``run.py`` is the command line):
nothing here touches the environment or ``sys.path``.
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from repro.plan.autotune import host_fingerprint

from . import ledger, metrics
from .spans import SpanRecorder
from .stats import median, percentile_or_zero
from .workloads import WORKLOADS, Window, Workload

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
REPO = Path(__file__).resolve().parent.parent.parent
OUT_DIR = REPO / "benchmarks" / "out"


def header(seed: int) -> dict:
    """What a record says about where and on what it was measured."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "host_fingerprint": host_fingerprint(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unpinned"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "seed": seed,
        "repo.src_loc": ledger.src_loc(REPO),
    }


#: Share of the traced run's seconds spent measuring the entry point with
#: recording off; the layer drive gets the rest.
ENTRY_POINT_SHARE = 0.4


def end_to_end(window: Window, setup_times: list[float]) -> dict[str, float]:
    """The bounded metrics of one untraced window."""
    return {
        "setup_s": median(setup_times),
        # Paired pass by pass and counted in CPU seconds: a host that slows
        # down slows the reference pass right after the system's alike.
        "vs_fp32": median(window.cost_ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def entry_point(window: Window) -> dict[str, float]:
    """Absolute throughput and latency of the workload's entry point — the
    host's speed moves them, so they carry no bound.  A percentile the
    window is too short to support reads 0."""
    return {
        "req_per_s": median(window.pass_rates),
        "lat_p50_ms": 1e3 * median(window.latencies_s),
        "lat_p75_ms": 1e3 * percentile_or_zero(window.latencies_s, 75.0),
    }


def prepare(
    name: str, seed: int, *, repeats: int, quick: bool = False
) -> tuple[Workload, list[float]]:
    """Generate and set up a workload ``repeats`` times (the last set-up is
    the one measured); returns it with every set-up's seconds."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, quick=quick, out_dir=OUT_DIR)
    setup_times: list[float] = []
    for repeat in range(repeats):
        if repeat:
            workload.teardown()
        start = time.perf_counter()
        workload.generate()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    workload.prepare_oracle()
    return workload, setup_times


def measure(
    workload: Workload, setup_times: list[float], seconds: float, trace: bool
) -> dict:
    """One mode of one set-up workload, as the result object ``run.py``
    prints: tracing off gives the end-to-end metrics, the traced run the
    per-layer ledger (its spans go to ``benchmarks/out/``)."""
    if trace:
        window = workload.window(ENTRY_POINT_SHARE * seconds)
        recorder = SpanRecorder()
        values, identical = ledger.run_ledger(
            workload, (1.0 - ENTRY_POINT_SHARE) * seconds, recorder, REPO
        )
        recorder.dump(OUT_DIR / f"e2e_trace_{workload.name}.json")
        values.update(entry_point(window))
        attempted = window.attempted + int(values["traced_ops"])
        failed = window.failed + int(not identical)
    else:
        window = workload.window(seconds)
        values = end_to_end(window, setup_times)
        attempted = window.attempted
        failed = window.failed
        print(
            f"samples: {len(window.latencies_s)} latencies, "
            f"{len(window.pass_rates)} passes; set-ups: "
            + ", ".join(f"{s:.2f}s" for s in setup_times)
            + "; entry point (unbounded): "
            + ", ".join(f"{k} {v:.4g}" for k, v in entry_point(window).items())
        )
    if not workload.mix_stable or workload.stale_after_settle:
        print(
            f"warning: dispatch did not settle ({workload.stale_after_settle}"
            f" stale plans, mix stable: {workload.mix_stable})",
            file=sys.stderr,
        )
    return {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": metrics.unit_of(key)}
            for key, value in values.items()
        },
    }


def run_single(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """Set up one workload, measure it in one mode, and check its outputs."""
    repeats = 1 if trace or quick else SETUP_REPEATS
    workload, setup_times = prepare(name, seed, repeats=repeats, quick=quick)
    try:
        return measure(workload, setup_times, seconds, trace)
    finally:
        workload.teardown()


def format_metrics(result: dict) -> str:
    """Every metric of a result by name, with unit and direction."""
    directions = {row[0]: row[2] for row in metrics.END_TO_END + metrics.PER_LAYER}
    lines = [
        f"  {key:<40} {entry['value']:>14.6g} {entry['unit']:<10}"
        f" ({directions[key]} is better)"
        for key, entry in result["metrics"].items()
    ]
    lines.append(f"  ops_attempted {result['attempted']}  ops_failed {result['failed']}")
    return "\n".join(lines)

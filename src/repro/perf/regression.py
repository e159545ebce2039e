"""Benchmark-regression pass: current ``BENCH_*.json`` vs tracked baselines.

The benchmark harness (``benchmarks/``) emits one machine-readable
``BENCH_<name>.json`` per figure/claim; this module compares a directory
of fresh emissions against a directory of *tracked* baseline snapshots
(``benchmarks/baselines/`` in the repo) and fails when a curated
headline metric fell below its tolerance band.  The comparison is
ratio-based and one-sided — every curated metric is
higher-is-better, and only degradation fails (an improvement is a
reason to refresh the baseline, not an error).

Tolerances are deliberately wide (default 0.4, i.e. a metric may lose
up to 40% before failing): the benches time real wall-clock on shared
CI machines, and the pass exists to catch *structural* regressions — a
2x slowdown (ratio 0.5) is always flagged, scheduler noise never
should be.

Example::

    from repro.perf import compare_benchmarks

    result = compare_benchmarks("benchmarks/out", "benchmarks/baselines")
    if not result.ok:
        raise SystemExit(result.render())
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

from .passes import PassResult

__all__ = [
    "CURATED_METRICS",
    "DEFAULT_TOLERANCE",
    "compare_benchmarks",
    "refresh_baselines",
]

#: Metric may fall to ``(1 - tolerance)`` of baseline before failing.
DEFAULT_TOLERANCE = 0.4

#: Per-bench curated headline metrics (dotted paths into the payload).
#: All are higher-is-better ratios/speedups by construction, which is
#: what makes a one-sided band meaningful.
CURATED_METRICS: dict[str, tuple[str, ...]] = {
    "serving": ("speedup.median",),
    "latency": ("overload_p99_cut", "overload_throughput_ratio"),
    "chaos": ("throughput_ratio",),
    "dynamic": ("speedup.median",),
}


def _lookup(payload: dict, path: str):
    """Resolve a dotted path; ``None`` when any hop is missing."""
    node = payload
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _bench_name(path: Path) -> str:
    """``BENCH_pool.json`` -> ``pool``."""
    return path.stem[len("BENCH_"):]


def compare_benchmarks(
    bench_dir: str | Path,
    baseline_dir: str | Path,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> PassResult:
    """Compare fresh bench JSONs against tracked baselines.

    Iterates the *baseline* directory (tracked snapshots define the
    contract); a baseline whose fresh counterpart is absent is reported
    as skipped, never failed — benchmark jobs legitimately run subsets.
    Non-finite values on either side (the NaN an idle gateway's quantile
    propagates) skip that metric with a finding rather than producing a
    NaN ratio that silently passes every comparison.
    """
    bench_dir = Path(bench_dir)
    baseline_dir = Path(baseline_dir)
    if not 0.0 < tolerance < 1.0:
        raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")
    floor = 1.0 - tolerance
    findings = []
    ok = True
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    for baseline_path in baselines:
        name = _bench_name(baseline_path)
        current_path = bench_dir / baseline_path.name
        if not current_path.exists():
            findings.append({"bench": name, "status": "skipped (no fresh run)"})
            continue
        baseline = json.loads(baseline_path.read_text())
        current = json.loads(current_path.read_text())
        for metric in CURATED_METRICS.get(name, ()):
            base_value = _lookup(baseline, metric)
            cur_value = _lookup(current, metric)
            if base_value is None or cur_value is None:
                findings.append(
                    {"bench": name, "metric": metric, "status": "missing"}
                )
                continue
            base_value, cur_value = float(base_value), float(cur_value)
            if not (math.isfinite(base_value) and math.isfinite(cur_value)):
                findings.append(
                    {"bench": name, "metric": metric, "status": "non-finite"}
                )
                continue
            if base_value <= 0:
                findings.append(
                    {"bench": name, "metric": metric, "status": "bad baseline"}
                )
                continue
            ratio = cur_value / base_value
            regressed = ratio < floor
            if regressed:
                ok = False
            findings.append(
                {
                    "bench": name,
                    "metric": metric,
                    "baseline": base_value,
                    "current": cur_value,
                    "ratio": ratio,
                    "status": "REGRESSED" if regressed else "ok",
                }
            )
    regressed = sum(1 for f in findings if f.get("status") == "REGRESSED")
    compared = sum(1 for f in findings if "ratio" in f)
    if not baselines:
        summary = f"no baselines in {baseline_dir}"
    else:
        summary = (
            f"{regressed} regressed of {compared} compared metrics "
            f"(floor {floor:.2f}x of baseline)"
        )
    return PassResult(
        name="regression", ok=ok, summary=summary, findings=tuple(findings)
    )


def refresh_baselines(
    bench_dir: str | Path, baseline_dir: str | Path
) -> list[Path]:
    """Copy every fresh ``BENCH_*.json`` over the tracked baselines.

    The refresh policy (see ``docs/OBSERVABILITY.md``): refresh
    deliberately, from a quiet machine, in its own reviewed commit —
    the diff of the baseline JSONs *is* the perf-change review.
    Returns the written paths.
    """
    bench_dir = Path(bench_dir)
    baseline_dir = Path(baseline_dir)
    baseline_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for source in sorted(bench_dir.glob("BENCH_*.json")):
        target = baseline_dir / source.name
        shutil.copyfile(source, target)
        written.append(target)
    return written

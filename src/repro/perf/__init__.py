"""Perf analysis: PAG-style attribution reports and builtin passes.

PerFlow (PPoPP'22)-flavored performance analysis over the serving
stack's own telemetry, with no profiler dependency: the plan/execute
split already attributes every measured second to a named owner, and
this package assembles those attributions into a program abstraction
graph (:func:`build_pag`) and runs analysis passes over it —

* :func:`hotspot` — top attribution nodes by measured seconds;
* :func:`imbalance` — cross-shard skew of attributed work / queue depth;
* :func:`cache_thrash` — segment hit-rate vs capacity pressure;
* :func:`compare_benchmarks` — fresh ``BENCH_*.json`` vs tracked
  baselines, with a tolerance band (the CI regression gate).

Everything is runnable as a library or from the command line::

    python -m repro.perf report
    python -m repro.perf regression --bench-dir benchmarks/out \\
        --baselines benchmarks/baselines
"""

from .pag import Pag, PagNode, build_pag
from .passes import PassResult, cache_thrash, hotspot, imbalance
from .regression import (
    CURATED_METRICS,
    DEFAULT_TOLERANCE,
    compare_benchmarks,
    refresh_baselines,
)

__all__ = [
    "CURATED_METRICS",
    "DEFAULT_TOLERANCE",
    "Pag",
    "PagNode",
    "PassResult",
    "build_pag",
    "cache_thrash",
    "compare_benchmarks",
    "hotspot",
    "imbalance",
    "refresh_baselines",
]

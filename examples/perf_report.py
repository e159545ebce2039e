#!/usr/bin/env python
"""Attribute serving wall-clock with a PAG, then watch dispatch fall back.

``python -m repro.perf report`` prints the canned smoke report; this
example walks the same machinery as a library, on a workload you can
edit.  Two stories in one run:

1. **Attribution.**  Serve a partitioned graph through a 2-shard
   :class:`~repro.serving.ServingPool`, build the Program Abstraction
   Graph with :func:`~repro.perf.build_pag`, and render where the
   measured wall-clock actually went — per phase (quantize / pack /
   census / gemm), per backend under the gemm phase, per shard worker,
   per cache segment.  The builtin passes (:func:`~repro.perf.hotspot`,
   :func:`~repro.perf.imbalance`, :func:`~repro.perf.cache_thrash`)
   read findings off that tree.

2. **Static dispatch.**  Every GEMM runs on ``blas``.  Once the
   session's :class:`~repro.serving.BackendHealth` quarantines ``blas``,
   the next plans compile onto ``packed`` and return bit-identical
   logits, because backend choice is a schedule decision, never
   arithmetic.

Run:  python examples/perf_report.py
"""

from __future__ import annotations

import numpy as np

from repro.gnn import make_batched_gin
from repro.graph import induced_subgraphs
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.perf import build_pag, cache_thrash, hotspot, imbalance
from repro.serving import (
    BackendHealth,
    InferenceEngine,
    PoolConfig,
    ServingConfig,
    ServingPool,
)

NODES = 512
EDGES = 3200
STRUCTURES = 8
WORKERS = 2
REPLAYS = 3


def build_workload(rng):
    """A partitioned synthetic graph plus a model sized to match it."""
    graph = planted_partition_graph(
        NODES, EDGES, num_communities=STRUCTURES, feature_dim=12,
        num_classes=3, rng=rng,
    )
    subgraphs = induced_subgraphs(graph, metis_like_partition(graph, STRUCTURES))
    model = make_batched_gin(graph.features.shape[1], 3, hidden_dim=16, seed=3)
    return model, subgraphs


def attribution_story(model, subgraphs) -> None:
    """Serve through a pool, then render the PAG and the builtin passes."""
    with ServingPool(
        model,
        ServingConfig(feature_bits=4, batch_size=4),
        pool=PoolConfig(workers=WORKERS),
    ) as pool:
        for _ in range(REPLAYS):
            pool.serve(subgraphs)
        pag = build_pag(pool)
        results = [hotspot(pag), imbalance(pag), cache_thrash(pag)]
    print(pag.render())
    print()
    for result in results:
        print(result.render())
    print(f"\nphase coverage of measured wall-clock: {pag.coverage():.3f}")


def dispatch_story(model, subgraphs) -> None:
    """Quarantine ``blas``, recompile onto ``packed``, serve the same bits."""
    health = BackendHealth(quarantine_after=1, probe_after_s=3600.0)
    engine = InferenceEngine(
        model, ServingConfig(feature_bits=4, batch_size=4), health=health
    )
    expected = engine.infer(subgraphs)
    plans = [engine.plan_cache.peek(key) for key in engine.plan_cache.keys()]
    print(f"\ncompiled {len(plans)} plans; backends: "
          f"{sorted({b for plan in plans for b in plan.backends()})}")
    assert all(plan.backends() == ("blas",) for plan in plans)

    health.record_failure("blas")  # the breaker opens: blas is quarantined
    engine.plan_cache.clear()
    replayed = engine.infer(subgraphs)
    plans = [engine.plan_cache.peek(key) for key in engine.plan_cache.keys()]
    assert all(plan.backends() == ("packed",) for plan in plans)
    identical = all(
        np.array_equal(a.logits, b.logits)
        for a, b in zip(expected, replayed)
    )
    print(f"blas quarantined: {len(plans)} plans recompiled onto packed; "
          f"logits bit-identical: {identical}")
    assert identical


def main() -> None:
    rng = np.random.default_rng(0xA6)
    model, subgraphs = build_workload(rng)
    attribution_story(model, subgraphs)
    dispatch_story(model, subgraphs)


if __name__ == "__main__":
    main()

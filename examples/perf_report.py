#!/usr/bin/env python
"""Attribute serving wall-clock with a PAG, then close the adaptive loop.

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

2. **Invalidation.**  A compiled plan freezes its dispatch decisions;
   the dispatch table keeps learning.  We push fresh timings that flip
   the tuned pick, let ``stale_plans()`` report the divergence, and
   ``invalidate_stale_plans()`` drop the stale plans — the next replay
   recompiles under the new table and returns bit-identical logits,
   because backend choice is a schedule decision, never arithmetic.

Run:  python examples/perf_report.py
"""

from __future__ import annotations

import numpy as np

from repro.gnn import make_batched_gin
from repro.graph import induced_subgraphs
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.perf import build_pag, cache_thrash, hotspot, imbalance, stale_plan
from repro.serving import (
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


def invalidation_story(model, subgraphs) -> None:
    """Drift the dispatch table, detect stale plans, recompile losslessly."""
    engine = InferenceEngine(model, ServingConfig(feature_bits=4, batch_size=4))
    expected = engine.infer(subgraphs)
    print(f"\ncompiled {len(engine.plan_cache)} plans; "
          f"stale after first pass: {len(engine.stale_plans())}")

    # Simulate online drift: feed timings that make a different backend
    # the tuned pick for every frozen GEMM decision.
    for key in list(engine.plan_cache.keys()):
        plan = engine.plan_cache.peek(key)
        adjacency = engine.adjacency_cache.peek(
            plan.layers[0].aggregate.pack_a.cache_key
        )
        for layer in plan.layers:
            for step in (layer.aggregate, layer.update):
                fraction = (
                    adjacency.nonzero_fraction
                    if step.spec.role == "aggregate" else None
                )
                other = "packed" if step.backend != "packed" else "blas"
                for _ in range(8):
                    engine.dispatch_table.record_spec(
                        step.spec, other, 1e-9, tile_fraction=fraction
                    )
                    engine.dispatch_table.record_spec(
                        step.spec, step.backend, 1.0, tile_fraction=fraction
                    )

    report = stale_plan(engine)
    print(report.render())
    invalidated = engine.invalidate_stale_plans()
    print(f"invalidated {len(invalidated)} plans "
          f"(stats.plans_invalidated={engine.stats.plans_invalidated})")

    replayed = engine.infer(subgraphs)
    identical = all(
        np.array_equal(a.logits, b.logits)
        for a, b in zip(expected, replayed)
    )
    print(f"replay recompiled under the new table; "
          f"stale now: {len(engine.stale_plans())}; "
          f"logits bit-identical: {identical}")
    assert identical


def main() -> None:
    rng = np.random.default_rng(0xA6)
    model, subgraphs = build_workload(rng)
    attribution_story(model, subgraphs)
    invalidation_story(model, subgraphs)


if __name__ == "__main__":
    main()

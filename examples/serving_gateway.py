#!/usr/bin/env python
"""Face an open-loop burst with the async gateway instead of blocking intake.

``examples/serving_pool.py`` is the closed-loop story: a caller that
waits for its results can lean on the pool's blocking ``submit()``.
Open-loop traffic cannot — arrivals do not wait for completions, so a
burst past the pool's service rate turns blocking intake into a backlog
and every request "succeeds" at a latency nobody can use.  The
:class:`~repro.serving.ServingGateway` bounds that: at most
``max_in_flight`` requests are past the admission gate, a request that
cannot be admitted within ``queue_timeout_s`` fast-fails with
``PoolSaturated`` (the caller's cue to shed or retry elsewhere), and
every admitted request runs on its structure's home shard.  Here a
seeded ``slow_shard`` fault stalls every round for twice the admission
timeout, so the burst outlives ``queue_timeout_s`` on any host and the
excess is shed.

Everything the gateway *does* serve is bit-identical to a single
engine's answer — admission decides when a request runs, never what it
computes.

Run:  python examples/serving_gateway.py
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.errors import PoolSaturated
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

WORKERS = 2
STRUCTURES = 8
BURST = 96             # open-loop burst, well past the admission budget
MAX_IN_FLIGHT = 12
QUEUE_TIMEOUT_S = 0.05
STALL_S = 2 * QUEUE_TIMEOUT_S  # every round a straggler: the burst outlives the timeout


async def fire_burst(gateway: ServingGateway, requests) -> list:
    """Submit the whole burst at once; shed requests come back as
    ``PoolSaturated`` instances in the (input-ordered) reply list."""
    return await gateway.serve(requests, return_exceptions=True)


def main() -> None:
    rng = np.random.default_rng(23)
    graph = planted_partition_graph(
        1024, 6400, num_communities=STRUCTURES, feature_dim=8,
        num_classes=4, rng=rng,
    )
    structures = induced_subgraphs(
        graph, metis_like_partition(graph, STRUCTURES)
    )
    requests = [structures[i % STRUCTURES] for i in range(BURST)]
    model = make_batched_gin(graph.features.shape[1], 4, hidden_dim=8, seed=5)
    config = ServingConfig(feature_bits=1, batch_size=2)

    # One shared calibration: the bit-identity yardstick for everything.
    calibration = ActivationCalibration()
    engine = InferenceEngine(model, config, calibration=calibration)
    expected = [result.logits for result in engine.infer(structures)]

    stall = FaultPlan(seed=23, specs=[FaultSpec("slow_shard", rate=1.0, delay_s=STALL_S)])
    with ServingPool(
        model, config, pool=PoolConfig(workers=WORKERS),
        calibration=calibration, fault_plan=stall,
    ) as pool:
        pool.serve(structures)  # warm the shard caches
        gateway = ServingGateway(
            pool,
            GatewayConfig(
                max_in_flight=MAX_IN_FLIGHT,
                queue_timeout_s=QUEUE_TIMEOUT_S,
            ),
        )
        print(f"burst: {BURST} requests over {STRUCTURES} structures at a "
              f"{WORKERS}-worker pool, admission budget {MAX_IN_FLIGHT}, "
              f"admission timeout {QUEUE_TIMEOUT_S * 1e3:.0f} ms, every round "
              f"stalled {STALL_S * 1e3:.0f} ms")

        replies = asyncio.run(fire_burst(gateway, requests))
        served = [
            (i % STRUCTURES, reply) for i, reply in enumerate(replies)
            if not isinstance(reply, BaseException)
        ]
        shed = sum(isinstance(reply, PoolSaturated) for reply in replies)
        stats = gateway.stats()
        print(f"\nserved {len(served)}/{BURST}, shed {shed} "
              f"(rejection rate {stats.rejection_rate:.0%}) — the excess "
              f"fast-failed instead of queueing")
        print(f"served-request latency: p50 {stats.latency_p50_s * 1e3:6.1f} ms, "
              f"p99 {stats.latency_p99_s * 1e3:6.1f} ms "
              f"(bounded by the admission budget)")
        print(f"{stats.caller_served} served on the caller's thread, "
              f"{stats.retries} retried")
        assert stats.in_flight == 0, "every admitted request settled"
        assert shed > 0 and served, "the burst was shed in part and served in part"

        identical = all(
            np.array_equal(reply.logits, expected[structure])
            for structure, reply in served
        )
        assert identical
        print("\nevery served reply: bit-identical to the single engine — "
              "admission was a latency decision, not an accuracy decision")


if __name__ == "__main__":
    main()

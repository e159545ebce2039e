"""Serving: session-based inference over the QGTC pipeline.

The production-facing layer of the reproduction.  An
:class:`~repro.serving.engine.InferenceEngine` session is a thin consumer
of the plan layer (:mod:`repro.plan`): the first execution of a distinct
coalesced batch compiles an :class:`~repro.plan.ir.ExecutionPlan`
(per-GEMM shapes, quantize sites, pack/census nodes, and the backend the
cost-model dispatcher picked for each product from the batch's *measured*
tile census); replays execute the cached plan.  Packed layer weights,
per-batch packed adjacencies + tile masks, and compiled plans all live in
one content-keyed :class:`~repro.plan.cache.PlanCache` with per-kind
segments and shared telemetry.  Incoming subgraph requests are coalesced
into block-diagonal batched executions bounded by member and node
budgets.  Dispatch is *measured*, not just modeled: the dispatcher's
shape-bucketed :class:`~repro.plan.autotune.DispatchTable` (the plan
cache's ``table`` segment) overrides analytic prices with timing medians,
and every executed round feeds its per-GEMM wall-clock back in.  The
table is an in-memory measurement that lives and dies with its process.

Scale-out lives here too: a :class:`~repro.serving.pool.ServingPool`
shards the request stream across N workers — each owning a shard-local
plan cache over a shared read-only packed-weight segment, draining a
bounded queue with work-conserving continuous batching — and keeps the
shards mutually warm (compiled-plan broadcast via
:class:`~repro.serving.pool.PlanExchange`, one dispatch table shared by
every thread shard).  Fronting the pool, a
:class:`~repro.serving.gateway.ServingGateway` is the asyncio door
open-loop traffic comes through: bounded-in-flight admission with
fast-fail backpressure (:class:`~repro.errors.PoolSaturated`), priority
lanes, queue-depth-aware shard routing, and optional request hedging
for p99 control.  Everything above this layer speaks ``Subgraph in,
logits out``, and everything below it is described by plan nodes.

Failure is a first-class input (:mod:`repro.serving.supervision`, with
:mod:`repro.faultinject` as the matching injection half): a
:class:`~repro.serving.supervision.BackendHealth` circuit breaker
quarantines backends that keep failing (vetoed in dispatch, probed
half-open after a cooldown),
:class:`~repro.serving.supervision.StepRecovery` retries a failed GEMM
step on the fallback backend bit-identically, the pool supervises its
workers (dead shard threads are respawned and their in-flight requests
re-queued), verified cache segments discard poisoned entries on read,
and the gateway adds bounded seeded-backoff retries on top.  See
``docs/RELIABILITY.md``.
"""

from ..plan.cache import CacheStats, LRUCache, PlanCache
from .dispatch import CostModelDispatcher, DispatchDecision
from .gateway import (
    LANES,
    GatewayConfig,
    GatewayResult,
    GatewayStats,
    LaneStats,
    ServingGateway,
    route_shard,
)
from .engine import (
    InferenceEngine,
    InferenceRequest,
    InferenceResult,
    ServingConfig,
    SessionStats,
    StalePlan,
)
from .pool import (
    PlanExchange,
    PoolConfig,
    PoolResult,
    PoolStats,
    ServingPool,
)
from .supervision import BackendHealth, StepRecovery, fallback_chain

__all__ = [
    "BackendHealth",
    "CacheStats",
    "CostModelDispatcher",
    "DispatchDecision",
    "GatewayConfig",
    "GatewayResult",
    "GatewayStats",
    "InferenceEngine",
    "InferenceRequest",
    "InferenceResult",
    "LANES",
    "LRUCache",
    "LaneStats",
    "PlanCache",
    "PlanExchange",
    "PoolConfig",
    "PoolResult",
    "PoolStats",
    "ServingConfig",
    "ServingGateway",
    "ServingPool",
    "SessionStats",
    "StalePlan",
    "StepRecovery",
    "fallback_chain",
    "route_shard",
]

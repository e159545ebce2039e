"""Serving: session-based inference over the QGTC pipeline.

The production-facing layer of the reproduction.  An
:class:`~repro.serving.engine.InferenceEngine` session is a thin consumer
of the plan layer (:mod:`repro.plan`): the first execution of a distinct
coalesced batch compiles an :class:`~repro.plan.ir.ExecutionPlan`
(per-GEMM shapes, quantize sites, pack/census nodes, and the backend the
static rule :func:`~repro.plan.registry.static_backend` picked for each
product); replays execute the cached plan.  Packed layer weights,
per-batch packed adjacencies + tile masks, and compiled plans all live in
one content-keyed :class:`~repro.plan.cache.PlanCache` with per-kind
segments and shared telemetry.  Incoming subgraph requests are coalesced
into block-diagonal batched executions bounded by member and node
budgets.

Scale-out lives here too: a :class:`~repro.serving.pool.ServingPool`
shards the request stream across N workers — each owning a shard-local
plan cache over a shared read-only packed-weight segment, draining a
bounded queue with work-conserving continuous batching.  What shards
share is mounted, locked objects: the weight segment and one activation
calibration.  Fronting the pool, a
:class:`~repro.serving.gateway.ServingGateway` is the asyncio door
open-loop traffic comes through: bounded-in-flight admission with
fast-fail backpressure (:class:`~repro.errors.PoolSaturated`), priority
lanes, queue-depth-aware shard routing, and optional request hedging
for p99 control.  Everything above this layer speaks ``Subgraph in,
logits out``, and everything below it is described by plan nodes.

Failure is a first-class input (:mod:`repro.serving.supervision`, with
:mod:`repro.faultinject` as the matching injection half): a
:class:`~repro.serving.supervision.BackendHealth` circuit breaker
quarantines backends that keep failing (a quarantined ``blas`` sends
new plans to ``packed``; probed half-open after a cooldown),
:class:`~repro.serving.supervision.StepRecovery` retries a failed GEMM
step on the fallback backend bit-identically, the pool supervises its
workers (dead shard threads are respawned and their in-flight requests
re-queued), verified cache segments discard poisoned entries on read,
and the gateway adds bounded seeded-backoff retries on top.  See
``docs/RELIABILITY.md``.
"""

from ..plan.cache import CacheStats, LRUCache, PlanCache
from ..plan.dispatch_shim import CostModelDispatcher
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
)
from .pool import (
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
    "PoolConfig",
    "PoolResult",
    "PoolStats",
    "ServingConfig",
    "ServingGateway",
    "ServingPool",
    "SessionStats",
    "StepRecovery",
    "fallback_chain",
    "route_shard",
]

"""Async serving gateway: bounded admission over a :class:`ServingPool`.

The pool's front door is a blocking ``submit()``: production traffic is
open-loop (arrivals do not wait for completions), bursty, and SLO-bound,
and an intake that *blocks* under pressure converts overload into
unbounded queueing — every request "succeeds" with a latency nobody can
use.  A :class:`ServingGateway` is the asyncio front-end that turns the
pool into something an open-loop client can face:

* **admission control + backpressure** — at most ``max_in_flight``
  requests are past the gate at once, and freed slots go to waiters in
  arrival order; a request that cannot be admitted within
  ``queue_timeout_s`` fast-fails with
  :class:`~repro.errors.PoolSaturated` instead of joining an unbounded
  backlog.  Under overload the gateway sheds the excess and keeps the
  latency of everything it *does* serve bounded — the p99 story the
  latency benchmark pins.
* **home-shard routing** — each request runs on the pool's shard for its
  structure (:meth:`ServingPool.shard_of`, a structure digest), so shard
  caches stay disjoint and warm.
* **bounded retry** — with ``max_retries`` set, a request whose
  dispatch fails with a *retryable* error (a worker death, an injected
  fault — see :func:`repro.errors.is_retryable`) is re-dispatched after
  a seeded, jittered exponential backoff, up to the bound.  Saturation
  (:class:`~repro.errors.PoolSaturated`) is deliberately **not**
  retried: shedding only works if shed load actually leaves.
  Deterministic validation errors are never retried either — every
  attempt would fail identically.
* **idle shards served in place** — a request that is the only one past
  the gate after one event-loop yield, and whose shard is idle, runs its
  round on the loop thread (:meth:`ServingPool.serve_if_idle`) instead
  of crossing to the shard's drain thread and back: a thread hand-off
  costs more than a lone request's round.  Bursts keep the shard
  queues, so coalescing and shedding are unchanged.

Every decision above chooses *when* a request executes, never *what* it
computes: under a shared frozen
:class:`~repro.gnn.quantized.ActivationCalibration`, gateway results are
bit-identical to a single :class:`~repro.serving.engine.InferenceEngine`
serving the same requests — admission and retry are latency decisions,
never accuracy decisions.

Typical use::

    pool = ServingPool(model, ServingConfig(feature_bits=8))
    gateway = ServingGateway(pool, GatewayConfig(max_in_flight=64))

    async def handle(subgraph):
        try:
            reply = await gateway.submit(subgraph)
        except PoolSaturated:
            return retry_later()      # shed load, don't queue it
        return reply.logits
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import ConfigError, PoolSaturated, is_retryable
from ..graph.batching import Subgraph
from ..telemetry import Counters
from .pool import PoolResult, ServingPool

__all__ = [
    "GatewayConfig",
    "GatewayResult",
    "GatewayStats",
    "ServingGateway",
]


@dataclass(frozen=True)
class GatewayConfig:
    """SLO knobs of a :class:`ServingGateway`.

    Example::

        gateway = ServingGateway(
            pool, GatewayConfig(max_in_flight=64, queue_timeout_s=0.05)
        )
    """

    #: Admission budget: requests past the gate (queued on shards or
    #: executing) at any moment.  The latency lever — a served request
    #: waits behind at most this many others.
    max_in_flight: int = 64
    #: How long a request may wait for an admission slot before
    #: fast-failing with :class:`~repro.errors.PoolSaturated` — the
    #: backpressure bound an open-loop client sees instead of queueing.
    queue_timeout_s: float = 0.25
    #: Re-dispatch a request whose dispatch failed retryably (see
    #: :func:`repro.errors.is_retryable`) up to this many times; ``0``
    #: (the default) surfaces the first failure.  Saturation is never
    #: retried regardless.
    max_retries: int = 0
    #: Base backoff before retry attempt ``n`` (delay grows as
    #: ``retry_backoff_s * 2**(n-1)``, plus jitter).
    retry_backoff_s: float = 0.005
    #: Jitter fraction: each backoff is stretched by up to this fraction,
    #: drawn from a private PRNG seeded with ``retry_seed`` — so retry
    #: storms decorrelate but a rerun of the same traffic backs off
    #: identically.
    retry_jitter: float = 0.25
    retry_seed: int = 0

    def __post_init__(self) -> None:
        """Validate every knob (fail construction, not the first request)."""
        if self.max_in_flight < 1:
            raise ConfigError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        for name in ("queue_timeout_s", "retry_backoff_s", "retry_jitter"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ConfigError(
                    f"{name} must be finite and >= 0, got {value}"
                )


@dataclass(frozen=True)
class GatewayResult:
    """One admitted request's logits plus where and how long it ran."""

    request_id: int
    #: ``(nodes, classes)`` float logits for this request's subgraph.
    logits: np.ndarray
    #: Label of the shard worker that produced the result.
    worker: str
    #: Submit-to-completion seconds, including admission wait.
    latency_s: float


@dataclass
class GatewayStats(Counters):
    """A gateway's admission counters and latency ring — the live record
    the gateway updates, and (as a :meth:`snapshot`) what it reports."""

    DERIVED = ("rejection_rate", "latency_p50_s", "latency_p99_s", "has_latency")

    submitted: int = 0
    completed: int = 0
    #: Fast-failed with :class:`~repro.errors.PoolSaturated` (admission
    #: timeout or a full shard queue).
    rejected: int = 0
    #: Dispatch attempts re-issued after a retryable failure.
    retries: int = 0
    #: Requests that ultimately failed (retries exhausted, or the error
    #: was not retryable) — excludes shed (``rejected``) requests.
    failures: int = 0
    #: Dispatches run on the gateway's own thread because their shard
    #: was idle; the rest went through the shard queues.
    caller_served: int = 0
    #: Requests currently past the admission gate.
    in_flight: int = 0
    #: Recent completion latencies in seconds (bounded ring).
    latencies: deque = field(default_factory=lambda: deque(maxlen=4096))

    @property
    def rejection_rate(self) -> float:
        """Fraction of submitted requests shed (0.0 before any traffic)."""
        if not self.submitted:
            return 0.0
        return self.rejected / self.submitted

    def latency_quantile(self, q: float) -> float:
        """A quantile of the recent completion latencies.

        An empty ring has no distribution: ``nan``, not 0.0 — an idle
        gateway must not report a perfect p50/p99 to SLO dashboards or
        the perf passes (``nan`` also fails any ``< threshold``
        comparison, so a misconfigured alert trips rather than silently
        passing)."""
        if not self.latencies:
            return float("nan")
        return float(np.quantile(np.fromiter(self.latencies, dtype=float), q))

    @property
    def latency_p50_s(self) -> float:
        """Median recent completion latency (``nan`` while idle)."""
        return self.latency_quantile(0.5)

    @property
    def latency_p99_s(self) -> float:
        """99th-percentile recent completion latency (``nan`` while idle)."""
        return self.latency_quantile(0.99)

    @property
    def has_latency(self) -> bool:
        """Whether the gateway has completed anything (quantiles are real)."""
        return bool(self.latencies)


class ServingGateway:
    """Asyncio front-end over one :class:`ServingPool`; see module doc.

    The gateway owns no threads and no shards — only the admission gate
    and the retry loop.  It composes over an existing pool, whose
    lifecycle stays with the caller::

        with ServingPool(model, config) as pool:
            gateway = ServingGateway(pool, GatewayConfig(max_in_flight=32))
            results = gateway.run(subgraphs)          # sync convenience
            # or, inside a coroutine:
            reply = await gateway.submit(subgraph)

    Admission state is event-loop-confined (no locks): drive one gateway
    from one running loop at a time.
    """

    def __init__(
        self, pool: ServingPool, config: GatewayConfig | None = None
    ) -> None:
        """Wrap ``pool`` with admission policy ``config``."""
        self.pool = pool
        self.config = config or GatewayConfig()
        self._stats = GatewayStats()
        #: Admission waiters, FIFO.
        self._waiters: deque[asyncio.Future] = deque()
        # Private PRNG: retry jitter must not perturb (or be perturbed
        # by) anyone else's use of the global random state.
        self._retry_rng = random.Random(self.config.retry_seed)

    # ------------------------------------------------------------------ #
    # Admission gate
    # ------------------------------------------------------------------ #
    @property
    def in_flight(self) -> int:
        """Requests currently past the admission gate."""
        return self._stats.in_flight

    async def _acquire(self) -> None:
        """Take one admission slot, waiting at most ``queue_timeout_s``;
        raises :class:`~repro.errors.PoolSaturated` on timeout."""
        stats = self._stats
        if not self._waiters and stats.in_flight < self.config.max_in_flight:
            stats.in_flight += 1
            return
        fut = asyncio.get_running_loop().create_future()
        self._waiters.append(fut)
        try:
            await asyncio.wait_for(fut, timeout=self.config.queue_timeout_s)
        except asyncio.TimeoutError:
            if fut.done() and not fut.cancelled():
                # Granted in the same tick the timeout fired: the slot is
                # ours but the wait already failed — hand it back.
                self._release()
            else:
                try:
                    self._waiters.remove(fut)
                except ValueError:
                    pass
            raise PoolSaturated(
                f"not admitted within {self.config.queue_timeout_s}s "
                f"({stats.in_flight}/{self.config.max_in_flight} in flight)"
            ) from None

    def _release(self) -> None:
        """Free one slot and grant freed capacity to waiters in order."""
        stats, waiters = self._stats, self._waiters
        stats.in_flight -= 1
        while waiters and stats.in_flight < self.config.max_in_flight:
            fut = waiters.popleft()
            if not fut.done():  # not timed out / cancelled meanwhile
                stats.in_flight += 1
                fut.set_result(None)

    # ------------------------------------------------------------------ #
    # The thread → event-loop bridge
    # ------------------------------------------------------------------ #
    @staticmethod
    def _bridge(pool_result: PoolResult) -> asyncio.Future:
        """An awaitable view of a :class:`PoolResult`: resolves to the
        settled handle, or raises its worker-side error."""
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()

        def resolve(settled: PoolResult) -> None:
            if fut.done():  # cancelled by the caller meanwhile
                return
            error = settled.exception()
            if error is not None:
                fut.set_exception(error)
            else:
                fut.set_result(settled)

        def on_done(settled: PoolResult) -> None:
            try:
                loop.call_soon_threadsafe(resolve, settled)
            except RuntimeError:
                pass  # loop already closed: nobody is waiting

        pool_result.add_done_callback(on_done)
        return fut

    # ------------------------------------------------------------------ #
    # Intake
    # ------------------------------------------------------------------ #
    async def submit(self, subgraph: Subgraph) -> GatewayResult:
        """Admit, execute and await one request on its home shard.

        Raises :class:`~repro.errors.PoolSaturated` when the request
        cannot be admitted within ``queue_timeout_s`` (or its shard queue
        is full) — fast-fail backpressure, the caller's cue to shed load.

        A dispatch that fails with a retryable error is re-dispatched up
        to ``max_retries`` times (backoff + jitter between attempts),
        holding its admission slot throughout — a retrying request is
        still load.  Saturation and non-retryable errors surface
        immediately.
        """
        stats = self._stats
        stats.submitted += 1
        start = time.monotonic()
        try:
            await self._acquire()
            try:
                attempt = 0
                while True:
                    try:
                        settled = await self._dispatch(subgraph)
                        break
                    except PoolSaturated:
                        # Shedding, not failure: retrying shed load would
                        # defeat the backpressure it exists to apply.
                        raise
                    except Exception as exc:
                        if attempt >= self.config.max_retries or not (
                            is_retryable(exc)
                        ):
                            stats.failures += 1
                            raise
                        attempt += 1
                        stats.retries += 1
                        await asyncio.sleep(self._retry_delay(attempt))
            finally:
                self._release()
        except PoolSaturated:
            stats.rejected += 1
            raise
        latency = time.monotonic() - start
        stats.completed += 1
        stats.latencies.append(latency)
        return GatewayResult(
            request_id=settled.request_id,
            logits=settled.logits,
            worker=settled.worker,
            latency_s=latency,
        )

    def _retry_delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based): exponential in the
        attempt number, stretched by seeded jitter."""
        backoff = self.config.retry_backoff_s * (2 ** (attempt - 1))
        return backoff * (1.0 + self.config.retry_jitter * self._retry_rng.random())

    async def _dispatch(self, subgraph: Subgraph) -> PoolResult:
        """Run one admitted request on its home shard; returns the settled
        result."""
        # Let a burst admitted in this tick show itself before deciding
        # this request is alone.
        await asyncio.sleep(0)
        pool = self.pool
        shard = pool.shard_of(subgraph)
        if self._stats.in_flight == 1:
            settled = pool.serve_if_idle(subgraph, shard)
            if settled is not None:
                self._stats.caller_served += 1
                settled.result(timeout=0)  # re-raises a failed round's error
                return settled
        return await self._bridge(pool.submit(subgraph, shard=shard, block=False))

    async def serve(
        self, subgraphs: Sequence[Subgraph], *, return_exceptions: bool = False
    ) -> list:
        """Submit a whole workload concurrently; results in input order.

        With ``return_exceptions=True``, shed requests appear as
        :class:`~repro.errors.PoolSaturated` instances in the returned
        list instead of aborting the gather — open-loop semantics.
        """
        tasks = [asyncio.ensure_future(self.submit(sub)) for sub in subgraphs]
        return await asyncio.gather(*tasks, return_exceptions=return_exceptions)

    def run(
        self, subgraphs: Sequence[Subgraph], *, return_exceptions: bool = False
    ) -> list:
        """Synchronous convenience: :meth:`serve` under ``asyncio.run``."""
        return asyncio.run(self.serve(subgraphs, return_exceptions=return_exceptions))

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    def stats(self) -> GatewayStats:
        """Snapshot of the admission and retry counters."""
        return self._stats.snapshot()

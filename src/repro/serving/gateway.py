"""Async serving gateway: SLO-aware admission over a :class:`ServingPool`.

The pool's front door is a blocking ``submit()``: production traffic is
open-loop (arrivals do not wait for completions), bursty, and SLO-bound,
and an intake that *blocks* under pressure converts overload into
unbounded queueing — every request "succeeds" with a latency nobody can
use.  A :class:`ServingGateway` is the asyncio front-end that turns the
pool into something an open-loop client can face:

* **admission control + backpressure** — at most ``max_in_flight``
  requests are past the gate at once; a request that cannot be admitted
  within ``queue_timeout_s`` fast-fails with
  :class:`~repro.errors.PoolSaturated` instead of joining an unbounded
  backlog.  Under overload the gateway sheds the excess and keeps the
  latency of everything it *does* serve bounded — the p99 story the
  latency benchmark pins.
* **priority lanes** — ``lane="interactive"`` may use every slot;
  ``lane="batch"`` is capped at ``max_in_flight - interactive_reserve``
  and freed slots wake interactive waiters first, so background traffic
  can never starve the latency-sensitive lane.
* **queue-depth-aware routing** — each request's home shard is the
  pool's shard policy (structure digest: shard caches stay disjoint).
  When the home shard's queue runs ``imbalance_threshold`` deeper than
  the shallowest shard, the request is re-routed to the least-loaded
  shard (:func:`route_shard`).  Entries are content-keyed, so a foreign
  shard simply re-builds the artifacts — skew is traded for a one-time
  compile, never for correctness.
* **request hedging** — with ``hedge_after_s`` set, a request still
  unfinished after that long is duplicated onto the least-loaded other
  shard and the first completion wins.  The duplicate's work is wasted
  by design (the p99-vs-throughput trade); results are bit-identical
  either way, so hedging is purely a latency decision.
* **bounded retry** — with ``max_retries`` set, a request whose
  dispatch fails with a *retryable* error (a worker death, an injected
  fault — see :func:`repro.errors.is_retryable`) is re-dispatched after
  a seeded, jittered exponential backoff, up to the bound.  Saturation
  (:class:`~repro.errors.PoolSaturated`) is deliberately **not**
  retried: shedding only works if shed load actually leaves.
  Deterministic validation errors are never retried either — every
  attempt would fail identically.
* **idle shards served in place** — a request that cannot hedge, is the
  only one past the gate after one event-loop yield, and routes to an
  idle shard runs its round on the loop thread
  (:meth:`ServingPool.serve_if_idle`) instead of crossing to the shard's
  drain thread and back: a thread hand-off costs more than a lone
  request's round.  Bursts and hedged requests keep the shard queues, so
  coalescing, shedding and hedging are unchanged.

Every decision above chooses *where* and *when* a request executes,
never *what* it computes: under a shared frozen
:class:`~repro.gnn.quantized.ActivationCalibration`, gateway results are
bit-identical to a single :class:`~repro.serving.engine.InferenceEngine`
serving the same requests — admission, lanes, re-routing and hedging are
latency decisions, never accuracy decisions.

Typical use::

    pool = ServingPool(model, ServingConfig(feature_bits=8))
    gateway = ServingGateway(pool, GatewayConfig(max_in_flight=64))

    async def handle(subgraph):
        try:
            reply = await gateway.submit(subgraph, lane="interactive")
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
    "LANES",
    "GatewayConfig",
    "GatewayResult",
    "GatewayStats",
    "LaneStats",
    "ServingGateway",
    "route_shard",
]

#: The priority lanes a request may be submitted on, highest first.
LANES = ("interactive", "batch")


@dataclass(frozen=True)
class GatewayConfig:
    """SLO knobs of a :class:`ServingGateway`.

    Example::

        gateway = ServingGateway(
            pool,
            GatewayConfig(max_in_flight=64, queue_timeout_s=0.05,
                          hedge_after_s=0.02),
        )
    """

    #: Admission budget: requests past the gate (queued on shards or
    #: executing) at any moment, across both lanes.  The latency lever —
    #: a served request waits behind at most this many others.
    max_in_flight: int = 64
    #: Slots the batch lane may never occupy, reserved so interactive
    #: traffic always finds headroom (batch cap =
    #: ``max_in_flight - interactive_reserve``).  ``None`` reserves an
    #: eighth of the budget (so every ``max_in_flight`` works out of the
    #: box); ``0`` disables the reserve.
    interactive_reserve: int | None = None
    #: How long a request may wait for an admission slot before
    #: fast-failing with :class:`~repro.errors.PoolSaturated` — the
    #: backpressure bound an open-loop client sees instead of queueing.
    queue_timeout_s: float = 0.25
    #: Duplicate a still-unfinished request onto the least-loaded other
    #: shard after this long; first completion wins.  ``None`` disables
    #: hedging (and pools with a single worker never hedge).
    hedge_after_s: float | None = None
    #: Re-route a request off its home shard when the home queue is more
    #: than this many requests deeper than the shallowest shard's;
    #: ``None`` pins every request to its home shard.
    imbalance_threshold: int | None = 8
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
        if self.interactive_reserve is not None and not (
            0 <= self.interactive_reserve < self.max_in_flight
        ):
            raise ConfigError(
                "interactive_reserve must be in [0, max_in_flight) or None, "
                f"got {self.interactive_reserve} with max_in_flight="
                f"{self.max_in_flight}"
            )
        if not math.isfinite(self.queue_timeout_s) or self.queue_timeout_s < 0:
            raise ConfigError(
                f"queue_timeout_s must be finite and >= 0, got "
                f"{self.queue_timeout_s}"
            )
        hedge = self.hedge_after_s
        if hedge is not None and (not math.isfinite(hedge) or hedge < 0):
            raise ConfigError(
                f"hedge_after_s must be finite and >= 0 or None, got {hedge}"
            )
        if self.imbalance_threshold is not None and self.imbalance_threshold < 1:
            raise ConfigError(
                "imbalance_threshold must be >= 1 or None, got "
                f"{self.imbalance_threshold}"
            )
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        for name in ("retry_backoff_s", "retry_jitter"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ConfigError(
                    f"{name} must be finite and >= 0, got {value}"
                )

    @property
    def effective_interactive_reserve(self) -> int:
        """The reserve in force (explicit, or an eighth of the budget)."""
        if self.interactive_reserve is not None:
            return self.interactive_reserve
        return self.max_in_flight // 8


def route_shard(
    home: int, depths: Sequence[int], threshold: int | None
) -> int:
    """The queue-depth-aware routing rule, as a pure function.

    Returns ``home`` unless its queue is more than ``threshold`` requests
    deeper than the shallowest shard's, in which case the least-loaded
    shard (lowest depth, ties to the lowest index) takes the request.
    ``threshold=None`` disables re-routing.  Pure so the policy is
    testable without standing up congestion; the gateway feeds it live
    ``ServingPool.queue_depths()``.
    """
    if threshold is None or len(depths) < 2:
        return home
    least = min(range(len(depths)), key=lambda i: (depths[i], i))
    if depths[home] - depths[least] > threshold:
        return least
    return home


@dataclass(frozen=True)
class GatewayResult:
    """One admitted request's logits plus the path it took."""

    request_id: int
    #: ``(nodes, classes)`` float logits for this request's subgraph.
    logits: np.ndarray
    #: Label of the shard worker that produced the winning result.
    worker: str
    lane: str
    #: Submit-to-completion seconds, including admission wait.
    latency_s: float
    #: Whether the depth router sent this request off its home shard.
    rerouted: bool = False
    #: Whether a hedge duplicate was launched for this request.
    hedged: bool = False
    #: Whether the hedge duplicate finished first (implies ``hedged``).
    hedge_won: bool = False


@dataclass
class LaneStats(Counters):
    """One priority lane's counters and latency ring — the live record
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
        lane must not report a perfect p50/p99 to SLO dashboards or the
        perf passes (``nan`` also fails any ``< threshold`` comparison,
        so a misconfigured alert trips rather than silently passing)."""
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
        """Whether the lane has completed anything (quantiles are real)."""
        return bool(self.latencies)


@dataclass
class GatewayStats(LaneStats):
    """A gateway's admission and routing counters: every
    :class:`LaneStats` field is the lanes merged, beside the
    gateway-level counters declared here."""

    #: Requests the depth router moved off their home shard.
    rerouted: int = 0
    #: Dispatches run on the gateway's own thread because their shard
    #: was idle; the rest went through the shard queues.
    caller_served: int = 0
    hedges_launched: int = 0
    hedges_won: int = 0
    #: Requests currently past the admission gate.
    in_flight: int = 0
    per_lane: dict[str, LaneStats] = field(default_factory=dict)


def _swallow(fut: asyncio.Future) -> None:
    # Retrieve a losing hedge leg's exception so the loop never logs
    # "exception was never retrieved" for work we deliberately abandoned.
    if not fut.cancelled():
        fut.exception()


class ServingGateway:
    """Asyncio front-end over one :class:`ServingPool`; see module doc.

    The gateway owns no threads and no shards — only the admission gate,
    the router and the hedger.  It composes over an existing pool, whose
    lifecycle stays with the caller::

        with ServingPool(model, config) as pool:
            gateway = ServingGateway(pool, GatewayConfig(max_in_flight=32))
            results = gateway.run(subgraphs)          # sync convenience
            # or, inside a coroutine:
            reply = await gateway.submit(subgraph, lane="interactive")

    Admission state is event-loop-confined (no locks): drive one gateway
    from one running loop at a time.
    """

    def __init__(
        self, pool: ServingPool, config: GatewayConfig | None = None
    ) -> None:
        """Wrap ``pool`` with admission policy ``config``."""
        self.pool = pool
        self.config = config or GatewayConfig()
        self._in_flight = 0
        self._lanes = {lane: LaneStats() for lane in LANES}
        #: Admission waiters, FIFO within each lane.
        self._waiters: dict[str, deque] = {lane: deque() for lane in LANES}
        self._rerouted = 0
        self._caller_served = 0
        self._hedges_launched = 0
        self._hedges_won = 0
        # Private PRNG: retry jitter must not perturb (or be perturbed
        # by) anyone else's use of the global random state.
        self._retry_rng = random.Random(self.config.retry_seed)

    # ------------------------------------------------------------------ #
    # Admission gate
    # ------------------------------------------------------------------ #
    @property
    def in_flight(self) -> int:
        """Requests currently past the admission gate."""
        return self._in_flight

    def _capacity(self, lane: str) -> int:
        if lane == "interactive":
            return self.config.max_in_flight
        return (
            self.config.max_in_flight
            - self.config.effective_interactive_reserve
        )

    async def _acquire(self, lane: str) -> None:
        """Take one admission slot, waiting at most ``queue_timeout_s``;
        raises :class:`~repro.errors.PoolSaturated` on timeout."""
        waiters = self._waiters[lane]
        if not waiters and self._in_flight < self._capacity(lane):
            self._in_flight += 1
            return
        fut = asyncio.get_running_loop().create_future()
        waiters.append(fut)
        try:
            await asyncio.wait_for(fut, timeout=self.config.queue_timeout_s)
        except asyncio.TimeoutError:
            if fut.done() and not fut.cancelled():
                # Granted in the same tick the timeout fired: the slot is
                # ours but the wait already failed — hand it back.
                self._release()
            else:
                try:
                    waiters.remove(fut)
                except ValueError:
                    pass
            raise PoolSaturated(
                f"not admitted within {self.config.queue_timeout_s}s "
                f"({self._in_flight}/{self.config.max_in_flight} in flight)"
            ) from None

    def _release(self) -> None:
        self._in_flight -= 1
        self._wake()

    def _wake(self) -> None:
        """Grant freed capacity to waiters — interactive lane first."""
        while True:
            granted = False
            for lane in LANES:
                waiters = self._waiters[lane]
                while waiters and waiters[0].done():
                    waiters.popleft()  # timed out / cancelled meanwhile
                if waiters and self._in_flight < self._capacity(lane):
                    self._in_flight += 1
                    waiters.popleft().set_result(None)
                    granted = True
                    break
            if not granted:
                return

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
    async def submit(
        self,
        subgraph: Subgraph,
        *,
        lane: str = "interactive",
    ) -> GatewayResult:
        """Admit, route, execute and await one request on ``lane``.

        Raises :class:`~repro.errors.PoolSaturated` when the request
        cannot be admitted within ``queue_timeout_s`` (or its shard queue
        is full) — fast-fail backpressure, the caller's cue to shed load.

        A dispatch that fails with a retryable error is re-dispatched up
        to ``max_retries`` times (backoff + jitter between attempts),
        holding its admission slot throughout — a retrying request is
        still load.  Saturation and non-retryable errors surface
        immediately.
        """
        if lane not in LANES:
            raise ConfigError(f"lane must be one of {LANES}, got {lane!r}")
        state = self._lanes[lane]
        state.submitted += 1
        start = time.monotonic()
        try:
            await self._acquire(lane)
            try:
                attempt = 0
                while True:
                    try:
                        settled, rerouted, hedged, hedge_won = (
                            await self._dispatch(subgraph)
                        )
                        break
                    except PoolSaturated:
                        # Shedding, not failure: retrying shed load would
                        # defeat the backpressure it exists to apply.
                        raise
                    except Exception as exc:
                        if attempt >= self.config.max_retries or not (
                            is_retryable(exc)
                        ):
                            state.failures += 1
                            raise
                        attempt += 1
                        state.retries += 1
                        await asyncio.sleep(self._retry_delay(attempt))
            finally:
                self._release()
        except PoolSaturated:
            state.rejected += 1
            raise
        latency = time.monotonic() - start
        state.completed += 1
        state.latencies.append(latency)
        return GatewayResult(
            request_id=settled.request_id,
            logits=settled.logits,
            worker=settled.worker,
            lane=lane,
            latency_s=latency,
            rerouted=rerouted,
            hedged=hedged,
            hedge_won=hedge_won,
        )

    def _retry_delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based): exponential in the
        attempt number, stretched by seeded jitter."""
        backoff = self.config.retry_backoff_s * (2 ** (attempt - 1))
        return backoff * (1.0 + self.config.retry_jitter * self._retry_rng.random())

    async def _dispatch(
        self, subgraph: Subgraph
    ) -> tuple[PoolResult, bool, bool, bool]:
        """Route one admitted request, hedging if configured; returns
        ``(settled result, rerouted, hedged, hedge_won)``."""
        pool = self.pool
        hedge_after = self.config.hedge_after_s
        can_hedge = hedge_after is not None and pool.pool_config.workers > 1
        if not can_hedge:
            # Let a burst admitted in this tick show itself before
            # deciding this request is alone.
            await asyncio.sleep(0)
        home = pool.shard_of(subgraph)
        shard = route_shard(
            home, pool.queue_depths(), self.config.imbalance_threshold
        )
        rerouted = shard != home
        if rerouted:
            self._rerouted += 1
        if not can_hedge and self._in_flight == 1:
            settled = pool.serve_if_idle(subgraph, shard)
            if settled is not None:
                self._caller_served += 1
                settled.result(timeout=0)  # re-raises a failed round's error
                return settled, rerouted, False, False
        primary = self._bridge(pool.submit(subgraph, shard=shard, block=False))
        if not can_hedge:
            return await primary, rerouted, False, False
        try:
            settled = await asyncio.wait_for(
                asyncio.shield(primary), timeout=hedge_after
            )
            return settled, rerouted, False, False
        except asyncio.TimeoutError:
            pass
        # The primary is slow: duplicate onto the least-loaded other
        # shard and take the first completion.  A full hedge queue (or a
        # pool mid-shutdown) simply falls back to the primary — hedging
        # is opportunistic, never another failure mode.
        depths = pool.queue_depths()
        alternates = [i for i in range(pool.pool_config.workers) if i != shard]
        alternate = min(alternates, key=lambda i: (depths[i], i))
        try:
            hedged_submit = pool.submit(subgraph, shard=alternate, block=False)
        except (PoolSaturated, ConfigError):
            return await primary, rerouted, False, False
        self._hedges_launched += 1
        hedge = self._bridge(hedged_submit)
        legs = {primary, hedge}
        winner: asyncio.Future | None = None
        while legs and winner is None:
            done, legs = await asyncio.wait(
                legs, return_when=asyncio.FIRST_COMPLETED
            )
            for fut in done:
                if fut.exception() is None:
                    winner = fut
                    break
        for loser in legs:
            loser.add_done_callback(_swallow)
        if winner is None:
            # Both legs failed; surface the primary's error.
            return await primary, rerouted, True, False
        hedge_won = winner is hedge
        if hedge_won:
            self._hedges_won += 1
        return winner.result(), rerouted, True, hedge_won

    async def serve(
        self,
        subgraphs: Sequence[Subgraph],
        *,
        lane: str = "interactive",
        return_exceptions: bool = False,
    ) -> list:
        """Submit a whole workload concurrently; results in input order.

        With ``return_exceptions=True``, shed requests appear as
        :class:`~repro.errors.PoolSaturated` instances in the returned
        list instead of aborting the gather — open-loop semantics.
        """
        tasks = [
            asyncio.ensure_future(self.submit(subgraph, lane=lane))
            for subgraph in subgraphs
        ]
        return await asyncio.gather(*tasks, return_exceptions=return_exceptions)

    def run(
        self,
        subgraphs: Sequence[Subgraph],
        *,
        lane: str = "interactive",
        return_exceptions: bool = False,
    ) -> list:
        """Synchronous convenience: :meth:`serve` under ``asyncio.run``."""
        return asyncio.run(
            self.serve(subgraphs, lane=lane, return_exceptions=return_exceptions)
        )

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    def stats(self) -> GatewayStats:
        """Snapshot of admission, routing and hedging counters."""
        total = GatewayStats(
            rerouted=self._rerouted,
            caller_served=self._caller_served,
            hedges_launched=self._hedges_launched,
            hedges_won=self._hedges_won,
            in_flight=self._in_flight,
            per_lane={lane: state.snapshot() for lane, state in self._lanes.items()},
        )
        for lane in total.per_lane.values():
            total.merge(lane)
        return total

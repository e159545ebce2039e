"""Sharded serving worker pool over shared, locked artifact segments.

A single :class:`~repro.serving.engine.InferenceEngine` session tops out
where its working set does: once the distinct coalesced batches of a
mixed-session workload outgrow the ``adjacency``/``plan`` segments of one
plan cache, every round re-packs, re-ballots and
re-compiles — the cold path wearing a session costume.  Because
``InferenceEngine._execute`` is a pure function of (plan, batch,
artifacts), the fix is structural rather than heroic: shard the request
stream across N workers, give each worker its *own* shard-local
:class:`~repro.plan.cache.PlanCache`, and let the shards share the state
that is identical everywhere.  A :class:`ServingPool` is that system:

* **sharding** — each submitted request is routed to one worker by
  structure digest: structurally identical subgraphs always land on the
  same shard, so each shard's cache holds a disjoint slice of the
  workload and the pool's effective capacity is the *sum* of the shard
  caches;
* **shard-local sessions** — every worker owns a full
  :class:`~repro.serving.engine.InferenceEngine` (private adjacency /
  plan segments, private telemetry) and drains a bounded request
  queue with **work-conserving continuous batching**: a round is
  whatever queued while the previous round ran, taken without waiting
  and capped by the same :func:`~repro.graph.batching.round_full`
  member-cap/node-budget rule the single-engine path uses — under load
  the backlog fills rounds, and an idle shard runs a lone request at
  once (no shard ever sleeps on a timer for batch-mates).  A round runs
  only under its shard's one drain lock, held by the drain thread or —
  through :meth:`ServingPool.serve_if_idle`, for a request that finds
  the shard idle — by the caller, which then runs the same round body
  on its own thread instead of paying for a hand-off;
* **shared state is a mounted, locked object** — packed layer weights
  are session-invariant, so all shard caches mount one
  :class:`~repro.plan.cache.LRUCache` ``weight`` segment, whose lock
  holds across a build: each layer is quantized and packed exactly
  once, pool-wide.  Every shard shares the pool's one
  :class:`~repro.gnn.quantized.ActivationCalibration`, which freezes
  each site once under its own lock.  Nothing else crosses shards: a
  shard whose ``plan`` segment misses binds the plan from its own
  ``template`` segment, as a single engine does;
* **async front door** — intake is gateway-ready: ``submit`` offers
  ``block=False`` fast-fail intake
  (:class:`~repro.errors.PoolSaturated`), :meth:`ServingPool.serve_if_idle`
  runs a lone request on its caller, and
  :class:`PoolResult.add_done_callback` bridges completions into an
  event loop — the contract :class:`~repro.serving.gateway.ServingGateway`
  builds bounded admission on;
* **worker supervision** — a supervisor thread watches
  for shard threads that died *outside* the per-request handler (a
  drain-loop bug, or an injected ``worker`` fault from a
  :class:`~repro.faultinject.FaultPlan`), respawns the shard with a
  fresh engine remounting the shared weight segment and calibration, and re-queues the dead worker's unsettled in-flight
  requests so no submitter is stranded; disabled, the crash is surfaced
  instead — every queued and in-flight future fails with
  :class:`~repro.errors.WorkerDied`, as do later submits routed to the
  dead shard.

Results are bit-identical to a single engine serving the same requests
with the same frozen :class:`~repro.gnn.quantized.ActivationCalibration`
— coalescing and sharding are throughput decisions, never accuracy
decisions.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import queue
import threading
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigError, PoolSaturated, WorkerDied
from ..gnn.models import GNNModel
from ..gnn.quantized import ActivationCalibration
from ..graph.batching import Subgraph, round_full
from ..plan.cache import LRUCache, artifact_nbytes
from ..runtime.report import EpochReport
from ..telemetry import emit_event
from .engine import InferenceEngine, ServingConfig, SessionStats
from .supervision import BackendHealth

__all__ = [
    "PoolConfig",
    "PoolResult",
    "PoolStats",
    "ServingPool",
]


@dataclass(frozen=True)
class PoolConfig:
    """Sizing and policy knobs of a :class:`ServingPool`.

    Example::

        pool = ServingPool(
            model,
            ServingConfig(feature_bits=8),
            pool=PoolConfig(workers=4, queue_capacity=64),
        )
    """

    #: Number of shard workers (one drain thread each).
    workers: int = 4
    #: Bound of each shard's request queue; a full queue applies
    #: backpressure to :meth:`ServingPool.submit` instead of growing
    #: without limit.
    queue_capacity: int = 256
    #: Read by nothing: the pool creates or writes no directory.
    #: The field stays only because the repo benchmark still passes it,
    #: and goes when that harness stops (ROADMAP direction 1(a)).
    spool_dir: str | None = None
    #: Whether the pool runs a supervisor thread that
    #: respawns crashed shard workers and re-queues their in-flight
    #: requests.  Disabled, a worker crash fails its stranded futures
    #: with :class:`~repro.errors.WorkerDied` instead.
    supervise: bool = True
    #: How often (seconds) the supervisor sweeps for dead workers when
    #: not woken by a crash notification.
    supervise_interval_s: float = 0.05

    def __post_init__(self) -> None:
        """Validate every knob (fail construction, not the first round)."""
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.queue_capacity < 1:
            raise ConfigError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        interval = self.supervise_interval_s
        if not math.isfinite(interval) or interval <= 0:
            raise ConfigError(
                f"supervise_interval_s must be finite > 0, got {interval!r}"
            )


class PoolResult:
    """Handle to one submitted request's logits (a minimal future).

    Returned by :meth:`ServingPool.submit`; :meth:`result` blocks until
    the owning shard has executed the request's round.  A worker-side
    failure re-raises here, on the submitter.
    """

    __slots__ = (
        "request_id", "worker", "_event", "_logits", "_error",
        "_lock", "_callbacks",
    )

    def __init__(self, request_id: int, worker: str) -> None:
        """Create a pending handle (filled in by the owning worker)."""
        self.request_id = request_id
        #: Label of the shard worker this request was routed to.
        self.worker = worker
        self._event = threading.Event()
        self._logits: np.ndarray | None = None
        self._error: BaseException | None = None
        self._lock = threading.Lock()
        self._callbacks: list = []

    def done(self) -> bool:
        """Whether the request has been executed (or failed)."""
        return self._event.is_set()

    def exception(self) -> BaseException | None:
        """The worker-side error of a completed request (``None`` while
        pending or after success) — inspect without re-raising."""
        return self._error if self._event.is_set() else None

    def add_done_callback(self, fn) -> None:
        """Call ``fn(self)`` once the request completes (or failed).

        Runs on the worker thread that settles the request — or
        immediately, on the caller, when the request is already done.
        This is the thread→event-loop bridge the async gateway rides:
        the callback hands the settled result to
        ``loop.call_soon_threadsafe`` instead of parking a thread in
        :meth:`result`.  Callbacks must not raise.
        """
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block for and return this request's ``(nodes, classes)`` logits."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not served within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._logits

    @property
    def logits(self) -> np.ndarray:
        """The logits of a completed request (:meth:`result` without wait)."""
        return self.result(timeout=0)

    def _fill(self, logits: np.ndarray) -> None:
        self._settle(logits, None)

    def _fail(self, error: BaseException) -> None:
        self._settle(None, error)

    def _settle(self, logits, error) -> None:
        # Set the outcome, the event and drain callbacks atomically with
        # respect to add_done_callback, so a callback registered
        # concurrently with completion runs exactly once (here, or
        # immediately there).  First settle wins: a request re-queued by
        # supervision could in principle be raced by a late settle from
        # the crashed worker, and the duplicate must not flip the result.
        with self._lock:
            if self._event.is_set():
                return
            self._logits = logits
            self._error = error
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


@dataclass
class PoolStats(SessionStats):
    """A pool's serving counters: every :class:`SessionStats` field is
    the sum over the shards' snapshots (``wall_s`` is therefore
    attributed work — shards overlap in wall time — not elapsed time),
    beside the pool-level counters declared here."""

    DERIVED = SessionStats.DERIVED + ("poisoned_discards",)

    workers: int = 0
    #: Circuit-open transitions recorded by the shared
    #: :class:`~repro.serving.supervision.BackendHealth`.
    quarantines: int = 0
    #: Crashed shard workers respawned by supervision.
    respawns: int = 0
    #: In-flight requests re-queued after a worker crash.
    requeued: int = 0
    #: One snapshot per shard, labelled ``w0`` ….
    per_worker: tuple[SessionStats, ...] = ()

    @property
    def poisoned_discards(self) -> int:
        """Entries the *verified* segments discarded on a digest mismatch:
        every shard's ``plan`` and ``template`` segments."""
        return self.plan_cache.poisoned + self.template_cache.poisoned


@dataclass
class _QueuedRequest:
    subgraph: Subgraph
    future: PoolResult


_SHUTDOWN = object()


class _Worker:
    """One shard: a thread draining a bounded queue into a private engine."""

    def __init__(
        self,
        pool: "ServingPool",
        index: int,
        requests: queue.Queue | None = None,
    ) -> None:
        self.pool = pool
        self.index = index
        self.label = f"w{index}"
        # A respawned worker takes over its predecessor's queue so
        # already-queued (and re-queued) requests survive the crash.
        self.queue: queue.Queue = (
            requests
            if requests is not None
            else queue.Queue(maxsize=pool.pool_config.queue_capacity)
        )
        self.engine = InferenceEngine(
            pool.model,
            pool.config,
            calibration=pool._calibration,
            shared_segments={"weight": pool._weight_segment},
            label=self.label,
            health=pool.health,
            fault_plan=pool.fault_plan,
        )
        #: Held across every round on this shard, by the drain thread or
        #: by a caller serving an idle shard: no two rounds overlap.
        self.lock = threading.Lock()
        #: Requests pulled off the queue but not yet settled — what the
        #: supervisor re-queues (or fails) after a crash.
        self.inflight: list[_QueuedRequest] = []
        #: The exception that killed the drain loop, or ``None``.
        self.died: BaseException | None = None
        self.thread = threading.Thread(
            target=self._run, name=f"serving-pool-{index}", daemon=True
        )

    def start(self) -> None:
        self.thread.start()

    def _run(self) -> None:
        # Anything escaping the drain loop is a worker death: per-request
        # failures are handled (and surfaced on the submitter) inside
        # _execute, so reaching here means the loop itself broke — the
        # fault class supervision exists for.
        try:
            self._drain()
        except BaseException as exc:
            self.died = exc
            self.pool._on_worker_crash(self)

    def _drain(self) -> None:
        # Work-conserving continuous batching: block for a round's first
        # request only, then take whatever queued meanwhile — without
        # waiting — until ``round_full`` says stop or the queue is empty.
        # Under load the backlog built up while the previous round ran
        # forms the next one; an idle shard runs a lone request at once.
        # The request that overflows a round opens the next.  Nothing is
        # queued behind the shutdown sentinel (submit refuses once the
        # pool is closed), so reaching it means every request was served.
        cfg = self.pool.config
        head = self.queue.get()
        while head is not _SHUTDOWN:
            group, nodes = [head], head.subgraph.num_nodes
            self.inflight = [head]
            head = None
            while True:
                try:
                    nxt = self.queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is _SHUTDOWN:
                    head = nxt
                    break
                self.inflight.append(nxt)
                if round_full(
                    len(group),
                    nodes,
                    nxt.subgraph.num_nodes,
                    cfg.max_batch_nodes,
                    cfg.batch_size,
                ):
                    head = nxt
                    break
                group.append(nxt)
                nodes += nxt.subgraph.num_nodes
            self._execute(group)
            if head is None:
                self.inflight = []
                head = self.queue.get()

    def _execute(self, group: list[_QueuedRequest]) -> None:
        with self.lock:
            plan = self.pool.fault_plan
            if plan is not None:
                # The ``worker`` site fires *outside* the per-request
                # handler in ``serve`` — it kills the drain loop,
                # exercising supervision.  A caller serving an idle shard
                # never probes it: a caller does not die.
                plan.maybe_raise("worker", detail=self.label)
            self.serve(group)

    def serve(self, group: list[_QueuedRequest]) -> None:
        """Run one round through this shard's engine and settle its
        requests; the caller holds :attr:`lock`."""
        plan = self.pool.fault_plan
        if plan is not None:
            # ``slow_shard`` stalls the round without failing it.
            delay = plan.delay("slow_shard", detail=self.label)
            if delay > 0.0:
                time.sleep(delay)
        try:
            results = self.engine.infer([r.subgraph for r in group])
        except BaseException as exc:  # surface on the submitter, keep serving
            for request in group:
                request.future._fail(exc)
            return
        for request, result in zip(group, results):
            request.future._fill(result.logits)


class ServingPool:
    """Shard a request stream across N warm serving workers; see module doc.

    Typical use::

        pool = ServingPool(model, ServingConfig(feature_bits=8),
                           pool=PoolConfig(workers=4))
        results = pool.serve(subgraphs)        # submission-ordered
        consume(results[0].logits)
        print(pool.stats().mean_batch_occupancy)
        pool.shutdown()                        # or: with ServingPool(...) as pool

    Passing a shared ``calibration`` (or letting the pool freeze its own
    on first traffic) makes pool results bit-identical to a single
    :class:`~repro.serving.engine.InferenceEngine` serving the same
    requests.
    """

    def __init__(
        self,
        model: GNNModel,
        config: ServingConfig | None = None,
        *,
        pool: PoolConfig | None = None,
        calibration: ActivationCalibration | None = None,
        health: BackendHealth | None = None,
        fault_plan=None,
    ) -> None:
        """Build the shard workers (their threads start immediately) over
        one ``model`` and a per-shard ``config`` policy.

        ``health`` is the pool-wide backend circuit breaker (one is
        created when not given, so a backend quarantined on one shard is
        vetoed on all of them); ``fault_plan`` threads a
        :class:`~repro.faultinject.FaultPlan` through every shard engine
        (``None`` — the default — injects nothing).
        """
        self.model = model
        self.config = config or ServingConfig()
        self.pool_config = pool or PoolConfig()
        #: Shared per-backend circuit breaker (quarantine/veto state).
        self.health = health if health is not None else BackendHealth()
        #: Optional fault-injection plan threaded through the shards.
        self.fault_plan = fault_plan
        # None check, not truthiness: an empty calibration is falsy.
        self._calibration = (
            calibration if calibration is not None else ActivationCalibration()
        )
        self._weight_segment = LRUCache(
            self.config.weight_cache_capacity, size_of=artifact_nbytes
        )
        self._lock = threading.Lock()
        # Intake is atomic with respect to shutdown: submit() holds this
        # across its closed-check *and* enqueue, and shutdown() sets
        # _closed under it — so a request can never land on a queue after
        # the worker's final drain (which would strand its future).  A
        # separate lock from self._lock: a submit blocked on a full queue
        # holds it, and stats() must not wait behind that submit.
        self._intake_lock = threading.Lock()
        self._seq = itertools.count()
        self._closed = False
        self._respawns = 0
        self._requeued = 0
        self._crash_event = threading.Event()
        self._supervisor: threading.Thread | None = None
        self._workers = [
            _Worker(self, i) for i in range(self.pool_config.workers)
        ]
        for worker in self._workers:
            worker.start()
        if self.pool_config.supervise:
            self._supervisor = threading.Thread(
                target=self._supervise,
                name="serving-pool-supervisor",
                daemon=True,
            )
            self._supervisor.start()

    # ------------------------------------------------------------------ #
    # Sharding
    # ------------------------------------------------------------------ #
    @staticmethod
    def _structure_digest(graph) -> bytes:  # hashed once per member (``Subgraph.memo``)
        h = hashlib.blake2b(digest_size=8)
        h.update(graph.indptr.tobytes())
        h.update(b"|")
        h.update(graph.indices.tobytes())
        return h.digest()

    def shard_of(self, subgraph: Subgraph, seq: int | None = None) -> int:
        """The worker index a request's structure routes to.

        ``seq`` is read by nothing: it stays only because the repo
        benchmark still passes it, and goes when that harness stops
        (ROADMAP direction 1(a)).
        """
        digest = subgraph.memo("_shard_digest", self._structure_digest)
        return int.from_bytes(digest, "little") % self.pool_config.workers

    # ------------------------------------------------------------------ #
    # Intake
    # ------------------------------------------------------------------ #
    def submit(
        self,
        subgraph: Subgraph,
        *,
        shard: int | None = None,
        block: bool = True,
    ) -> PoolResult:
        """Queue one subgraph on its shard; returns a :class:`PoolResult`.

        ``shard`` overrides structure routing with an explicit worker
        index; entries are content-keyed, so executing on a non-home
        shard is always safe, it merely re-builds that shard's
        artifacts.  With ``block=True`` a full shard queue blocks the caller
        (bounded-queue backpressure); ``block=False`` fast-fails with
        :class:`~repro.errors.PoolSaturated` instead — the intake an
        event loop needs, since blocking would stall every other request.
        """
        if shard is not None and not 0 <= shard < self.pool_config.workers:
            raise ConfigError(
                f"shard must be in [0, {self.pool_config.workers}), got {shard}"
            )
        with self._intake_lock:
            if self._closed:
                raise ConfigError("pool is shut down")
            seq = next(self._seq)
            index = shard if shard is not None else self.shard_of(subgraph)
            worker = self._workers[index]
            if worker.died is not None and self._supervisor is None:
                # Unsupervised dead shard: its queue is never drained
                # again, so accepting the request would strand it.
                raise WorkerDied(
                    f"shard {worker.label} died and supervision is disabled"
                ) from worker.died
            future = PoolResult(seq, worker.label)
            request = _QueuedRequest(subgraph=subgraph, future=future)
            if block:
                worker.queue.put(request)
            else:
                try:
                    worker.queue.put_nowait(request)
                except queue.Full:
                    raise PoolSaturated(
                        f"shard {worker.label} queue is full "
                        f"({self.pool_config.queue_capacity} waiting)"
                    ) from None
        return future

    def serve_if_idle(self, subgraph: Subgraph, shard: int) -> PoolResult | None:
        """Serve one request on the calling thread if ``shard`` is idle.

        Idle means the pool is open, the shard's worker is alive, its
        queue is empty and its drain lock is free.  Then the round runs
        under that lock through the shard's own engine — the round body
        the drain thread runs, ``worker`` fault probe aside: a caller
        never dies — and the settled :class:`PoolResult` is returned.
        Otherwise nothing runs and the answer is ``None``: queue the
        request with :meth:`submit`.  Never blocks on the shard.
        """
        worker = self._workers[shard]
        if not worker.lock.acquire(blocking=False):
            return None
        try:
            if self._closed or worker.died is not None or worker.queue.qsize():
                return None
            future = PoolResult(next(self._seq), worker.label)
            worker.serve([_QueuedRequest(subgraph=subgraph, future=future)])
        finally:
            worker.lock.release()
        return future

    def queue_depths(self) -> tuple[int, ...]:
        """Requests currently queued per shard.

        A point-in-time approximation (workers drain concurrently): the
        per-shard pressure a PAG's worker nodes report, not an exact
        census.
        """
        return tuple(worker.queue.qsize() for worker in self._workers)

    def serve(self, subgraphs: Sequence[Subgraph]) -> list[PoolResult]:
        """Serve a whole workload; completed results in submission order.

        Submits everything through the shard queues (so backlogs
        coalesce) and waits.
        """
        futures = [self.submit(subgraph) for subgraph in subgraphs]
        for future in futures:
            future.result()
        return futures

    def warm_up(self) -> "ServingPool":
        """Pack all layer weights into the shared segment ahead of traffic."""
        self._workers[0].engine.warm_up()
        return self

    # ------------------------------------------------------------------ #
    # Worker supervision
    # ------------------------------------------------------------------ #
    def _on_worker_crash(self, worker: _Worker) -> None:
        """Crash notification, run on the dying worker's own thread.

        Supervised pools wake the supervisor (which respawns the shard
        and re-queues its in-flight requests); unsupervised pools fail
        everything the shard was holding instead — a stranded future that
        hangs its submitter forever is the one unacceptable outcome.
        """
        if self._supervisor is not None:
            self._crash_event.set()
            return
        self._fail_worker_queue(worker)

    def _fail_worker_queue(self, worker: _Worker) -> None:
        """Surface :class:`~repro.errors.WorkerDied` on every unsettled
        request the dead shard was holding — in-flight and queued alike."""
        error = WorkerDied(f"shard {worker.label} died: {worker.died!r}")
        error.__cause__ = worker.died
        stranded = [r for r in worker.inflight if not r.future.done()]
        worker.inflight = []
        while True:
            try:
                item = worker.queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SHUTDOWN:
                stranded.append(item)
        for request in stranded:
            request.future._fail(error)

    def _supervise(self) -> None:
        """Supervisor loop: sweep for dead shard threads and respawn them."""
        interval = self.pool_config.supervise_interval_s
        while True:
            self._crash_event.wait(timeout=interval)
            self._crash_event.clear()
            if self._closed:
                return
            for index, worker in enumerate(list(self._workers)):
                if worker.died is not None and not worker.thread.is_alive():
                    self._respawn(index)

    def _respawn(self, index: int) -> None:
        """Replace a dead shard worker, re-queueing its in-flight requests.

        The replacement remounts everything shared — the weight segment,
        calibration, backend health, fault plan —
        and takes over the dead worker's queue, so requests that were queued
        (or submitted) across the crash are served in place.  Unsettled
        in-flight requests are re-queued; artifacts are content-keyed and
        settles are first-wins, so re-execution is always safe.
        """
        dead = self._workers[index]
        dead.thread.join()  # already dead; publishes its final writes
        # Not under the intake lock: a submitter parked on the dead shard's
        # full queue holds that lock until the queue drains, and only this
        # replacement drains it.  Shutdown stays atomic without the lock:
        # it sets ``_closed`` and joins the supervisor (this thread) before
        # it sends any sentinel, so a respawn either completes first — and
        # the replacement receives the sentinel — or sees ``_closed`` here.
        if self._closed:
            return  # shutdown fails the stranded queue instead
        replacement = _Worker(self, index, requests=dead.queue)
        stranded = [r for r in dead.inflight if not r.future.done()]
        dead.inflight = []
        self._workers[index] = replacement
        with self._lock:
            self._respawns += 1
            self._requeued += len(stranded)
        replacement.start()
        emit_event(
            __name__, "worker_respawned", shard=dead.label,
            requeued=len(stranded), cause=repr(dead.died),
        )
        for request in stranded:
            replacement.queue.put(request)

    # ------------------------------------------------------------------ #
    # Telemetry and lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> PoolStats:
        """Aggregated pool counters plus per-worker snapshots."""
        per_worker = tuple(
            worker.engine.stats.snapshot() for worker in self._workers
        )
        with self._lock:
            respawns, requeued = self._respawns, self._requeued
        total = PoolStats(
            workers=self.pool_config.workers,
            quarantines=self.health.quarantines,
            respawns=respawns,
            requeued=requeued,
            per_worker=per_worker,
        )
        for shard in per_worker:
            total.merge(shard)
        # Every shard mounts the pool's one ``weight`` segment: count it
        # once, not once per shard.
        total.weight_cache = per_worker[0].weight_cache.snapshot()
        return total

    def device_report(self) -> EpochReport:
        """Merged modeled-device report across every shard's session."""
        report = EpochReport(system="serving-pool", dataset="pool")
        for worker in self._workers:
            report.merge(worker.engine.device_report)
        return report

    @property
    def workers(self) -> tuple[InferenceEngine, ...]:
        """The shard workers' engines (telemetry / inspection access)."""
        return tuple(worker.engine for worker in self._workers)

    @property
    def calibration(self) -> ActivationCalibration:
        """The pool-wide shared activation calibration.

        Hand it to a separate :class:`~repro.serving.engine.InferenceEngine`
        (or another pool) to make its results bit-identical to this
        pool's for identical requests.
        """
        return self._calibration

    def shutdown(self) -> None:
        """Drain queues and stop workers.  Idempotent."""
        with self._intake_lock:
            if self._closed:
                return
            self._closed = True
        if self._supervisor is not None:
            self._crash_event.set()
            self._supervisor.join()
        for worker in self._workers:
            if worker.thread.is_alive():
                worker.queue.put(_SHUTDOWN)
            else:
                # A dead worker never drains again; don't block on its
                # (possibly full) queue just to deliver a sentinel.
                try:
                    worker.queue.put_nowait(_SHUTDOWN)
                except queue.Full:
                    pass
        for worker in self._workers:
            worker.thread.join()
        for worker in self._workers:
            if worker.died is not None:
                # Crashed after the supervisor stood down (or with
                # supervision disabled *during* its own crash handling):
                # fail the stranded futures rather than leak them.
                self._fail_worker_queue(worker)

    def __enter__(self) -> "ServingPool":
        """Context-manager entry; the pool is already serving."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: :meth:`shutdown`."""
        self.shutdown()

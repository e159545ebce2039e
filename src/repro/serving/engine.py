"""Session-based inference engine: plan once, serve many.

The paper's Figure 10 argument — bit-packed operands should be built once
and reused — only pays off in a system that *keeps* them.  An
:class:`InferenceEngine` is that system, structured around the
plan/execute split of :mod:`repro.plan`:

* **Compiled-plan replay** — the first execution of a distinct coalesced
  batch compiles an :class:`~repro.plan.ir.ExecutionPlan` (per-GEMM
  shapes, bitwidths, quantize sites, pack/census cache keys, and the
  backend the cost model picked for each product); replaying the same
  batch executes the cached plan, so dispatch decisions, packing and the
  zero-tile ballot all happen once per distinct workload.
* **One plan cache** — packed layer weights, per-batch packed adjacencies
  (with their tile-skip plans) and compiled forward plans all live in a
  single content-keyed :class:`~repro.plan.cache.PlanCache`.  Kinds
  occupy separate LRU segments (so novel batches cannot evict the hot
  packed weights) but share one lookup API and one telemetry surface
  (``stats.weight_cache`` / ``stats.adjacency_cache`` /
  ``stats.plan_cache``, plus :meth:`InferenceEngine.cache_telemetry`).
* **Request coalescing** — submitted subgraph requests are greedily packed
  into block-diagonal :class:`~repro.graph.batching.SubgraphBatch` rounds
  (Cluster-GCN / batched-GIN style, bounded by ``batch_size`` members and
  ``max_batch_nodes`` nodes) and executed in one forward pass.
* **Static dispatch** — at plan-compile time each bit-GEMM is routed by
  :func:`~repro.plan.registry.static_backend`: ``blas``, or ``packed``
  when ``blas``'s float working set exceeds the budget or the session's
  :class:`~repro.serving.supervision.BackendHealth` quarantines it.

Activation quantization parameters are frozen per site on first use
(:class:`~repro.gnn.quantized.ActivationCalibration`), which makes results
independent of how requests were coalesced: a batched execution and the
equivalent per-request executions return bit-identical logits.

Each executed batch is also priced on the emulated RTX 3090 via
:func:`~repro.runtime.executor.modeled_plan_report` — whose counters are
derived from the same plan-node specs the executed forward dispatches and
the same cached adjacency ballot the kernels skip by — so a session
reports both measured host wall-clock and modeled device time from one
description of the work, with no per-batch re-censusing.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ..core import native
from ..core.bitgemm import Engine
from ..core.bitpack import TC_M
from ..errors import ConfigError
from ..gnn.models import GNNModel
from ..gnn.quantized import (
    PHASES,
    ActivationCalibration,
    PackedAdjacency,
    PackedLayerWeight,
    QuantizedForwardResult,
    execute_forward_plan,
    pack_batch_adjacency,
    pack_layer_weight,
)
from ..graph.batching import Subgraph, SubgraphBatch, batch_subgraphs_by_nodes, round_full
from ..plan.cache import CacheStats, LRUCache, PlanCache, PlanKey
from ..plan.dispatch_shim import CostModelDispatcher
from ..plan.ir import ExecutionPlan, compile_forward_plan
from ..plan.registry import default_registry, static_backend
from ..runtime.executor import QGTCRunConfig, modeled_plan_report
from ..runtime.report import EpochReport
from ..tc.costmodel import TCCostModel
from ..tc.hardware import RTX3090, DeviceSpec
from ..tc.kernel import KernelConfig
from ..telemetry import Counters, emit_event
from .supervision import StepRecovery

__all__ = [
    "ServingConfig",
    "InferenceRequest",
    "InferenceResult",
    "SessionStats",
    "InferenceEngine",
]


#: Where a round's measured window goes: the artifact windows,
#: ``round_glue`` (the rest of it) and the executor's phases.
ROUND_PHASES = ("pack_adjacency", "plan_compile", "round_glue", *PHASES)
_SLOTS = {phase: slot for slot, phase in enumerate(ROUND_PHASES)}

#: Environment variables an operator pins BLAS threading with (reported,
#: never read for behaviour, by the ``engine_start`` event).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True)
class ServingConfig:
    """Session-wide execution policy of an :class:`InferenceEngine`.

    Typical use::

        config = ServingConfig(
            feature_bits=8,
            batch_size=8,          # coalesce up to 8 requests
        )
        engine = InferenceEngine(model, config)
    """

    feature_bits: int = 4
    #: Weight bitwidth; ``None`` follows ``feature_bits`` (paper sweeps).
    weight_bits: int | None = None
    #: Maximum subgraphs coalesced into one execution round.
    batch_size: int = 8
    #: Node budget of one round — caps the packed adjacency at
    #: ``max_batch_nodes**2`` bits.
    max_batch_nodes: int = 4096
    #: Capacity (entries) of the plan cache's packed-weight segment.
    weight_cache_capacity: int = 32
    #: Capacity (entries) of the plan cache's packed-adjacency/tile-mask
    #: segment.  Sized for the working set of distinct batches a session
    #: replays; each entry holds the packed planes, tile-skip plan and
    #: degree vector of one coalesced batch.
    adjacency_cache_capacity: int = 16
    #: Capacity (entries) of the plan cache's compiled-plan segment.
    #: Plans are pure metadata (a few dataclasses per layer), so this
    #: usually matches ``adjacency_cache_capacity`` — one plan per
    #: distinct batch in the replay working set.
    plan_cache_capacity: int = 16
    #: ``"static"`` routes each GEMM by
    #: :func:`~repro.plan.registry.static_backend` at plan-compile time;
    #: ``"auto"`` applies the built-in size threshold; any registered
    #: backend name forces that backend for the whole session.
    engine: str = "static"
    #: Read by nothing; kept until ``benchmarks/e2e`` stops reading it
    #: (ROADMAP 1(a)).
    table_min_samples: int = 2
    #: Read by nothing; kept until ``benchmarks/e2e`` stops reading it
    #: (ROADMAP 1(a)).
    record_timings: bool = True
    kernel: KernelConfig = field(default_factory=KernelConfig)
    device: DeviceSpec = RTX3090
    apply_softmax: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.feature_bits <= 32:
            raise ConfigError(
                f"feature_bits must be in [1, 32], got {self.feature_bits}"
            )
        if self.weight_bits is not None and not 1 <= self.weight_bits <= 32:
            raise ConfigError(
                f"weight_bits must be in [1, 32], got {self.weight_bits}"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_batch_nodes < 1:
            raise ConfigError(
                f"max_batch_nodes must be >= 1, got {self.max_batch_nodes}"
            )
        for name in (
            "weight_cache_capacity",
            "adjacency_cache_capacity",
            "plan_cache_capacity",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if self.engine not in ("static", "auto") and self.engine not in default_registry():
            raise ConfigError(
                "engine must be 'static', 'auto' or a registered backend "
                f"{default_registry().names()}, got {self.engine!r}"
            )

    @property
    def effective_weight_bits(self) -> int:
        """Weight bitwidth in force (``weight_bits`` or ``feature_bits``)."""
        return self.weight_bits if self.weight_bits is not None else self.feature_bits


class InferenceRequest(NamedTuple):
    """One queued unit of work: a subgraph awaiting inference."""

    request_id: int
    subgraph: Subgraph


class InferenceResult(NamedTuple):
    """Per-request logits plus the execution round that produced them."""

    request_id: int
    #: Sequential id of the coalesced batch this request rode in.
    batch_id: int
    #: ``(num_nodes, num_classes)`` float logits for this request's nodes.
    logits: np.ndarray


@dataclass
class SessionStats(Counters):
    """Running totals of one serving session — the live record an engine
    updates, and (as a :meth:`snapshot`) a pool's per-shard report."""

    DERIVED = (
        "requests_per_s",
        "mean_batch_occupancy",
        "measured_skip_fraction",
        "round_seconds_p50",
        "round_seconds_p99",
        "fixed_seconds_per_round",
    )
    #: Phases that do a round's arithmetic or build its artifacts; the rest
    #: of :attr:`wall_s` is :attr:`fixed_seconds_per_round`.
    WORK_PHASES = (
        "bind", "quantize", "pack", "census", "gemm", "epilogue", "activation",
        "pack_adjacency", "plan_compile",
    )

    #: The session's name in pool telemetry (``w0`` …; empty standalone).
    label: str = ""
    requests: int = 0
    batches: int = 0
    nodes: int = 0
    mma_ops: int = 0
    kernel_launches: int = 0
    #: A-operand tiles inspected by executed kernels (measured).
    tiles_total: int = 0
    #: Tiles the zero-tile ballot skipped in executed kernels (measured —
    #: the §4.3 census behind the modeled ``tc.*`` counters).
    tiles_skipped: int = 0
    #: Measured host seconds spent inside batch execution.
    wall_s: float = 0.0
    #: Measured seconds of the most recently executed rounds (bounded
    #: ring) — the per-round service-time distribution the gateway's
    #: admission knobs are tuned against; see :attr:`round_seconds_p50`
    #: / :attr:`round_seconds_p99`.
    recent_round_seconds: deque = field(
        default_factory=lambda: deque(maxlen=256)
    )
    #: Measured wall-clock attributed per executed backend name, summed
    #: over every plan step this session ran.
    backend_seconds: dict[str, float] = field(default_factory=dict)
    #: Measured wall-clock attributed per execution phase (quantize /
    #: pack / census / gemm / epilogue / activation / materialize, ``bind``
    #: on binding rounds, plus
    #: the engine-level ``pack_adjacency`` and ``plan_compile`` windows) —
    #: what :func:`repro.perf.build_pag` reads; sums to (nearly all of)
    #: :attr:`wall_s`.
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: GEMM-step attempts that failed and were recovered on a fallback
    #: backend (``repro.serving.supervision.StepRecovery``) — each one a
    #: served request that a single-backend engine would have dropped.
    step_retries: int = 0
    #: Per-kind telemetry windows onto the session's unified plan cache.
    weight_cache: CacheStats = field(default_factory=CacheStats)
    adjacency_cache: CacheStats = field(default_factory=CacheStats)
    plan_cache: CacheStats = field(default_factory=CacheStats)
    #: Telemetry window onto the plan-template segment (one plan per node
    #: count; see ``compile_plan``).
    template_cache: CacheStats = field(default_factory=CacheStats)

    @property
    def requests_per_s(self) -> float:
        """Measured serving throughput (0 before any work)."""
        if self.wall_s <= 0:
            return 0.0
        return self.requests / self.wall_s

    @property
    def mean_batch_occupancy(self) -> float:
        """Average requests coalesced per executed batch."""
        if not self.batches:
            return 0.0
        return self.requests / self.batches

    @property
    def measured_skip_fraction(self) -> float:
        """Fraction of inspected tiles that executed kernels jumped."""
        if not self.tiles_total:
            return 0.0
        return self.tiles_skipped / self.tiles_total

    def round_seconds_quantile(self, q: float) -> float:
        """A quantile of the recent per-round execution-seconds ring
        (0.0 before any round has executed)."""
        if not self.recent_round_seconds:
            return 0.0
        return float(
            np.quantile(np.fromiter(self.recent_round_seconds, dtype=float), q)
        )

    @property
    def round_seconds_p50(self) -> float:
        """Median seconds of recent executed rounds."""
        return self.round_seconds_quantile(0.5)

    @property
    def round_seconds_p99(self) -> float:
        """99th-percentile seconds of recent executed rounds."""
        return self.round_seconds_quantile(0.99)

    @property
    def fixed_seconds_per_round(self) -> float:
        """Measured seconds per round outside :attr:`WORK_PHASES` — the cost
        a round pays whatever its size (0.0 before any round)."""
        work = sum(self.phase_seconds.get(phase, 0.0) for phase in self.WORK_PHASES)
        return (self.wall_s - work) / self.batches if self.batches else 0.0


class _RoundBinding(NamedTuple):
    """What a round's accounting reads off its bound program's artifacts
    alone (:meth:`InferenceEngine.run_round`): each step's planned backend,
    each stamped interval's :data:`ROUND_PHASES` slot (a replay's, a binding
    round's), the modeled device report and each member's row slice."""

    backends: tuple
    slots: tuple
    report: EpochReport
    slices: tuple


def _member_key(sub: Subgraph) -> tuple:
    """``(num_nodes, num_edges, digest)`` of one member's structure.

    The CSR arrays are digested rather than stored so a key stays
    O(members) in size, at the full 16 bytes: a colliding key would
    silently serve another batch's adjacency.  Hashed once per member
    (:meth:`Subgraph.memo <repro.graph.batching.Subgraph.memo>`).
    """
    return sub.memo("_member_key", _structure_key)


def _structure_key(graph) -> tuple:
    h = hashlib.blake2b(digest_size=16)
    h.update(graph.indptr.tobytes())
    h.update(b"|")
    h.update(graph.indices.tobytes())
    return (graph.num_nodes, graph.num_edges, h.digest())


class InferenceEngine:
    """A serving session over one model; see module docstring.

    Typical use::

        engine = InferenceEngine(model, ServingConfig(feature_bits=8))
        engine.warm_up()                      # pack weights ahead of traffic
        for result in engine.stream(subgraphs):
            consume(result.logits)
        print(engine.stats.requests_per_s, engine.stats.weight_cache.hit_rate)

    Passing a shared ``calibration`` makes two sessions (e.g. a batched and
    a per-request one) produce identical logits for identical requests.
    """

    def __init__(
        self,
        model: GNNModel,
        config: ServingConfig | None = None,
        *,
        calibration: ActivationCalibration | None = None,
        shared_segments: dict[str, LRUCache] | None = None,
        label: str = "",
        health=None,
        fault_plan=None,
    ) -> None:
        """Create a session over ``model`` with policy ``config``.

        ``calibration`` shares frozen activation parameters across
        sessions (what makes differently-coalesced executions
        bit-identical).  The remaining keywords are the pool-worker hooks
        of :class:`~repro.serving.pool.ServingPool`: ``shared_segments``
        mounts pre-built cache segments (the pool's shared packed-weight
        segment) into this session's plan cache, and
        ``label`` names this session in pool telemetry and the modeled
        device report.

        ``health`` shares a
        :class:`~repro.serving.supervision.BackendHealth` circuit breaker
        across sessions: it records per-backend step outcomes, and a plan
        compiled while it quarantines ``blas`` runs on ``packed``.  ``fault_plan``
        threads a :class:`~repro.faultinject.FaultPlan` into this
        session's ``kernel``, ``compile`` and ``cache`` injection sites
        (``None``, the default, injects nothing).
        """
        self.model = model
        self.config = config or ServingConfig()
        # Explicit None check: an *empty* ActivationCalibration is falsy
        # (it defines __len__), and silently swapping a caller's fresh
        # shared calibration for a private one breaks the cross-session
        # bit-identity guarantee sharing exists for.
        self.calibration = (
            calibration if calibration is not None else ActivationCalibration()
        )
        self.label = label
        #: Shared per-backend circuit breaker (``None`` outside a pool
        #: unless the caller supplies one).
        self.health = health
        #: The session's fault-injection schedule (``None`` = no-op).
        self.fault_plan = fault_plan
        self._recovery = StepRecovery(health=health, fault_plan=fault_plan)
        #: The session's unified plan cache: packed weights, packed
        #: adjacencies + tile masks, and compiled forward plans, each kind
        #: in its own LRU segment under content-derived keys.
        self._cache = PlanCache(
            {
                "weight": self.config.weight_cache_capacity,
                "adjacency": self.config.adjacency_cache_capacity,
                "plan": self.config.plan_cache_capacity,
                # Plan templates, one per node count: sized from the node
                # budget, not a knob (see compile_plan).
                "template": max(self.config.max_batch_nodes // TC_M, 1),
            },
            shared=shared_segments,
            fault_plan=fault_plan,
        )
        bits = self.config.effective_weight_bits
        self._weight_builds = tuple(  # (key, builder) of each layer's packed weights
            (self._weight_key(i, bits), partial(pack_layer_weight, w, bits))
            for i, w in enumerate(self.model.weights)
        )
        self._pending: deque[InferenceRequest] = deque()
        self._next_request_id = 0
        self._next_batch_id = 0
        self.stats = SessionStats(
            label=label,
            weight_cache=self._cache.segment("weight").stats,
            adjacency_cache=self._cache.segment("adjacency").stats,
            plan_cache=self._cache.segment("plan").stats,
            template_cache=self._cache.segment("template").stats,
        )
        self._cost = TCCostModel(self.config.device)
        self._run_config = QGTCRunConfig(
            feature_bits=self.config.feature_bits,
            weight_bits=self.config.effective_weight_bits,
            kernel=self.config.kernel,
        )
        self.device_report = EpochReport(
            system=f"serving:{self._run_config.label}",
            dataset=self.label or "session",
        )
        # An unpinned OpenBLAS on a small VM stalls ~8 ms per worker wake-up.
        threads = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
        emit_event(
            __name__, "engine_start", shard=label,
            blas_pinned="1" in threads.values(), **threads,
            # Compiled here, once per process, so no request pays for it.
            native_tail=native.load() is not None,
        )

    # ------------------------------------------------------------------ #
    # The unified plan cache and its per-kind views
    # ------------------------------------------------------------------ #
    @property
    def plan_artifacts(self) -> PlanCache:
        """The session's unified content-keyed plan cache."""
        return self._cache

    @property
    def weight_cache(self) -> LRUCache:
        """The plan cache's packed-weight segment (stats, keys, bytes)."""
        return self._cache.segment("weight")

    @property
    def adjacency_cache(self) -> LRUCache:
        """The plan cache's per-batch packed-adjacency/tile-mask segment."""
        return self._cache.segment("adjacency")

    @property
    def plan_cache(self) -> LRUCache:
        """The plan cache's compiled-forward-plan segment."""
        return self._cache.segment("plan")

    def cache_telemetry(self) -> dict[str, CacheStats]:
        """Per-kind stats snapshots of the unified plan cache."""
        return self._cache.telemetry()

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    @property
    def engine_selector(self) -> Engine:
        """What :meth:`compile_plan` dispatches through now: the configured
        engine, or :func:`~repro.plan.registry.static_backend` bound to the
        backends the session's health quarantines.  Exposed so a caller
        compiling a plan by hand (the dynamic-mutation benchmark's
        full-recompile baseline) freezes the same decisions."""
        return self._selector(self._quarantined())

    def _quarantined(self) -> tuple[str, ...]:
        return () if self.health is None else self.health.quarantined()

    def _selector(self, quarantined: tuple[str, ...]) -> Engine:
        if self.config.engine == "static":
            return partial(static_backend, quarantined=quarantined)
        return self.config.engine

    @property
    def dispatcher(self) -> CostModelDispatcher:
        """A handle ``benchmarks/e2e`` reads (ROADMAP 1(a)); it answers with
        the static rule, and the session never reads it."""
        return CostModelDispatcher(self.config.device)

    def stale_plans(self) -> list:
        """Empty: a static decision never goes stale (kept for
        ``benchmarks/e2e`` until ROADMAP 1(a))."""
        return []

    def invalidate_stale_plans(self) -> list:
        """Drops nothing and returns ``[]`` (see :meth:`stale_plans`)."""
        return []

    # ------------------------------------------------------------------ #
    # Packed weights (plan-node artifacts, shared across batches)
    # ------------------------------------------------------------------ #
    def _weight_key(self, layer: int, bits: int | None = None) -> PlanKey:
        # Packed planes are backend-independent today; the engine dimension
        # keeps the key stable for future backends with engine-specific
        # operand layouts (and for caches shared across sessions).
        if bits is None:
            bits = self.config.effective_weight_bits
        return ("weight", layer, bits, self.config.engine)

    def weight_key(self, layer: int, bits: int | None = None) -> PlanKey:
        """Public form of the per-layer packed-weight content key.

        Matches what :meth:`packed_weights` caches under, so a plan
        compiled outside :meth:`compile_plan` resolves the very same
        weight artifacts."""
        return self._weight_key(layer, bits)

    def packed_weights(self) -> list[PackedLayerWeight]:
        """Per-layer packed weights, built through the plan cache.

        The first call per session packs (misses); later calls hit unless
        the segment capacity is smaller than the layer count.
        """
        get_or_build = self._cache.segment("weight").get_or_build
        return [get_or_build(key, build) for key, build in self._weight_builds]

    def warm_up(self) -> "InferenceEngine":
        """Pack all layer weights ahead of traffic; returns ``self``."""
        self.packed_weights()
        return self

    # ------------------------------------------------------------------ #
    # Per-batch artifacts: packed adjacency + compiled plan
    # ------------------------------------------------------------------ #
    @staticmethod
    def _members_digest(batch: SubgraphBatch) -> tuple:
        # Content-derived identity: two batches coalescing structurally
        # identical member subgraphs in the same order share packed planes,
        # tile masks, degrees and compiled plans.
        return tuple(_member_key(sub) for sub in batch.members)

    def packed_adjacency_for(self, batch: SubgraphBatch) -> PackedAdjacency:
        """The batch's packed adjacency + tile-skip plan, via the plan cache.

        First execution of a batch packs and ballots (miss);
        replaying the same round is pure cache traffic, so the zero-tile
        census the kernel counters consume is taken once per distinct
        batch rather than once per request.
        """
        return self._adjacency(batch, self._members_digest(batch))

    def _adjacency(self, batch: SubgraphBatch, digest: tuple) -> PackedAdjacency:
        return self._cache.get_or_build(
            ("adjacency",) + digest, lambda: pack_batch_adjacency(batch)
        )

    def plan_for(
        self, batch: SubgraphBatch, *, adjacency: PackedAdjacency | None = None
    ) -> ExecutionPlan:
        """The batch's compiled execution plan, via the plan cache.

        A miss binds the template of the batch's node count
        (:meth:`compile_plan`: every GEMM's backend resolved once per
        shape) to the content key its
        adjacency artifact hangs off.  A batch whose member
        structure differs in any way — including shape — gets a different
        content key, so a mutated input compiles a fresh plan rather than
        silently replaying a stale one; the executor additionally refuses
        plans whose signature does not match the batch.

        A plan reads nothing of the packed adjacency, so ``adjacency`` is
        accepted and unused.
        """
        return self._plan(batch, self._members_digest(batch))

    def _plan(self, batch: SubgraphBatch, digest: tuple) -> ExecutionPlan:
        # ``digest`` is taken once per round; both cache keys derive from it.
        return self._cache.get_or_build(
            ("plan",) + digest,
            lambda: self.compile_plan(batch.num_nodes, ("adjacency",) + digest),
        )

    def compile_plan(self, num_nodes: int, adjacency_key: PlanKey) -> ExecutionPlan:
        """A forward plan over the adjacency under ``adjacency_key`` (the
        plan is not cached here; its template is).

        The one compile path of a session: :meth:`plan_for` calls it
        under a batch's content key, a
        :class:`~repro.dynamic.session.DynamicSession` under its chained
        structure digest — same fault site, same frozen dispatch either
        way.  A plan depends on its structure only through the node count
        and the adjacency key, so dispatch is decided once per node count
        into a *template* (a plan with no adjacency key, in the verified
        ``template`` segment, also keyed by what its decisions depend on:
        the registry generation and the quarantined backends) and every
        plan is that template bound to its key.
        """
        if self.fault_plan is not None:
            # Injected compile failure: aborts this request with a
            # retryable error before any plan state is cached, so the
            # gateway's bounded retry replays it cleanly.
            self.fault_plan.maybe_raise("compile", detail=self.label)
        quarantined = self._quarantined()
        key = ("template", num_nodes, default_registry().generation, quarantined)

        def compile_template() -> ExecutionPlan:
            return compile_forward_plan(
                self.model,
                num_nodes=num_nodes,
                feature_bits=self.config.feature_bits,
                weight_bits=self.config.effective_weight_bits,
                engine=self._selector(quarantined),
                weight_key=self._weight_key,
            )

        return self._cache.get_or_build(key, compile_template).retarget_adjacency(
            adjacency_key
        )

    # ------------------------------------------------------------------ #
    # Request intake
    # ------------------------------------------------------------------ #
    def _make_request(self, subgraph: Subgraph) -> InferenceRequest:
        request = InferenceRequest(self._next_request_id, subgraph)
        self._next_request_id += 1
        return request

    def submit(self, subgraph: Subgraph) -> InferenceRequest:
        """Queue one subgraph; execution happens at the next flush."""
        request = self._make_request(subgraph)
        self._pending.append(request)
        return request

    @property
    def pending(self) -> int:
        """Requests queued but not yet executed."""
        return len(self._pending)

    def flush(self) -> list[InferenceResult]:
        """Execute every pending request, coalesced; results in order."""
        requests = list(self._pending)
        self._pending.clear()
        results: list[InferenceResult] = []
        start = 0
        for batch in batch_subgraphs_by_nodes(
            [r.subgraph for r in requests],
            self.config.max_batch_nodes,
            max_members=self.config.batch_size,
        ):  # the node-budget batching rule, order preserved
            stop = start + len(batch.members)
            results.extend(self._execute(requests[start:stop], batch))
            start = stop
        return results

    def infer(self, subgraphs: Iterable[Subgraph]) -> list[InferenceResult]:
        """Submit the subgraphs and flush the whole queue in one call.

        Equivalent to ``submit()`` for each plus :meth:`flush` — so any
        requests already pending from earlier ``submit()`` calls execute in
        the same flush and their results are included, first, in the
        returned (submission-ordered) list.  Use :meth:`infer_one` for
        queue-independent single requests.
        """
        for subgraph in subgraphs:
            self.submit(subgraph)
        return self.flush()

    def infer_one(self, subgraph: Subgraph) -> InferenceResult:
        """Serve a single subgraph immediately (no coalescing wait).

        Bypasses the pending queue: previously submitted requests stay
        queued for the next :meth:`flush` and are not executed here.
        """
        return self._execute([self._make_request(subgraph)])[0]

    def stream(self, subgraphs: Iterable[Subgraph]) -> Iterator[InferenceResult]:
        """Serve an arbitrarily long request stream, yielding as rounds fill.

        Requests are buffered until a round is full (``batch_size`` members
        or ``max_batch_nodes`` nodes), executed, and their results yielded
        before more input is consumed — bounded memory for unbounded
        streams.
        """
        buffer: list[InferenceRequest] = []
        nodes = 0
        for subgraph in subgraphs:
            request = self._make_request(subgraph)
            if round_full(
                len(buffer),
                nodes,
                subgraph.num_nodes,
                self.config.max_batch_nodes,
                self.config.batch_size,
            ):
                yield from self._execute(buffer)
                buffer, nodes = [], 0
            buffer.append(request)
            nodes += subgraph.num_nodes
        if buffer:
            yield from self._execute(buffer)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _execute(
        self, requests: Sequence[InferenceRequest], batch: SubgraphBatch | None = None
    ) -> list[InferenceResult]:
        """Run one coalesced round — compile or replay its plan — and split
        results back per request.  ``batch`` is the requests' subgraphs as
        the coalescing rule already batched them (built here otherwise)."""
        if batch is None:
            batch = SubgraphBatch(members=tuple(r.subgraph for r in requests))
        start = time.perf_counter()
        digest = self._members_digest(batch)
        adjacency = self._adjacency(batch, digest)
        adjacency_at = time.perf_counter()
        plan = self._plan(batch, digest)
        resolve_seconds = (adjacency_at - start, time.perf_counter() - adjacency_at)
        forward = self.run_round(
            batch, adjacency, plan, resolve_seconds=resolve_seconds
        )
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        logits = forward.logits
        return [
            InferenceResult(request.request_id, batch_id, logits[rows])
            for request, rows in zip(requests, forward.program.derived["round"].slices)
        ]

    def run_round(
        self,
        batch: SubgraphBatch,
        adjacency: PackedAdjacency,
        plan: ExecutionPlan,
        *,
        resolve_seconds: tuple[float, float] = (0.0, 0.0),
    ) -> QuantizedForwardResult:
        """Execute one already-resolved round and do *all* its accounting.

        The session's single forward-round path: :meth:`_execute` resolves
        ``adjacency`` and ``plan`` under the batch's content keys, a
        :class:`~repro.dynamic.session.DynamicSession` under its chained
        structure digest, and both land here — so step recovery, backend
        timings, kernel counters and modeled device time cannot differ
        between them.  ``resolve_seconds`` is what the caller spent
        resolving the two artifacts (``pack_adjacency``, ``plan_compile``);
        it joins this round's measured window.
        """
        # One-time session costs (weight quantize + pack) stay outside the
        # measured window: ``wall_s`` is seconds spent inside batch execution.
        weights = self.packed_weights()
        start = time.perf_counter()
        forward = execute_forward_plan(
            plan,
            self.model,
            batch,
            packed_weights=weights,
            packed_adjacency=adjacency,
            artifacts=self._cache,
            calibration=self.calibration,
            kernel_config=self.config.kernel,
            apply_softmax=self.config.apply_softmax,
            recovery=self._recovery,
        )
        executed_s = time.perf_counter() - start
        stats = self.stats
        program = forward.program
        bound = program.derived.get("round")  # bound on the program's first round
        if bound is None:
            bound = program.derived["round"] = self._bind_round(batch, adjacency, program)
        pack_s, plan_s = resolve_seconds
        elapsed = executed_s + pack_s + plan_s
        stats.wall_s += elapsed
        stats.recent_round_seconds.append(elapsed)
        # Phase attribution of the measured window: the two artifact
        # sub-windows (adjacency resolution, plan lookup/compile), the
        # executor's stamped phases, and — as its own ``round_glue`` phase —
        # whatever of the execute window neither owns (the executor's entry
        # and exit), so every wall_s second has a named owner.
        stamps = forward.stamps
        spent = [pack_s, plan_s, 0.0] + [0.0] * len(PHASES)
        last = stamps[0]
        for slot, now in zip(bound.slots[forward.binding], stamps[1:]):
            spent[slot] += now - last
            last = now
        spent[2] = max(executed_s - (last - stamps[0]), 0.0)
        phase_seconds = stats.phase_seconds
        for phase, seconds in zip(ROUND_PHASES, spent):
            phase_seconds[phase] = phase_seconds.get(phase, 0.0) + seconds
        samples = [  # a recovered step's time is its winning attempt's
            t[1:] for t in forward.timings
        ] if forward.recovered else [
            (backend, stamps[at + 1] - stamps[at])
            for backend, at in zip(bound.backends, program.gemm_at[forward.binding])
        ]
        backend_seconds = stats.backend_seconds
        for backend, seconds in samples:
            backend_seconds[backend] = backend_seconds.get(backend, 0.0) + seconds

        stats.step_retries += len(forward.recoveries)
        stats.requests += len(batch.members)
        stats.batches += 1
        stats.nodes += batch.num_nodes
        # A step censused per round has no program total: its records are summed.
        for totals in forward.counters if program.totals is None else (program.totals,):
            stats.mma_ops += totals.mma_ops
            stats.kernel_launches += totals.launches
            stats.tiles_total += totals.tiles_total
            stats.tiles_skipped += totals.tiles_skipped
        self.device_report.merge(bound.report)
        return forward

    def _bind_round(self, batch: SubgraphBatch, adjacency: PackedAdjacency, program) -> _RoundBinding:
        census = adjacency.plan
        # Pure in these (the cost model stands for the engine's model, config and
        # device); every plan bound from one template shares this memo (<= mt*kt+1).
        reports = next(b.step.derived for b in program.steps if b.aggregate)
        key = ("report", self._cost, batch.num_nodes, census.tile_grid, census.nonzero_tiles)
        if key not in reports:
            reports[key] = modeled_plan_report(self.model, self._run_config, num_nodes=batch.num_nodes,
                                               tile_plan=census, device=self.config.device, cost=self._cost)
        fixed = program.shared.get("round")  # what the template part alone fixes
        if fixed is None:
            fixed = program.shared["round"] = (
                tuple(b.step.backend for b in program.steps),
                tuple(tuple(_SLOTS[phase] for phase, _, _ in layout) for layout in program.layouts))
        return _RoundBinding(*fixed, reports[key], tuple(batch.member_slices()))

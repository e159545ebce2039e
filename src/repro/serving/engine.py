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
* **Cost-model dispatch** — at plan-compile time each bit-GEMM is routed
  across the registered backends by a
  :class:`~repro.serving.dispatch.CostModelDispatcher` priced from
  :mod:`repro.tc.costmodel` work measures and
  :class:`~repro.plan.rates.HostRates`.  Before compiling, the engine
  reports the batch's *measured* non-zero-tile fraction to the
  dispatcher, the sparsity coordinate its measured table buckets the
  adjacency GEMMs under.
* **Measured autotuned dispatch** — the dispatcher carries a
  shape-bucketed :class:`~repro.plan.autotune.DispatchTable` (held in the
  plan cache's ``table`` segment) and every executed plan step's measured
  wall-clock is fed back into it, so dispatch sharpens from guessed
  :class:`~repro.plan.rates.HostRates` prices toward measured medians as
  the session serves.  The table is an in-memory measurement: it starts
  empty with the session and is never written to disk.

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
from ..plan.autotune import DispatchTable, bucket_in, fraction_band
from ..plan.cache import CacheStats, LRUCache, PlanCache, PlanKey, artifact_digest
from ..plan.ir import ExecutionPlan, compile_forward_plan
from ..plan.registry import default_registry
from ..runtime.executor import QGTCRunConfig, modeled_plan_report
from ..runtime.report import EpochReport
from ..tc.costmodel import TCCostModel
from ..tc.hardware import RTX3090, DeviceSpec
from ..tc.kernel import KernelConfig
from ..telemetry import Counters, emit_event
from .dispatch import CostModelDispatcher
from .supervision import StepRecovery

__all__ = [
    "ServingConfig",
    "InferenceRequest",
    "InferenceResult",
    "SessionStats",
    "StalePlan",
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
            table_min_samples=3,   # trust a measured median after 3 samples
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
    #: ``"cost"`` routes each GEMM through the cost-model dispatcher at
    #: plan-compile time; ``"auto"`` applies the built-in size threshold;
    #: any registered backend name forces that backend for the whole
    #: session.
    engine: str = "cost"
    #: Per-bucket confidence floor of the dispatch table: a measured
    #: median overrides the analytic model only after this many samples.
    table_min_samples: int = 2
    #: Feed executed plan steps' measured timings back into the dispatch
    #: table (only meaningful with ``engine="cost"``).
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
            "table_min_samples",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if self.engine not in ("cost", "auto") and self.engine not in default_registry():
            raise ConfigError(
                "engine must be 'cost', 'auto' or a registered backend "
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


@dataclass(frozen=True)
class StalePlan:
    """One cached plan whose frozen backend diverged from the tuned pick.

    Produced by :meth:`InferenceEngine.stale_plans`: the plan froze a
    dispatch decision at compile time, and the dispatch table has since
    learned from online timing feedback that a different backend is
    cheaper for at least one of its GEMMs.
    """

    #: The plan's content key in the session's ``plan`` cache segment.
    key: PlanKey
    #: One ``(site, frozen_backend, tuned_backend)`` triple per diverged
    #: GEMM step, e.g. ``("L0/agg", "packed", "blas")``.
    divergences: tuple[tuple[str, str, str], ...]


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
    #: ring) — the per-round service-time distribution that SLO-aware
    #: layers above (gateway admission, hedging) are tuned
    #: against; see :attr:`round_seconds_p50` / :attr:`round_seconds_p99`.
    recent_round_seconds: deque = field(
        default_factory=lambda: deque(maxlen=256)
    )
    #: Executed-GEMM timing samples fed back into the dispatch table
    #: (0 when dispatch is not cost-model or feedback is disabled).
    autotune_samples: int = 0
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
    #: Cached plans dropped because their frozen backend choice diverged
    #: from the dispatch table's current tuned pick
    #: (:meth:`InferenceEngine.invalidate_stale_plans`); each recompiles
    #: on its next replay with bit-identical logits.
    plans_invalidated: int = 0
    #: GEMM-step attempts that failed and were recovered on a fallback
    #: backend (``repro.serving.supervision.StepRecovery``) — each one a
    #: served request that a single-backend engine would have dropped.
    step_retries: int = 0
    #: Per-kind telemetry windows onto the session's unified plan cache.
    weight_cache: CacheStats = field(default_factory=CacheStats)
    adjacency_cache: CacheStats = field(default_factory=CacheStats)
    plan_cache: CacheStats = field(default_factory=CacheStats)
    #: Telemetry window onto the plan-template segment (one priced plan
    #: per ``(node count, census band)``; see ``compile_plan``).
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
    alone (:meth:`InferenceEngine.run_round`): each step's dispatch bucket
    and planned backend, each stamped interval's :data:`ROUND_PHASES` slot
    (a replay's, a binding round's), the modeled device report and each
    member's row slice."""

    buckets: tuple
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
        and dispatch-table segments) into this session's plan cache, and
        ``label`` names this session in pool telemetry and the modeled
        device report.

        ``health`` shares a
        :class:`~repro.serving.supervision.BackendHealth` circuit breaker
        across sessions: it records per-backend step outcomes and vetoes
        quarantined backends in cost-model dispatch.  ``fault_plan``
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
                # Plan templates, one per (node count, census band): sized
                # from the node budget, not a knob (see compile_plan).
                "template": max(self.config.max_batch_nodes // TC_M, 1),
                # One dispatch table per session (a pool's shards mount
                # one): the segment exists for the unified lookup and
                # telemetry surface, not for eviction behavior.
                "table": 1,
            },
            shared=shared_segments,
            fault_plan=fault_plan,
        )
        bits = self.config.effective_weight_bits
        self._weight_builds = tuple(  # (key, builder) of each layer's packed weights
            (self._weight_key(i, bits), partial(pack_layer_weight, w, bits))
            for i, w in enumerate(self.model.weights)
        )
        self._engine: Engine
        if self.config.engine == "cost":
            self._engine = CostModelDispatcher(
                self.config.device,
                table=self._resolve_dispatch_table(),
                health=health,
            )
        else:
            self._engine = self.config.engine
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
    # The measured dispatch table (a plan artifact like any other)
    # ------------------------------------------------------------------ #
    def _resolve_dispatch_table(self) -> DispatchTable:
        """The session's dispatch table, via the plan cache's ``table``
        segment: built empty on first use, or the one a pool's shared
        segment already holds."""
        return self._cache.get_or_build(
            ("table",),
            lambda: DispatchTable(min_samples=self.config.table_min_samples),
        )

    @property
    def dispatch_table(self) -> DispatchTable | None:
        """The measured dispatch table, when cost-model dispatch is on."""
        if isinstance(self._engine, CostModelDispatcher):
            return self._engine.table
        return None

    @property
    def dispatcher(self) -> CostModelDispatcher | None:
        """The cost-model dispatcher, when one drives backend selection."""
        if isinstance(self._engine, CostModelDispatcher):
            return self._engine
        return None

    @property
    def engine_selector(self):
        """What ``compile_forward_plan`` dispatches through: the
        cost-model dispatcher when enabled, else the configured engine
        name.  Exposed so a caller compiling a plan by hand (the
        dynamic-mutation benchmark's full-recompile baseline) freezes
        the same dispatch decisions as :meth:`compile_plan`."""
        return self._engine

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

        A miss binds the template of the batch's node count and census band
        (:meth:`compile_plan`: every GEMM's backend resolved through the
        dispatcher/registry once per shape) to the content key its
        adjacency artifact hangs off.  A batch whose member
        structure differs in any way — including shape — gets a different
        content key, so a mutated input compiles a fresh plan rather than
        silently replaying a stale one; the executor additionally refuses
        plans whose signature does not match the batch.

        ``adjacency`` passes the batch's already-resolved packed adjacency
        to avoid a second cache lookup.
        """
        digest = self._members_digest(batch)
        if adjacency is None:
            adjacency = self._adjacency(batch, digest)
        return self._plan(batch, digest, adjacency)

    def _plan(
        self, batch: SubgraphBatch, digest: tuple, adjacency: PackedAdjacency
    ) -> ExecutionPlan:
        # ``digest`` is taken once per round; both cache keys derive from it.
        return self._cache.get_or_build(
            ("plan",) + digest,
            lambda: self.compile_plan(
                batch.num_nodes, adjacency, ("adjacency",) + digest
            ),
        )

    def compile_plan(
        self, num_nodes: int, adjacency: PackedAdjacency, adjacency_key: PlanKey
    ) -> ExecutionPlan:
        """A forward plan over ``adjacency`` under ``adjacency_key`` (the
        plan is not cached here; its template is).

        The one compile path of a session: :meth:`plan_for` calls it
        under a batch's content key, a
        :class:`~repro.dynamic.session.DynamicSession` under its chained
        structure digest — same fault site, same frozen dispatch either
        way.  A plan depends on its structure only through the node count,
        the census band the dispatch table buckets by and the adjacency
        key, so dispatch is priced once per ``(num_nodes, band)`` into a
        *template* (a plan with no adjacency key, in the verified
        ``template`` segment, also keyed by what its decisions depend on:
        the registry generation and the quarantined backends) and every
        plan is that template bound to its key.
        """
        if self.fault_plan is not None:
            # Injected compile failure: aborts this request with a
            # retryable error before any plan state is cached, so the
            # gateway's bounded retry replays it cleanly.
            self.fault_plan.maybe_raise("compile", detail=self.label)
        fraction = adjacency.nonzero_fraction
        quarantined = () if self.health is None else self.health.quarantined()
        key = ("template", num_nodes, fraction_band(fraction),
               default_registry().generation, quarantined)

        def compile_template() -> ExecutionPlan:
            if isinstance(self._engine, CostModelDispatcher):
                # Hand the dispatcher this batch's measured census so the
                # frozen dispatch decisions are priced from observation.
                self._engine.observe_tile_fraction(fraction, nodes=num_nodes)
            return compile_forward_plan(
                self.model,
                num_nodes=num_nodes,
                feature_bits=self.config.feature_bits,
                weight_bits=self.config.effective_weight_bits,
                engine=self._engine,
                weight_key=self._weight_key,
            )

        return self._cache.get_or_build(key, compile_template).retarget_adjacency(
            adjacency_key
        )

    # ------------------------------------------------------------------ #
    # Stale-plan detection and invalidation
    # ------------------------------------------------------------------ #
    def stale_plans(self) -> list[StalePlan]:
        """Cached plans whose frozen dispatch diverged from the tuned pick.

        A compiled plan freezes each GEMM's backend at compile time; the
        dispatch table keeps learning afterwards (online timing feedback,
        a sibling shard's samples).  This scan re-prices every
        cached plan's GEMMs against the *current* table — reproducing the
        compile-time census coordinates from the plan's cached adjacency
        artifact — and reports the plans whose frozen choice no longer
        matches.  Read-only: uses ``peek`` so neither cache telemetry nor
        recency order is perturbed.

        Plans whose adjacency artifact has been evicted are skipped — the
        compile-time census cannot be reproduced, so divergence cannot be
        judged (they will recompile naturally if replayed after their
        adjacency is rebuilt).  Empty unless dispatch is cost-model.
        """
        if not isinstance(self._engine, CostModelDispatcher):
            return []
        dispatcher = self._engine
        plan_segment = self._cache.segment("plan")
        adjacency_segment = self._cache.segment("adjacency")
        stale: list[StalePlan] = []
        # The scan re-observes each plan's census; save the live serving
        # observation so analysis leaves dispatch state untouched.
        saved_fraction = dispatcher.tile_fraction
        saved_nodes = dispatcher._observed_nodes
        try:
            for key in plan_segment.keys():
                plan = plan_segment.peek(key)
                if plan is None:
                    continue
                adjacency = adjacency_segment.peek(
                    plan.layers[0].aggregate.pack_a.cache_key
                )
                if adjacency is None:
                    continue
                dispatcher.observe_tile_fraction(
                    adjacency.nonzero_fraction, nodes=adjacency.num_nodes
                )
                divergences = []
                for layer in plan.layers:
                    for step, tag in ((layer.aggregate, "agg"), (layer.update, "upd")):
                        spec = step.spec
                        picked = dispatcher.decide(spec.m, spec.k, spec.n, spec.bits_a, spec.bits_b).engine
                        if picked != step.backend:
                            divergences.append((f"L{layer.index}/{tag}", step.backend, picked))
                if divergences:
                    stale.append(StalePlan(key=key, divergences=tuple(divergences)))
        finally:
            dispatcher.tile_fraction = saved_fraction
            dispatcher._observed_nodes = saved_nodes
        return stale

    def invalidate_stale_plans(self) -> list[StalePlan]:
        """Drop every stale plan so its next replay recompiles.

        For each plan :meth:`stale_plans` reports, the cached entry is
        discarded (counted in ``stats.plans_invalidated`` and the plan
        segment's ``invalidations``, not its evictions).  The next
        execution of the same batch misses, recompiles under the current
        tuned table, and returns bit-identical logits (a plan's backend
        choice affects schedule, never arithmetic).  Every plan template
        is dropped too, stale or not, so the next miss re-prices against
        the live table.  Returns what was invalidated.
        """
        stale = self.stale_plans()
        templates = self._cache.segment("template")
        for key in templates.keys():
            templates.discard(key)
        plan_segment = self._cache.segment("plan")
        for entry in stale:
            if plan_segment.discard(entry.key):
                self.stats.plans_invalidated += 1
        if stale:
            emit_event(
                __name__, "stale_plans_invalidated", shard=self.label,
                plans={artifact_digest(e.key): e.divergences for e in stale},
            )
        return stale

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
        plan = self._plan(batch, digest, adjacency)
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
        structure digest, and both land here — so step recovery, timing
        feedback, kernel counters and modeled device time cannot differ
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
        # Every executed step — compiled or replayed — is a free autotuning
        # sample: its measured wall-clock goes back into the dispatch table
        # under the (shape, bits, census) bucket the dispatcher prices with,
        # the whole round under one lock.
        samples = [  # a recovered step's sample is its winning attempt
            (b, *t[1:]) for b, t in zip(bound.buckets, forward.timings)
        ] if forward.recovered else [
            (bucket, backend, stamps[at + 1] - stamps[at])
            for bucket, backend, at in zip(bound.buckets, bound.backends,
                                           program.gemm_at[forward.binding])
        ]
        backend_seconds = stats.backend_seconds
        for _, backend, seconds in samples:
            backend_seconds[backend] = backend_seconds.get(backend, 0.0) + seconds
        table = self.dispatch_table if self.config.record_timings else None
        if table is not None:
            table.record_all(samples)
            stats.autotune_samples += len(samples)

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
        census, fraction = adjacency.plan, adjacency.nonzero_fraction
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
        buckets = tuple(bucket_in(b.step.derived, b.step.spec, fraction if b.aggregate else None)
                        for b in program.steps)
        return _RoundBinding(buckets, *fixed, reports[key], tuple(batch.member_slices()))

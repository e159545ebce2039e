"""Dynamic-graph serving: mutate, patch-or-recompile, never serve stale.

:class:`DynamicSession` pairs a :class:`~repro.dynamic.mutable.MutableGraph`
with an :class:`~repro.serving.engine.InferenceEngine` and keeps the
engine's content-keyed artifact caches coherent across mutations:

* every dynamic artifact is keyed by the graph's **chained structure
  digest** — ``("adjacency", "dynamic", digest)`` for the packed operand,
  ``("plan", "dynamic", digest)`` for the compiled plan — so a mutation
  changes every key and a stale entry can never be *hit* again;
* on mutation the packed operand is **delta-published** (a frozen
  snapshot of the incrementally-updated planes, no CSR rebuild and
  re-pack) and the cached plan is **patched**
  (:meth:`~repro.plan.ir.ExecutionPlan.retarget_adjacency`) when the
  :class:`~repro.dynamic.patch.PatchPolicy` allows, recompiled when the
  census drifted past its thresholds;
* superseded entries — including codegen ``kernel``-segment entries
  compiled against the pre-mutation census — are eagerly **discarded**
  (counted as cache invalidations), and :meth:`serve` re-checks the
  served operand's census digest against the live structure so a stale
  compiled kernel is caught and counted (``stale_kernel_hits``; the
  benchmark asserts zero) even if a caller bypasses the bookkeeping.

Serving hands the live ``(batch, snapshot, plan)`` to the engine's single
round path (:meth:`~repro.serving.engine.InferenceEngine.run_round`), so
a dynamic serve carries the same step recovery, timing feedback, kernel
counters and modeled device time as a static round, and its logits are
bit-identical to a fresh pack-from-scratch forward of the mutated
structure (the differential harness pins this at every mutation rate).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..codegen import gemm_kernel_key
from ..codegen.backend import census_digest
from ..errors import ConfigError
from ..gnn.quantized import PackedAdjacency, QuantizedForwardResult
from ..graph.csr import CSRGraph
from ..plan.ir import ExecutionPlan
from ..serving.engine import InferenceEngine, ServingConfig
from ..telemetry import Counters
from .mutable import MutableGraph, MutationDelta
from .patch import PatchDecision, PatchPolicy

__all__ = ["DynamicSession", "DynamicStats"]

_DYNAMIC_TAG = "dynamic"


@dataclass
class DynamicStats(Counters):
    """Running totals of one dynamic serving session."""

    #: Mutation batches that changed the structure (digest advanced).
    mutation_batches: int = 0
    #: Forward passes served from the incremental state.
    serves: int = 0
    #: Plans reused via key patching (no compilation).
    plans_patched: int = 0
    #: Plans recompiled because the policy refused to patch (or none
    #: existed yet).
    plans_recompiled: int = 0
    #: Superseded dynamic plan entries discarded from the plan segment.
    plans_invalidated: int = 0
    #: Superseded packed-adjacency entries discarded.
    adjacency_invalidated: int = 0
    #: Codegen kernels (keyed by the pre-mutation census digest) discarded.
    kernels_invalidated: int = 0
    #: Mutation batches absorbed without a CSR rebuild + re-pack.
    repacks_avoided: int = 0
    #: Times a served plan/operand pair failed the live-structure check.
    #: The invariant this class exists to enforce is that this stays 0.
    stale_kernel_hits: int = 0
    #: Seconds inside :meth:`DynamicSession.serve` measured windows.
    serve_seconds: float = 0.0


class DynamicSession:
    """Serve a mutating graph through patched/recompiled cached plans."""

    def __init__(
        self,
        model,
        graph: "MutableGraph | CSRGraph",
        config: ServingConfig | None = None,
        *,
        policy: PatchPolicy | None = None,
        calibration=None,
        engine: InferenceEngine | None = None,
    ) -> None:
        """Wrap ``graph`` (a :class:`MutableGraph`, or a CSR to wrap) and
        serve it through ``engine`` (a fresh one by default).  The graph
        must carry node features — the forward pass reads them."""
        if isinstance(graph, CSRGraph):
            graph = MutableGraph.from_csr(graph)
        self.mutable = graph
        if self.mutable.features is None:
            raise ConfigError(
                "dynamic serving needs node features on the wrapped graph"
            )
        self.engine = (
            engine
            if engine is not None
            else InferenceEngine(model, config, calibration=calibration)
        )
        self.policy = policy if policy is not None else PatchPolicy()
        self.stats = DynamicStats()
        self.last_decision: PatchDecision | None = None
        # The executor only reads features()/num_nodes from the batch when
        # the packed adjacency is passed explicitly; both are mutation
        # invariant, so one template batch serves every structure version.
        self._feature_batch = self.mutable.to_batch()
        # Compile-time census state the patch policy judges drift against.
        self._dirty_since_compile: set[tuple[int, int]] = set()
        self._fraction_at_compile: float | None = None
        self._mask_at_compile: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Content keys
    # ------------------------------------------------------------------ #
    def adjacency_key(self) -> tuple:
        """Current packed-operand key: moves with every mutation."""
        return ("adjacency", _DYNAMIC_TAG, self.mutable.structure_digest)

    def plan_key(self) -> tuple:
        """Current compiled-plan key: moves with every mutation."""
        return ("plan", _DYNAMIC_TAG, self.mutable.structure_digest)

    @staticmethod
    def _is_dynamic_key(key: object) -> bool:
        return (
            isinstance(key, tuple)
            and len(key) == 3
            and key[1] == _DYNAMIC_TAG
        )

    # ------------------------------------------------------------------ #
    # Mutation intake
    # ------------------------------------------------------------------ #
    def mutate(self, mutations) -> MutationDelta:
        """Apply a mutation batch and bring the caches up to date.

        Delta-updates the packed planes and census, publishes a frozen
        snapshot under the new structure digest, patches the cached plan
        (policy permitting) or recompiles it, then discards every
        superseded dynamic cache entry — adjacency, plan, and the codegen
        kernels of the pre-mutation census (:meth:`invalidate_mutated`).
        """
        cache = self.engine.plan_artifacts
        old_plan_key = self.plan_key()
        delta = self.mutable.apply(mutations)
        if not delta.mutated:
            return delta
        self.stats.mutation_batches += 1
        self._dirty_since_compile |= delta.dirty_tiles
        adjacency = self.mutable.snapshot()
        cache.put(self.adjacency_key(), adjacency)
        self.stats.repacks_avoided += 1
        old_plan = cache.segment("plan").peek(old_plan_key)
        mask_now = adjacency.plan.masks[0]
        fraction_at_compile = (
            self._fraction_at_compile
            if self._fraction_at_compile is not None
            else adjacency.nonzero_fraction
        )
        decision = self.policy.decide(
            dirty_tiles=len(self._dirty_since_compile),
            total_tiles=int(mask_now.size),
            fraction_at_compile=fraction_at_compile,
            fraction_now=adjacency.nonzero_fraction,
            mask_at_compile=self._mask_at_compile,
            mask_now=mask_now,
        )
        self.last_decision = decision
        if decision.patch and old_plan is not None:
            patched = old_plan.retarget_adjacency(self.adjacency_key())
            cache.put(self.plan_key(), patched)
            self.stats.plans_patched += 1
            dispatcher = self.engine.dispatcher
            if dispatcher is not None:
                # Keep the pricer's census observation current even when
                # no compilation consults it right now.
                dispatcher.observe_tile_fraction(
                    adjacency.nonzero_fraction, nodes=self.mutable.num_nodes
                )
        else:
            self._recompile(adjacency)
        self.invalidate_mutated()
        return delta

    def _recompile(self, adjacency: PackedAdjacency) -> ExecutionPlan:
        """Cache the live plan for the current census — a template bind
        unless its node count or census band is new — and reset the drift
        state the patch policy judges against."""
        plan = self.engine.compile_plan(
            self.mutable.num_nodes, adjacency, self.adjacency_key()
        )
        self.engine.plan_artifacts.put(self.plan_key(), plan)
        self.stats.plans_recompiled += 1
        self._dirty_since_compile.clear()
        self._fraction_at_compile = adjacency.nonzero_fraction
        self._mask_at_compile = adjacency.plan.masks[0]
        return plan

    # ------------------------------------------------------------------ #
    # Invalidation
    # ------------------------------------------------------------------ #
    def invalidate_mutated(self) -> dict[str, int]:
        """Discard every dynamic cache entry keyed by a dead digest.

        Retires superseded adjacency and plan entries from the engine's
        :class:`~repro.plan.cache.PlanCache` (counted in each segment's
        ``invalidations``) and, for every retired adjacency, the codegen
        ``kernel``-segment entries compiled against its census — the keys
        are reconstructed via
        :func:`~repro.codegen.backend.gemm_kernel_key`, so stale kernels
        are removed without recompiling anything.  Idempotent; returns
        the per-kind discard counts.
        """
        cache = self.engine.plan_artifacts
        current = self.mutable.structure_digest
        counts = {"adjacency": 0, "plan": 0, "kernel": 0}
        kernel_segment = cache.segment("kernel")
        plan_now = cache.segment("plan").peek(self.plan_key())
        adjacency_segment = cache.segment("adjacency")
        for key in list(adjacency_segment.keys()):
            if not self._is_dynamic_key(key) or key[2] == current:
                continue
            stale = adjacency_segment.peek(key)
            if stale is not None and plan_now is not None:
                for step in plan_now.gemm_steps():
                    spec = step.spec
                    if spec.role != "aggregate" or spec.bits_a != 1:
                        continue
                    kernel_key = gemm_kernel_key(
                        m=spec.m,
                        n=spec.n,
                        bits_a=spec.bits_a,
                        bits_b=spec.bits_b,
                        a_padded_vectors=stale.operand.padded_vectors,
                        a_k_words=stale.operand.k_words,
                        tile_mask=stale.plan.masks[0],
                    )
                    if kernel_segment.discard(kernel_key):
                        counts["kernel"] += 1
            if adjacency_segment.discard(key):
                counts["adjacency"] += 1
        plan_segment = cache.segment("plan")
        for key in list(plan_segment.keys()):
            if self._is_dynamic_key(key) and key[2] != current:
                if plan_segment.discard(key):
                    counts["plan"] += 1
        self.stats.adjacency_invalidated += counts["adjacency"]
        self.stats.plans_invalidated += counts["plan"]
        self.stats.kernels_invalidated += counts["kernel"]
        return counts

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def serve(self) -> QuantizedForwardResult:
        """One forward pass over the current structure.

        Resolves the operand and plan by the live structure digest
        (seeding frozen snapshots / compiling on miss), verifies the pair
        actually describes the live structure (a mismatch is a
        ``stale_kernel_hits`` event and forces a rebuild — it cannot
        serve), and runs the engine's round on it.  Logits are
        bit-identical to a fresh pack-from-scratch forward of the same
        structure.
        """
        cache = self.engine.plan_artifacts
        start = time.perf_counter()
        adjacency = cache.get_or_build(self.adjacency_key(), self.mutable.snapshot)
        adjacency_at = time.perf_counter()
        plan = cache.segment("plan").get(self.plan_key())
        if plan is None:
            plan = self._recompile(adjacency)
        adjacency, plan = self._check_live(adjacency, plan)
        resolve_seconds = (adjacency_at - start, time.perf_counter() - adjacency_at)
        forward = self.engine.run_round(
            self._feature_batch, adjacency, plan, resolve_seconds=resolve_seconds
        )
        self.stats.serves += 1
        self.stats.serve_seconds += time.perf_counter() - start
        return forward

    def _check_live(
        self,
        adjacency: PackedAdjacency,
        plan: ExecutionPlan,
    ) -> tuple[PackedAdjacency, ExecutionPlan]:
        """The serve-time stale guard (see :attr:`DynamicStats.stale_kernel_hits`).

        A plan or operand that does not describe the live structure —
        wrong adjacency key, or a census digest that disagrees with the
        live census — would replay a kernel compiled for a different
        graph.  The digest keying makes this unreachable through the
        normal flow; this check makes it *detectable* if anything
        bypasses the keying, and rebuilds before serving.
        """
        expected_key = self.adjacency_key()
        live_digest = census_digest(self.mutable.census_mask())
        ok = all(key == expected_key for key in plan.adjacency_keys())
        ok = ok and census_digest(adjacency.plan.masks[0]) == live_digest
        ok = ok and adjacency.num_nodes == self.mutable.num_nodes
        if ok:
            return adjacency, plan
        self.stats.stale_kernel_hits += 1
        adjacency = self.mutable.snapshot()
        self.engine.plan_artifacts.put(expected_key, adjacency)
        return adjacency, self._recompile(adjacency)

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    def dynamic_metrics(self) -> dict[str, float]:
        """Session + graph mutation counters, flat (PAG dynamic node)."""
        metrics = self.stats.as_metrics()
        for name, value in self.mutable.stats.as_metrics().items():
            metrics[f"graph.{name}"] = value
        metrics["nonzero_fraction"] = self.mutable.nonzero_fraction
        metrics["num_edges"] = self.mutable.num_edges
        return {name: float(value) for name, value in metrics.items()}

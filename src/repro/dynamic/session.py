"""Dynamic-graph serving: mutate, bind a plan template, never serve stale.

:class:`DynamicSession` pairs a :class:`~repro.dynamic.mutable.MutableGraph`
with an :class:`~repro.serving.engine.InferenceEngine` and keeps the
engine's content-keyed artifact caches coherent across mutations:

* every dynamic artifact is keyed by the graph's **chained structure
  digest** — ``("adjacency", "dynamic", digest)`` for the packed operand,
  ``("plan", "dynamic", digest)`` for the compiled plan — so a mutation
  changes every key and a stale entry can never be *hit* again;
* on mutation the operand is **delta-published** (a snapshot sharing the
  graph's incrementally-spliced CSR and census, no CSR rebuild from the
  edge set and no word packed) and the live plan is **bound** by
  :meth:`~repro.serving.engine.InferenceEngine.compile_plan`: the
  engine's template for the graph's ``(num_nodes, census band)``
  retargeted at the new key, priced afresh only when that pair (or the
  registry, or the quarantined backends) is new;
* superseded entries are eagerly **discarded** (counted as cache
  invalidations), and :meth:`serve` re-checks the served operand's census
  against the live structure so a stale plan/operand pair is caught and
  counted (``stale_kernel_hits``; the benchmark asserts zero) even if a
  caller bypasses the bookkeeping.

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

from ..errors import ConfigError
from ..gnn.quantized import PackedAdjacency, QuantizedForwardResult
from ..graph.csr import CSRGraph
from ..plan.ir import ExecutionPlan
from ..serving.engine import InferenceEngine, ServingConfig
from ..telemetry import Counters
from .mutable import MutableGraph, MutationDelta

__all__ = ["DynamicSession", "DynamicStats"]

_DYNAMIC_TAG = "dynamic"


@dataclass
class DynamicStats(Counters):
    """Running totals of one dynamic serving session."""

    #: Mutation batches that changed the structure (digest advanced).
    mutation_batches: int = 0
    #: Forward passes served from the incremental state.
    serves: int = 0
    #: Plans bound from an already-priced template (no compilation).
    plans_patched: int = 0
    #: Plans that priced a new template: a ``(num_nodes, census band)``,
    #: registry generation or quarantined set the engine had not seen.
    plans_recompiled: int = 0
    #: Superseded dynamic plan entries discarded from the plan segment.
    plans_invalidated: int = 0
    #: Superseded packed-adjacency entries discarded.
    adjacency_invalidated: int = 0
    #: Mutation batches absorbed without a CSR rebuild + re-pack.
    repacks_avoided: int = 0
    #: Times a served plan/operand pair failed the live-structure check.
    #: The invariant this class exists to enforce is that this stays 0.
    stale_kernel_hits: int = 0
    #: Seconds inside :meth:`DynamicSession.serve` measured windows.
    serve_seconds: float = 0.0


class DynamicSession:
    """Serve a mutating graph through plans bound from engine templates."""

    def __init__(
        self,
        model,
        graph: "MutableGraph | CSRGraph",
        config: ServingConfig | None = None,
        *,
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
        self.stats = DynamicStats()
        # The executor only reads features()/num_nodes from the batch when
        # the packed adjacency is passed explicitly; both are mutation
        # invariant, so one template batch serves every structure version.
        self._feature_batch = self.mutable.to_batch()

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

        Splices the edits into the graph's CSR and census, publishes a
        snapshot of them under the new structure digest, binds the live plan
        (:meth:`_bind`), then discards every superseded dynamic cache
        entry (:meth:`invalidate_mutated`).
        """
        delta = self.mutable.apply(mutations)
        if not delta.mutated:
            return delta
        self.stats.mutation_batches += 1
        adjacency = self.mutable.snapshot()
        self.engine.plan_artifacts.put(self.adjacency_key(), adjacency)
        self.stats.repacks_avoided += 1
        self._bind(adjacency)
        self.invalidate_mutated()
        return delta

    def _bind(self, adjacency: PackedAdjacency) -> ExecutionPlan:
        """Cache the live plan: the engine's template for the current
        ``(num_nodes, census band)`` bound to the live adjacency key,
        priced first if the engine has no such template (a ``template``
        segment miss, counted in ``plans_recompiled``)."""
        cache = self.engine.plan_artifacts
        templates = cache.segment("template").stats
        misses = templates.misses
        plan = self.engine.compile_plan(
            self.mutable.num_nodes, adjacency, self.adjacency_key()
        )
        cache.put(self.plan_key(), plan)
        if templates.misses == misses:
            self.stats.plans_patched += 1
        else:
            self.stats.plans_recompiled += 1
        return plan

    # ------------------------------------------------------------------ #
    # Invalidation
    # ------------------------------------------------------------------ #
    def invalidate_mutated(self) -> dict[str, int]:
        """Discard every dynamic cache entry keyed by a dead digest.

        Retires superseded adjacency and plan entries from the engine's
        :class:`~repro.plan.cache.PlanCache` (counted in each segment's
        ``invalidations``).  Idempotent; returns the per-kind discard
        counts.
        """
        cache = self.engine.plan_artifacts
        current = self.mutable.structure_digest
        counts = {}
        for kind in ("adjacency", "plan"):
            segment = cache.segment(kind)
            counts[kind] = sum(
                segment.discard(key) for key in list(segment.keys())
                if self._is_dynamic_key(key) and key[2] != current
            )
        self.stats.adjacency_invalidated += counts["adjacency"]
        self.stats.plans_invalidated += counts["plan"]
        return counts

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def serve(self) -> QuantizedForwardResult:
        """One forward pass over the current structure.

        Resolves the operand and plan by the live structure digest
        (publishing a snapshot / binding on miss), verifies the pair
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
            plan = self._bind(adjacency)
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
        wrong adjacency key, or a census that disagrees with the live
        census — would serve a different graph.  The digest keying makes
        this unreachable through the normal flow; this check makes it
        *detectable* if anything bypasses the keying, and rebuilds before
        serving.
        """
        expected_key = self.adjacency_key()
        ok = all(key == expected_key for key in plan.adjacency_keys())
        ok = ok and np.array_equal(adjacency.plan.masks[0], self.mutable.census_mask())
        ok = ok and adjacency.num_nodes == self.mutable.num_nodes
        if ok:
            return adjacency, plan
        self.stats.stale_kernel_hits += 1
        adjacency = self.mutable.snapshot()
        self.engine.plan_artifacts.put(expected_key, adjacency)
        return adjacency, self._bind(adjacency)

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

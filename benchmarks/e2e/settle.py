"""Dispatch settle: make the session's measured dispatch table complete
before anything is timed.

A fresh session freezes each plan's backends from whichever timing samples
happen to exist at its first compile, so two identical sessions can serve
the same stream on different backends (``packed`` at ~80 ms against
``blas`` at ~19 ms on the warm 8-bit PPI stream).  Settling removes the
luck the way an operator would: time every eligible backend *in situ* on
every shape bucket the stream hits, feed the samples to the session's
dispatcher, drop the plans the table now disagrees with, and re-warm.
Only public session API is used — no backend is pinned and no dispatcher
is bypassed, so what is measured afterwards is what users run.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.codegen import prepare_plan_kernels
from repro.gnn.quantized import PackedAdjacency, execute_forward_plan
from repro.graph.batching import SubgraphBatch
from repro.plan.autotune import bucket_for
from repro.plan.ir import ExecutionPlan, GemmSpec, compile_forward_plan
from repro.serving import CostModelDispatcher, InferenceEngine

#: Settle rounds (each: scan, invalidate, re-warm).
SETTLE_ROUNDS = 2
#: Analytic-price ratio over the cheapest beyond which set-up does not
#: time a backend (see :func:`step_candidates`).
PRICE_GUARD = 8.0


@dataclass(frozen=True)
class Round:
    """One executable round as the plan layer sees it."""

    batch: SubgraphBatch
    adjacency: PackedAdjacency
    #: The plan the session currently holds for this round.
    plan: ExecutionPlan
    adjacency_key: tuple


def step_fraction(step_spec: GemmSpec, adjacency: PackedAdjacency) -> float | None:
    """The census coordinate the engine records a step's timing under."""
    return adjacency.nonzero_fraction if step_spec.role == "aggregate" else None


def bucket_signature(round_: Round) -> tuple[str, ...]:
    """The dispatch-table buckets a round's GEMMs price and record under."""
    return tuple(
        bucket_for(step.spec, step_fraction(step.spec, round_.adjacency)).key()
        for step in round_.plan.gemm_steps()
    )


def step_key(spec: GemmSpec) -> tuple[int, int, int, int, int]:
    return (spec.m, spec.k, spec.n, spec.bits_a, spec.bits_b)


def step_candidates(
    engine: InferenceEngine, round_: Round, guard: float | None
) -> dict[tuple, list[str]]:
    """Per GEMM of the round, the backends worth timing on it.

    A candidate is registered, capability-eligible and not vetoed by a
    resource budget.  With ``guard`` set, a backend whose *analytic* price
    exceeds ``guard`` times the step's cheapest analytic price is left out
    (as ``autotune(max_seconds_per_backend=...)`` does: the tuner should
    not spend seconds confirming that ``einsum`` is hopeless).  An untimed
    backend keeps that analytic price, so the guard also keeps it unpicked.
    """
    live = engine.dispatcher
    analytic = CostModelDispatcher(
        engine.config.device,
        blas_bytes_budget=live.blas_bytes_budget,
        rates=live.rates,
        registry=live.registry,
    )
    analytic.observe_tile_fraction(
        round_.adjacency.nonzero_fraction, nodes=round_.batch.num_nodes
    )
    out: dict[tuple, list[str]] = {}
    for step in round_.plan.gemm_steps():
        spec = step.spec
        prices = analytic.decide(
            spec.m, spec.k, spec.n, spec.bits_a, spec.bits_b
        ).prices
        allowed = {n: p.seconds for n, p in prices.items() if not p.vetoed}
        if guard is not None:
            ceiling = guard * min(allowed.values())
            allowed = {n: s for n, s in allowed.items() if s <= ceiling}
        out[step_key(spec)] = list(allowed)
    return out


def forced_plan(
    engine: InferenceEngine,
    round_: Round,
    name: str,
    candidates: dict[tuple, list[str]],
) -> ExecutionPlan:
    """The round's plan with ``name`` forced onto every GEMM it is a
    candidate for (the rest keep the backend the session froze)."""
    frozen = {step_key(s.spec): s.backend for s in round_.plan.gemm_steps()}

    def select(m: int, k: int, n: int, bits_a: int, bits_b: int) -> str:
        key = (m, k, n, bits_a, bits_b)
        return name if name in candidates[key] else frozen[key]

    config = engine.config
    return compile_forward_plan(
        engine.model,
        num_nodes=round_.batch.num_nodes,
        feature_bits=config.feature_bits,
        weight_bits=config.effective_weight_bits,
        engine=select,
        weight_key=engine.weight_key,
        adjacency_key=round_.adjacency_key,
    )


def execute_plan(engine: InferenceEngine, round_: Round, plan: ExecutionPlan):
    """Run ``plan`` exactly as the session's executor call does."""
    prepare_plan_kernels(plan, round_.adjacency)
    return execute_forward_plan(
        plan,
        engine.model,
        round_.batch,
        packed_weights=engine.packed_weights(),
        packed_adjacency=round_.adjacency,
        artifacts=engine.plan_artifacts,
        calibration=engine.calibration,
        kernel_config=engine.config.kernel,
        apply_softmax=engine.config.apply_softmax,
    )


def backend_census(
    engine: InferenceEngine,
    round_: Round,
    *,
    samples: int,
    guard: float | None = PRICE_GUARD,
    record: bool = True,
) -> dict[str, dict[str, float]]:
    """Time every candidate backend in situ on one round.

    Each backend's forced plan runs once untimed (kernel compiles and
    first-touch allocations amortise in serving) and ``samples`` times
    timed.  With ``record`` every executed step's measured seconds go to
    the session's dispatcher under the coordinates the engine itself
    records with.  Returns ``{backend: {"agg_s": ..., "upd_s": ...}}`` —
    median seconds the backend spent in the aggregate / update GEMMs it
    was forced onto.
    """
    dispatcher = engine.dispatcher
    candidates = step_candidates(engine, round_, guard)
    names = list(dict.fromkeys(n for names in candidates.values() for n in names))
    census: dict[str, dict[str, float]] = {}
    for name in names:
        plan = forced_plan(engine, round_, name, candidates)
        execute_plan(engine, round_, plan)
        by_role: dict[str, list[float]] = {"aggregate": [], "update": []}
        for _ in range(samples):
            forward = execute_plan(engine, round_, plan)
            for role, seconds in by_role.items():
                seconds.append(
                    sum(
                        t.seconds
                        for t in forward.timings
                        if t.backend == name and t.spec.role == role
                    )
                )
            if record:
                for timing in forward.timings:
                    dispatcher.record_timing(
                        timing.spec,
                        timing.backend,
                        timing.seconds,
                        tile_fraction=step_fraction(timing.spec, round_.adjacency),
                    )
        census[name] = {
            "agg_s": statistics.median(by_role["aggregate"]),
            "upd_s": statistics.median(by_role["update"]),
        }
    return census


def seed_table(engine: InferenceEngine, rounds: Sequence[Round]) -> int:
    """Census every distinct bucket signature among ``rounds``; returns how
    many rounds were censused."""
    seen: set[tuple[str, ...]] = set()
    for round_ in rounds:
        signature = bucket_signature(round_)
        if signature in seen:
            continue
        seen.add(signature)
        backend_census(engine, round_, samples=engine.config.table_min_samples)
    return len(seen)


def settle(
    engines: Sequence[InferenceEngine], warm_pass: Callable[[], object]
) -> int:
    """Invalidate stale plans and re-warm, :data:`SETTLE_ROUNDS` times;
    returns the stale plans remaining (0 when dispatch settled).

    The rounds are not cut short when a scan finds nothing stale: on
    ``gateway_open`` that happened in about half the set-ups, which made
    ``setup_s`` read either ~1.5 s or ~2.5 s.  The same work every time
    keeps the metric a measure of the code, and a warm pass after a clean
    scan is also what shows the table has stopped moving."""
    for _ in range(SETTLE_ROUNDS):
        for engine in engines:
            engine.invalidate_stale_plans()
        warm_pass()
    return sum(len(engine.stale_plans()) for engine in engines)

"""The per-layer ledger: a traced *layer drive* of each workload.

The traced run performs each round itself, calling — in the order
``InferenceEngine._execute`` does, with the same artifact cache, keys and
calibration — ``batch_subgraphs_by_nodes`` → ``packed_adjacency_for`` →
``plan_for`` → ``prepare_plan_kernels`` → ``execute_forward_plan`` →
``modeled_plan_report``, with a span around each call and the executor's
returned phase timings as child spans.  Spans stay in memory; the caller
writes them out at exit.

The drive is only trusted when it *is* the engine's round: its logits
must equal ``infer``'s bit for bit and, with recording off, its round
time must lie within 10% of ``infer``'s (``serving.engine.drive_ratio``);
otherwise the ledger is marked invalid (``ledger_valid = 0``).
"""

from __future__ import annotations

import time
import tracemalloc
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.codegen import prepare_plan_kernels
from repro.dynamic import MutableGraph
from repro.gnn.quantized import execute_forward_plan, pack_batch_adjacency
from repro.gnn.reference import reference_forward
from repro.graph.batching import Subgraph, batch_subgraphs_by_nodes
from repro.runtime.executor import QGTCRunConfig, modeled_plan_report
from repro.serving import InferenceEngine, ServingConfig
from repro.tc.costmodel import TCCostModel

from . import settle
from .metrics import BACKENDS, PER_LAYER
from .spans import SpanRecorder
from .stats import median, percentile_or_zero
from .workloads import (
    GATEWAY_RATE_RPS,
    GATEWAY_SECOND_RATE_RPS,
    DynamicRounds,
    EngineRounds,
    GatewayOpen,
    Window,
    Workload,
    engine_round,
)

#: ``drive_ratio`` outside this band invalidates the ledger.
DRIVE_RATIO_BAND = (0.9, 1.1)


def paired_ratio(numerators: Sequence[float], denominators: Sequence[float]) -> float:
    """Median of ``a / b`` over samples taken back to back (0 when none)."""
    return median([a / b for a, b in zip(numerators, denominators)])


# --------------------------------------------------------------------- #
# The engine-round drive
# --------------------------------------------------------------------- #
class DeviceModel:
    """The modeled RTX 3090 report of one executed batch, as a session with
    ``track_device_time`` computes it after every round."""

    def __init__(self, model, config: ServingConfig) -> None:
        self.model = model
        self.device = config.device
        self.run_config = QGTCRunConfig(
            feature_bits=config.feature_bits,
            weight_bits=config.effective_weight_bits,
            kernel=config.kernel,
        )
        self.cost = TCCostModel(config.device)

    def report(self, adjacency, num_nodes: int):
        return modeled_plan_report(
            self.model,
            self.run_config,
            num_nodes=num_nodes,
            tile_plan=adjacency.plan,
            device=self.device,
            cost=self.cost,
        )


def execute_traced(rec: SpanRecorder, engine: InferenceEngine, op: int, plan, batch, adjacency):
    """The executor call under a span, its returned phases as children, and
    the timing feedback ``_execute`` gives the dispatcher."""
    with rec.span("gnn.quantized.execute", op) as index:
        forward = execute_forward_plan(
            plan,
            engine.model,
            batch,
            packed_weights=engine.packed_weights(),
            packed_adjacency=adjacency,
            artifacts=engine.plan_artifacts,
            calibration=engine.calibration,
            kernel_config=engine.config.kernel,
            apply_softmax=engine.config.apply_softmax,
        )
    if rec.enabled:
        cursor = rec.spans[index].start
        for phase in forward.phases:
            rec.add(f"exec.{phase.phase}", cursor, cursor + phase.seconds, op, index)
            cursor += phase.seconds
        for timing in forward.timings:
            rec.count(f"gemm_s.{timing.backend}", timing.seconds)
    if engine.config.record_timings and engine.dispatcher is not None:
        for timing in forward.timings:
            engine.dispatcher.record_timing(
                timing.spec,
                timing.backend,
                timing.seconds,
                tile_fraction=settle.step_fraction(timing.spec, adjacency),
            )
    return forward


def drive_round(
    rec: SpanRecorder,
    engine: InferenceEngine,
    device_model: DeviceModel,
    members: Sequence[Subgraph],
    op: int,
) -> list[np.ndarray]:
    """One coalesced round, layer by layer; returns per-request logits."""
    config = engine.config
    with rec.span("serving.engine.round", op):
        with rec.span("graph.batching.coalesce", op):
            (batch,) = batch_subgraphs_by_nodes(
                members, config.max_batch_nodes, max_members=config.batch_size
            )
        with rec.span("gnn.quantized.pack_adjacency", op):
            adjacency = engine.packed_adjacency_for(batch)
        with rec.span("plan.ir.compile", op):
            plan = engine.plan_for(batch, adjacency=adjacency)
        with rec.span("codegen.prepare", op):
            prepare_plan_kernels(plan, adjacency)
        forward = execute_traced(rec, engine, op, plan, batch, adjacency)
        with rec.span("runtime.executor.modeled_report", op):
            engine.device_report.merge(
                device_model.report(adjacency, batch.num_nodes)
            )
        return [forward.logits[rows] for rows in batch.member_slices()]


class DriveTimes:
    """Seconds of matching passes through ``infer``, the traced drive and
    the drive with recording off."""

    def __init__(self) -> None:
        #: Seconds of each whole pass, per way of running it.
        self.infer_s: list[float] = []
        self.traced_s: list[float] = []
        self.quiet_s: list[float] = []
        #: Rounds the traced drive performed.
        self.rounds = 0
        self.identical = True


def drive_cycles(
    rec: SpanRecorder,
    device_model: DeviceModel,
    rounds: Sequence[tuple[InferenceEngine, Sequence[Subgraph]]],
    seconds: float,
) -> DriveTimes:
    """Alternate whole passes of ``infer``, traced drive and quiet drive
    over the same rounds until ``seconds`` have passed."""
    times = DriveTimes()
    quiet = SpanRecorder(enabled=False)
    deadline = time.perf_counter() + seconds
    while True:
        served = []
        spent = 0.0
        for engine, members in rounds:
            start = time.perf_counter()
            results = engine.infer(members)
            spent += time.perf_counter() - start
            served.append([r.logits for r in results])
        times.infer_s.append(spent)
        spent = 0.0
        for (engine, members), want in zip(rounds, served):
            start = time.perf_counter()
            got = drive_round(rec, engine, device_model, members, times.rounds)
            spent += time.perf_counter() - start
            times.rounds += 1
            times.identical &= all(
                np.array_equal(a, b) for a, b in zip(got, want)
            )
        times.traced_s.append(spent)
        spent = 0.0
        for engine, members in rounds:
            start = time.perf_counter()
            drive_round(quiet, engine, device_model, members, -1)
            spent += time.perf_counter() - start
        times.quiet_s.append(spent)
        if time.perf_counter() >= deadline:
            return times


def cache_counters(engines: Sequence[InferenceEngine]) -> dict[str, tuple[int, int, int]]:
    """``{segment: (hits, lookups, evictions)}`` summed over ``engines``."""
    out = {}
    for kind in ("plan", "adjacency", "weight"):
        stats = [getattr(e.stats, f"{kind}_cache") for e in engines]
        out[kind] = (
            sum(s.hits for s in stats),
            sum(s.lookups for s in stats),
            sum(s.evictions for s in stats),
        )
    return out


def engine_layer_metrics(
    out: dict[str, float],
    rec: SpanRecorder,
    times: DriveTimes,
    caches_before: dict,
    caches_after: dict,
) -> None:
    """Fill the plan/exec/cache/engine rows from a finished drive."""
    totals = rec.totals()
    per_round_ms = 1e3 / max(times.rounds, 1)
    out["graph.batching.coalesce_ms"] = totals.get("graph.batching.coalesce", 0.0) * per_round_ms
    out["gnn.quantized.pack_adjacency_ms"] = (
        totals.get("gnn.quantized.pack_adjacency", 0.0) * per_round_ms
    )
    out["plan.ir.compile_ms"] = totals.get("plan.ir.compile", 0.0) * per_round_ms
    out["codegen.prepare_ms"] = totals.get("codegen.prepare", 0.0) * per_round_ms
    out["runtime.executor.modeled_report_ms"] = (
        totals.get("runtime.executor.modeled_report", 0.0) * per_round_ms
    )
    for phase in ("quantize", "pack", "census", "gemm", "epilogue", "activation"):
        out[f"exec.{phase}_ms"] = totals.get(f"exec.{phase}", 0.0) * per_round_ms
    round_s = totals.get("serving.engine.round", 0.0)
    if round_s:
        out["exec.gemm_share"] = totals.get("exec.gemm", 0.0) / round_s
    gemm_s = sum(rec.counters.get(f"gemm_s.{name}", 0.0) for name in BACKENDS)
    for name in BACKENDS:
        if gemm_s:
            out[f"plan.dispatch.mix.{name}"] = (
                rec.counters.get(f"gemm_s.{name}", 0.0) / gemm_s
            )
    evictions = 0
    for kind in ("plan", "adjacency", "weight"):
        hits, lookups, evicted = (
            after - before
            for after, before in zip(caches_after[kind], caches_before[kind])
        )
        out[f"plan.cache.{kind}_hit_rate"] = hits / lookups if lookups else 0.0
        evictions += evicted
    out["plan.cache.evictions"] = float(evictions)
    if round_s:
        out["serving.engine.glue_share"] = (
            rec.totals(self_time=True)["serving.engine.round"] / round_s
        )
    # Medians of ratios of passes run back to back: neither a pre-empted
    # pass nor a host that changes speed mid-run moves them.
    out["serving.engine.drive_ratio"] = paired_ratio(times.quiet_s, times.infer_s)
    out["trace_overhead"] = paired_ratio(times.traced_s, times.quiet_s)
    out["traced_ops"] = float(times.rounds)


def largest_round_metrics(
    out: dict[str, float], engine: InferenceEngine, round_: settle.Round
) -> None:
    """Packing footprint and the backend census, on the largest round."""
    out["core.bitpack.packed_mb"] = round_.adjacency.packed.nbytes / 2**20
    tracemalloc.start()
    try:
        pack_batch_adjacency(round_.batch)
        out["gnn.quantized.pack_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    # Every registered, non-vetoed backend forced onto the round in situ.
    # Nothing is recorded into the session's table: this reads, it does
    # not tune.
    census = settle.backend_census(
        engine, round_, samples=1, guard=None, record=False
    )
    for name, seconds in census.items():
        if name in BACKENDS:
            out[f"plan.backends.{name}.agg_ms"] = seconds["agg_s"] * 1e3
            out[f"plan.backends.{name}.upd_ms"] = seconds["upd_s"] * 1e3


# --------------------------------------------------------------------- #
# Rows every workload reports
# --------------------------------------------------------------------- #
def src_loc(repo_root: Path) -> int:
    """Physical lines of Python under ``src/`` (ROADMAP needle 2)."""
    return sum(
        len(path.read_text().splitlines())
        for path in sorted((repo_root / "src").rglob("*.py"))
    )


def modeled_device(workload: Workload) -> dict[str, float]:
    """Modeled RTX 3090 counters of one pass over the distinct structures —
    a different clock from everything else here: they depend on the
    inputs alone, repeat exactly, and a host-only speed-up leaves them
    identical.  The skip share is the executed kernels' own tile count."""
    device_model = DeviceModel(workload.model, workload.config)
    seconds = 0.0
    mma_ops = tiles_total = tiles_skipped = 0
    for batch, forward, adjacency in workload.oracle:
        report = device_model.report(adjacency, batch.num_nodes)
        seconds += report.total_s()
        mma_ops += report.mma_ops
        counters = forward.total_counters
        tiles_total += counters.tiles_total
        tiles_skipped += counters.tiles_skipped
    return {
        "tc.modeled_device_ms": seconds * 1e3,
        "tc.mma_ops": float(mma_ops),
        "tc.tile_skip_share": tiles_skipped / tiles_total if tiles_total else 0.0,
    }


def common_metrics(out: dict[str, float], workload: Workload, repo_root: Path) -> None:
    """Yardstick, quality, modeled-device and repo rows."""
    diff = norm = 0.0
    for batch, forward, _ in workload.oracle:
        reference = reference_forward(workload.model, batch)
        diff += float(np.sum((forward.logits - reference) ** 2))
        norm += float(np.sum(reference.astype(np.float64) ** 2))
    passes = []
    for _ in range(5):
        start = time.perf_counter()
        for batch, _, _ in workload.oracle:
            reference_forward(workload.model, batch)
        passes.append(time.perf_counter() - start)
    requests = sum(len(batch.members) for batch, _, _ in workload.oracle)
    out["gnn.reference.req_per_s"] = requests / median(passes)
    out["gnn.quantized.rel_err_vs_fp32"] = (diff / norm) ** 0.5 if norm else 0.0
    out.update(modeled_device(workload))
    out["repo.src_loc"] = float(src_loc(repo_root))
    out["plan.dispatch.stale_after_settle"] = float(workload.stale_after_settle)


# --------------------------------------------------------------------- #
# Per-workload ledgers
# --------------------------------------------------------------------- #
def engine_rounds_ledger(
    workload: EngineRounds, seconds: float, rec: SpanRecorder, out: dict[str, float]
) -> bool:
    engine = workload.engine
    rounds = [(engine, members) for members in workload.rounds]
    before = cache_counters([engine])
    device_model = DeviceModel(workload.model, workload.config)
    times = drive_cycles(rec, device_model, rounds, seconds)
    engine_layer_metrics(out, rec, times, before, cache_counters([engine]))
    largest = max(workload.rounds, key=lambda r: sum(s.num_nodes for s in r))
    largest_round_metrics(out, engine, engine_round(engine, largest))
    return times.identical


def gateway_ledger(
    workload: GatewayOpen, seconds: float, rec: SpanRecorder, out: dict[str, float]
) -> bool:
    pool = workload.pool
    engines = list(pool.workers)
    # Engine-level rows: drive the shard engines while the pool is idle,
    # on the rounds each shard forms from the cycled stream.
    rounds = [
        (engine, list(round_.batch.members))
        for shard, engine in enumerate(engines)
        for round_ in workload.shard_rounds(shard, engine)
    ]
    before = cache_counters(engines)
    device_model = DeviceModel(workload.model, workload.config)
    times = drive_cycles(rec, device_model, rounds, 0.2 * seconds)
    engine_layer_metrics(out, rec, times, before, cache_counters(engines))

    # serving.pool: closed-loop saturation passes, from PoolStats deltas.
    window = Window()
    stats_before = pool.stats()
    elapsed = 0.0
    while elapsed < 0.1 * seconds:
        elapsed += workload.closed_loop_pass(window)
    stats_after = pool.stats()
    busy = [
        after.wall_s - before_.wall_s
        for after, before_ in zip(stats_after.per_worker, stats_before.per_worker)
    ]
    rounds_run = stats_after.batches - stats_before.batches
    out["serving.pool.busy_share"] = sum(busy) / (len(busy) * elapsed)
    out["serving.pool.occupancy"] = (
        (stats_after.requests - stats_before.requests) / rounds_run if rounds_run else 0.0
    )
    mean_busy = sum(busy) / len(busy)
    out["serving.pool.imbalance"] = max(busy) / mean_busy if mean_busy else 0.0

    # serving.gateway: the open loop at the fixed rate, a span per request.
    stats_before = pool.stats()
    arrivals = workload.open_loop(GATEWAY_RATE_RPS, 0.6 * seconds)
    stats_after = pool.stats()
    served = [a for a in arrivals if a.reply is not None]
    service_s = (stats_after.wall_s - stats_before.wall_s) / max(
        stats_after.requests - stats_before.requests, 1
    )
    for a in arrivals:
        parent = rec.add("serving.gateway.request", a.scheduled, a.done, a.index)
        rec.add("serving.gateway.generator_lag", a.scheduled, a.sent, a.index, parent)
        rec.add("serving.gateway.submit", a.sent, a.done, a.index, parent)
    out["serving.gateway.wait_ms_p50"] = 1e3 * median(
        [a.reply.latency_s - service_s for a in served]
    )
    out["serving.gateway.shed_share"] = 1.0 - len(served) / len(arrivals)
    out["serving.gateway.lat_p95_ms"] = 1e3 * percentile_or_zero(
        [a.latency_s for a in served], 95.0
    )
    out["serving.gateway.gen_lag_ms_p95"] = 1e3 * percentile_or_zero(
        [a.sent - a.scheduled for a in arrivals], 95.0
    )
    faster = workload.open_loop(GATEWAY_SECOND_RATE_RPS, 0.1 * seconds)
    out["serving.gateway.r100_p50_ms"] = 1e3 * median(
        [a.latency_s for a in faster if a.reply is not None]
    )

    largest = max(workload.structures, key=lambda s: s.num_nodes)
    engine = engines[pool.shard_of(largest, 0)]
    largest_round_metrics(out, engine, engine_round(engine, [largest]))
    failed = window.failed + workload.open_loop_failures(arrivals)
    return times.identical and failed == 0


def dynamic_ledger(
    workload: DynamicRounds, seconds: float, rec: SpanRecorder, out: dict[str, float]
) -> bool:
    session = workload.session
    engine = session.engine
    cache = engine.plan_artifacts
    template = session.mutable.to_batch()  # features/num_nodes never mutate
    shadow = MutableGraph.from_csr(session.mutable.to_csr())
    quiet = SpanRecorder(enabled=False)
    mutate_s: list[float] = []
    serve_s: list[float] = []
    traced_s: list[float] = []
    quiet_s: list[float] = []
    apply_s: list[float] = []
    snapshot_s: list[float] = []
    dirty_tiles = mutations = 0
    identical = True
    stats_before = (session.stats.plans_patched, session.stats.plans_recompiled)
    before = cache_counters([engine])

    def drive_serve(recorder: SpanRecorder, op: int) -> np.ndarray:
        with recorder.span("serving.engine.round", op):
            with recorder.span("gnn.quantized.pack_adjacency", op):
                adjacency = cache.get_or_build(
                    session.adjacency_key(), session.mutable.snapshot
                )
            with recorder.span("plan.ir.compile", op):
                plan = cache.segment("plan").get(session.plan_key())
            with recorder.span("codegen.prepare", op):
                prepare_plan_kernels(plan, adjacency)
            return execute_traced(recorder, engine, op, plan, template, adjacency).logits

    deadline = time.perf_counter() + seconds
    op = 0
    while time.perf_counter() < deadline:
        stream = workload.stream.next()
        start = time.perf_counter()
        delta = shadow.apply(stream)
        apply_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        shadow.snapshot()
        snapshot_s.append(time.perf_counter() - start)
        dirty_tiles += len(delta.dirty_tiles)
        mutations += len(delta.applied)

        mode = op % 3  # 0: session.serve, 1: traced drive, 2: quiet drive
        with rec.span("dynamic.session.round", op):
            with rec.span("dynamic.session.mutate", op):
                start = time.perf_counter()
                session.mutate(stream)
                mutate_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            if mode == 0:
                with rec.span("dynamic.session.serve", op):
                    session.serve()
                serve_s.append(time.perf_counter() - start)
            elif mode == 1:
                logits = drive_serve(rec, op)
                traced_s.append(time.perf_counter() - start)
            else:
                drive_serve(quiet, op)
                quiet_s.append(time.perf_counter() - start)
        if mode == 1:
            identical &= np.array_equal(logits, session.serve().logits)
        op += 1

    # Here a "pass" is one op: the three ways of serving alternate op by op.
    times = DriveTimes()
    times.rounds = len(traced_s)
    times.infer_s, times.traced_s, times.quiet_s = serve_s, traced_s, quiet_s
    engine_layer_metrics(out, rec, times, before, cache_counters([engine]))
    out["dynamic.mutable.apply_ms"] = 1e3 * median(apply_s)
    out["dynamic.mutable.snapshot_ms"] = 1e3 * median(snapshot_s)
    out["dynamic.mutable.tiles_per_mutation"] = dirty_tiles / max(mutations, 1)
    out["dynamic.session.mutate_ms_p50"] = 1e3 * median(mutate_s)
    out["dynamic.session.serve_ms_p50"] = 1e3 * median(serve_s)
    patched = session.stats.plans_patched - stats_before[0]
    recompiled = session.stats.plans_recompiled - stats_before[1]
    out["dynamic.session.patch_share"] = patched / max(patched + recompiled, 1)
    out["dynamic.session.stale_kernel_hits"] = float(session.stats.stale_kernel_hits)
    out["traced_ops"] = float(op)

    largest_round_metrics(out, engine, workload.session_round())
    return identical and session.stats.stale_kernel_hits == 0


def run_ledger(
    workload: Workload, seconds: float, rec: SpanRecorder, repo_root: Path
) -> tuple[dict[str, float], bool]:
    """The traced run of one set-up workload: every declared per-layer
    metric, by name (0 where the workload does not exercise the layer),
    and whether every driven output was bit-identical to the engine's."""
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    if isinstance(workload, EngineRounds):
        identical = engine_rounds_ledger(workload, seconds, rec, out)
    elif isinstance(workload, GatewayOpen):
        identical = gateway_ledger(workload, seconds, rec, out)
    else:
        identical = dynamic_ledger(workload, seconds, rec, out)
    common_metrics(out, workload, repo_root)
    # Valid only when the drive was the engine's round.
    lo, hi = DRIVE_RATIO_BAND
    out["ledger_valid"] = float(
        identical and lo <= out["serving.engine.drive_ratio"] <= hi
    )
    return out, identical

"""Program-abstraction-graph (PAG) construction from serving telemetry.

PerFlow's core move — attribute measured wall-clock to nodes of a
*program abstraction* rather than to raw call stacks, then run analysis
passes over that graph — ported to this repo's serving stack.  The
program structure here is the plan/execute split itself: a serving
source (one :class:`~repro.serving.engine.InferenceEngine`, a
:class:`~repro.serving.pool.ServingPool`, or a gateway's stats pair)
already attributes every measured second to a named owner — execution
phases (quantize / pack / census / gemm / epilogue / ...), executed
backends, cache segments, shard workers, the gateway.
:func:`build_pag` assembles those attributions into one tree so the
passes in :mod:`repro.perf.passes` can ask structural questions
("which node dominates", "are the shards balanced", "is a segment
thrashing") without knowing where any number came from.

Example::

    from repro.perf import build_pag, hotspot

    pag = build_pag(pool)           # or an InferenceEngine
    print(pag.render())             # indented attribution tree
    print(hotspot(pag).summary)     # top nodes by attributed seconds
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..serving.engine import InferenceEngine, SessionStats
from ..serving.gateway import GatewayStats
from ..serving.pool import PoolStats, ServingPool

__all__ = ["PagNode", "Pag", "build_pag"]

#: Executor phases whose seconds nest under a worker's measured window.
#: Order is presentation order in :meth:`Pag.render`.
PHASE_ORDER = (
    "pack_adjacency",
    "plan_compile",
    "materialize",
    "bind",
    "quantize",
    "pack",
    "census",
    "gemm",
    "epilogue",
    "activation",
    "round_glue",
)


@dataclass
class PagNode:
    """One attribution node: a named owner of measured seconds.

    ``kind`` is the abstraction level (``root`` / ``worker`` / ``phase``
    / ``backend`` / ``segment`` / ``gateway``), ``seconds``
    the wall-clock attributed to it (0.0 for pure-counter nodes such as
    cache segments), and ``metrics`` whatever counters the source
    telemetry carried for it.
    """

    kind: str
    name: str
    seconds: float = 0.0
    metrics: dict = field(default_factory=dict)
    children: list["PagNode"] = field(default_factory=list)

    def add(self, child: "PagNode") -> "PagNode":
        """Append and return a child node."""
        self.children.append(child)
        return child

    def walk(self):
        """Yield this node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_payload(self) -> dict:
        """JSON-safe dict of this subtree (NaN metrics become ``None``)."""

        def clean(value):
            if isinstance(value, float) and math.isnan(value):
                return None
            return value

        return {
            "kind": self.kind,
            "name": self.name,
            "seconds": self.seconds,
            "metrics": {k: clean(v) for k, v in self.metrics.items()},
            "children": [child.to_payload() for child in self.children],
        }


@dataclass
class Pag:
    """A built attribution tree plus the totals the passes need.

    ``wall_s`` is the source's measured execution wall-clock (summed
    across shards for a pool — attributed work, not elapsed time);
    ``attributed_s`` the portion of it owned by phase nodes.  Their
    ratio, :meth:`coverage`, is the report's own health metric: seconds
    outside any phase are seconds the passes cannot see.
    """

    root: PagNode
    wall_s: float
    attributed_s: float

    def coverage(self) -> float:
        """Fraction of measured wall-clock owned by phase nodes
        (``nan`` before any work — no wall-clock, no coverage claim)."""
        if self.wall_s <= 0:
            return float("nan")
        return self.attributed_s / self.wall_s

    def nodes(self, kind: str | None = None) -> list[PagNode]:
        """Every node (optionally restricted to one ``kind``)."""
        return [
            node
            for node in self.root.walk()
            if kind is None or node.kind == kind
        ]

    def render(self) -> str:
        """The tree as indented text (the CI artifact format)."""
        lines: list[str] = []

        def emit(node: PagNode, depth: int) -> None:
            label = f"{node.kind}:{node.name}"
            parts = [f"{'  ' * depth}{label:<{max(1, 36 - 2 * depth)}}"]
            if node.seconds:
                parts.append(f"{node.seconds * 1e3:10.3f} ms")
            if node.metrics:
                rendered = ", ".join(
                    f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in node.metrics.items()
                )
                parts.append(f"  [{rendered}]")
            lines.append("".join(parts))
            for child in node.children:
                emit(child, depth + 1)

        emit(self.root, 0)
        coverage = self.coverage()
        lines.append(
            f"coverage: {coverage:.4f}"
            if not math.isnan(coverage)
            else "coverage: n/a (no measured work)"
        )
        return "\n".join(lines)

    def to_payload(self) -> dict:
        """JSON-safe dict of the whole report."""
        coverage = self.coverage()
        return {
            "wall_s": self.wall_s,
            "attributed_s": self.attributed_s,
            "coverage": None if math.isnan(coverage) else coverage,
            "tree": self.root.to_payload(),
        }


def _phase_nodes(
    worker: PagNode, phase_seconds: dict, backend_seconds: dict
) -> float:
    """Attach phase children (backends nested under ``gemm``); returns
    the seconds attributed."""
    attributed = 0.0
    ordered = [p for p in PHASE_ORDER if p in phase_seconds]
    ordered += [p for p in sorted(phase_seconds) if p not in PHASE_ORDER]
    for phase in ordered:
        seconds = phase_seconds[phase]
        node = worker.add(PagNode(kind="phase", name=phase, seconds=seconds))
        attributed += seconds
        if phase == "gemm":
            # The gemm phase is the same measured window ``backend_seconds``
            # splits per backend, so the split nests here.
            for backend in sorted(backend_seconds):
                node.add(
                    PagNode(
                        kind="backend",
                        name=backend,
                        seconds=backend_seconds[backend],
                    )
                )
    return attributed


def _worker_node(
    stats: SessionStats,
    label: str,
    capacities: dict[str, int | None],
    extra: dict | None = None,
) -> tuple[PagNode, float]:
    """One shard/session node — the record's own metrics — with phase
    children and one pure-metric ``segment`` child per ``capacities``
    kind; returns the node and the seconds its phases attribute."""
    metrics = {**stats.as_metrics(), **(extra or {})}
    node = PagNode(kind="worker", name=label, seconds=stats.wall_s, metrics=metrics)
    attributed = _phase_nodes(node, stats.phase_seconds, stats.backend_seconds)
    for kind, capacity in capacities.items():
        segment = getattr(stats, f"{kind}_cache").as_metrics()
        if capacity is not None:
            segment["capacity"] = capacity
        node.add(PagNode(kind="segment", name=kind, metrics=segment))
    return node, attributed


def _from_engine(engine: InferenceEngine) -> Pag:
    stats: SessionStats = engine.stats
    worker, attributed = _worker_node(
        stats,
        engine.label or "session",
        {
            kind: engine.plan_artifacts.segment(kind).capacity
            for kind in ("weight", "adjacency", "plan")
        },
    )
    root = PagNode(
        kind="root",
        name="engine",
        seconds=stats.wall_s,
        metrics={"requests": stats.requests, "batches": stats.batches},
    )
    root.add(worker)
    return Pag(root=root, wall_s=stats.wall_s, attributed_s=attributed)


def _from_pool_stats(stats: PoolStats, pool: ServingPool | None = None) -> Pag:
    """One worker node per shard snapshot; a live ``pool`` adds what a
    snapshot cannot carry — queue depths and segment capacities."""
    root = PagNode(
        kind="root", name="pool", seconds=stats.wall_s, metrics=stats.as_metrics()
    )
    depths, config = (pool.queue_depths(), pool.config) if pool is not None else ((), None)
    capacities = {
        kind: getattr(config, f"{kind}_cache_capacity", None)
        for kind in ("plan", "adjacency")
    }
    attributed = 0.0
    for i, worker in enumerate(stats.per_worker):
        extra = {"queue_depth": depths[i]} if i < len(depths) else None
        node, seconds = _worker_node(worker, worker.label, capacities, extra)
        root.add(node)
        attributed += seconds
    return Pag(root=root, wall_s=stats.wall_s, attributed_s=attributed)


def _attach_gateway(pag: Pag, gateway: GatewayStats) -> Pag:
    # An idle gateway carries nan quantiles by contract (not a perfect
    # 0.0); the payload writer turns them into JSON null.
    pag.root.add(
        PagNode(kind="gateway", name="gateway", metrics=gateway.as_metrics())
    )
    return pag


def _from_dynamic(session) -> Pag:
    """Engine attribution plus a ``dynamic`` node of mutation counters.

    The dynamic node is pure-counter (mutation batches, patched vs
    recompiled plans, invalidations, re-censused tiles, the
    ``stale_kernel_hits`` invariant) except for its ``serve`` child,
    which owns the session's measured serve seconds.
    """
    pag = _from_engine(session.engine)
    node = PagNode(
        kind="dynamic",
        name="mutation",
        # The serve seconds are already counted in the engine worker's
        # wall-clock; repeating them here labels the dynamic share
        # without inflating the totals.
        seconds=session.stats.serve_seconds,
        metrics=session.dynamic_metrics(),
    )
    pag.root.add(node)
    return pag


def build_pag(source, pool_stats: PoolStats | None = None) -> Pag:
    """Assemble a PAG report from any serving telemetry source.

    ``source`` may be a live :class:`~repro.serving.engine.InferenceEngine`
    (one worker node), a live :class:`~repro.serving.pool.ServingPool`
    (one node per shard, plus live queue depths and cache capacities), a
    :class:`~repro.serving.pool.PoolStats` snapshot (e.g. one taken
    before the pool shut down), a
    :class:`~repro.dynamic.session.DynamicSession` (its engine's worker
    node plus a ``dynamic`` mutation-counter node), or a
    :class:`~repro.serving.gateway.GatewayStats` paired with the backing
    pool's stats via ``pool_stats`` — the gateway node attaches beside
    the pool's workers.

    Example::

        pag = build_pag(gateway.stats(), pool_stats=pool.stats())
    """
    from ..dynamic.session import DynamicSession

    if isinstance(source, DynamicSession):
        return _from_dynamic(source)
    if isinstance(source, InferenceEngine):
        return _from_engine(source)
    if isinstance(source, ServingPool):
        return _from_pool_stats(source.stats(), source)
    if isinstance(source, PoolStats):
        return _from_pool_stats(source)
    if isinstance(source, GatewayStats):
        if pool_stats is None:
            raise TypeError(
                "build_pag(GatewayStats) needs pool_stats=: a gateway "
                "attributes admission, not execution — the seconds live "
                "in the pool's telemetry"
            )
        return _attach_gateway(_from_pool_stats(pool_stats), source)
    raise TypeError(
        "build_pag expects an InferenceEngine, ServingPool, PoolStats, "
        "DynamicSession or GatewayStats (+ pool_stats), got "
        f"{type(source).__name__}"
    )

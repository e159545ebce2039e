"""Builtin analysis passes over a built PAG (PerFlow-style).

Each pass is a pure function from a :class:`~repro.perf.pag.Pag` to a
:class:`PassResult`: a verdict, a one-line summary, and structured
findings.  Passes never mutate what they analyze — the PAG is a snapshot.

Example::

    from repro.perf import build_pag, hotspot, imbalance, cache_thrash

    pag = build_pag(pool)
    for result in (hotspot(pag), imbalance(pag), cache_thrash(pag)):
        print(result.summary)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .pag import Pag

__all__ = [
    "PassResult",
    "hotspot",
    "imbalance",
    "cache_thrash",
]


@dataclass(frozen=True)
class PassResult:
    """One pass's verdict over a PAG.

    ``ok`` is the CI-facing bit (``False`` means the pass found a
    problem worth failing on); ``findings`` are per-node dicts ordered
    most-significant first; ``summary`` is the human line.
    """

    name: str
    ok: bool
    summary: str
    findings: tuple = field(default_factory=tuple)

    def render(self) -> str:
        """The result as indented text (one line per finding)."""
        mark = "ok" if self.ok else "FAIL"
        lines = [f"[{mark}] {self.name}: {self.summary}"]
        for finding in self.findings:
            rendered = ", ".join(
                f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in finding.items()
            )
            lines.append(f"    {rendered}")
        return "\n".join(lines)


def hotspot(pag: Pag, top_k: int = 5) -> PassResult:
    """Rank attribution leaves by measured seconds.

    Considers ``phase`` nodes (with ``backend`` children replacing their
    ``gemm`` parent, so the ranking names the backend that owns the
    time, not the umbrella phase).  Informational: always ``ok``.
    """
    candidates = []
    for node in pag.nodes("phase"):
        if node.name == "gemm" and node.children:
            continue  # its backend children carry the split
        candidates.append(node)
    candidates.extend(pag.nodes("backend"))
    total = sum(node.seconds for node in candidates)
    ranked = sorted(candidates, key=lambda n: n.seconds, reverse=True)[:top_k]
    findings = tuple(
        {
            "node": f"{node.kind}:{node.name}",
            "seconds": node.seconds,
            "share": (node.seconds / total) if total > 0 else float("nan"),
        }
        for node in ranked
    )
    top = findings[0] if findings else None
    summary = (
        f"top node {top['node']} owns {top['share']:.0%} of attributed time"
        if top and not math.isnan(top["share"])
        else "no attributed time yet"
    )
    return PassResult(name="hotspot", ok=True, summary=summary, findings=findings)


def imbalance(pag: Pag, threshold: float = 2.0) -> PassResult:
    """Cross-shard skew of attributed work and queue pressure.

    For every worker-level metric that measures load — ``seconds``
    (attributed execution), ``backend_seconds`` implicitly through it,
    and ``queue_depth`` when the source was a live pool — computes
    ``max / mean`` across workers.  A skew above ``threshold`` on any
    metric fails the pass: one shard is doing that many times the
    average shard's work, which is exactly the symptom of a hot
    structure digest or a mis-routed workload.  Trivially ``ok`` with
    fewer than two working shards.
    """
    workers = pag.nodes("worker")
    findings = []
    ok = True

    def skew(values: list[float], metric: str) -> None:
        nonlocal ok
        loaded = [v for v in values if not math.isnan(v)]
        mean = sum(loaded) / len(loaded) if loaded else 0.0
        if mean <= 0:
            return
        ratio = max(loaded) / mean
        flagged = ratio > threshold
        if flagged:
            ok = False
        findings.append(
            {"metric": metric, "max_over_mean": ratio, "flagged": flagged}
        )

    if len(workers) >= 2:
        skew([w.seconds for w in workers], "wall_s")
        depths = [
            float(w.metrics["queue_depth"])
            for w in workers
            if "queue_depth" in w.metrics
        ]
        if len(depths) == len(workers):
            skew(depths, "queue_depth")
    worst = max(
        (f["max_over_mean"] for f in findings), default=float("nan")
    )
    summary = (
        f"worst skew {worst:.2f}x across {len(workers)} workers "
        f"(threshold {threshold:.2f}x)"
        if findings
        else f"{len(workers)} worker(s), nothing to compare"
    )
    return PassResult(
        name="imbalance", ok=ok, summary=summary, findings=tuple(findings)
    )


def cache_thrash(pag: Pag, min_hit_rate: float = 0.5) -> PassResult:
    """Segment hit-rate vs capacity pressure (eviction churn).

    A segment is *thrashing* when it both misses more than it hits
    (``hit_rate < min_hit_rate``) and is evicting under capacity
    pressure — the working set of distinct entries outgrew the segment,
    so every round pays the build cost the cache exists to amortize.
    Cold segments (no evictions) merely haven't warmed; they are
    reported but do not fail the pass.
    """
    findings = []
    ok = True
    for node in pag.nodes("segment"):
        lookups = node.metrics["hits"] + node.metrics["misses"]
        if not lookups:
            continue
        hit_rate = node.metrics["hit_rate"]
        evictions = node.metrics["evictions"]
        thrashing = hit_rate < min_hit_rate and evictions > 0
        if thrashing:
            ok = False
        finding = {
            "segment": node.name,
            "hit_rate": hit_rate,
            "evictions": evictions,
            "invalidations": node.metrics["invalidations"],
            "thrashing": thrashing,
        }
        if "capacity" in node.metrics:
            finding["capacity"] = node.metrics["capacity"]
        findings.append(finding)
    thrashers = sum(1 for f in findings if f["thrashing"])
    summary = (
        f"{thrashers} thrashing segment(s) of {len(findings)} active "
        f"(hit-rate floor {min_hit_rate:.2f})"
    )
    return PassResult(
        name="cache-thrash", ok=ok, summary=summary, findings=tuple(findings)
    )

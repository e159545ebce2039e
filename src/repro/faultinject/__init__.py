"""Seeded, deterministic fault injection for the serving stack.

POPACheck-style probabilistic checking (PAPERS.md) made operational:
every recovery path in the serving layer — backend fallback, worker
respawn, cache-poison recompile, gateway retry — is exercised by
*injected* failures whose firing pattern is a pure function of a seed,
so a chaos run is a reproducible test rather than a production surprise.

The stack probes five named **sites**; with no :class:`FaultPlan`
threaded in (the default), every probe is a no-op:

``kernel``
    Before each step attempt: the round's inline attempt and a recovery's
    fallback alike.  A fire raises :class:`~repro.errors.InjectedFault`;
    the step is retried on the fallback backend bit-identically.
``compile``
    One plan compilation in ``InferenceEngine``.  A fire aborts the
    request with a retryable error; the gateway's bounded retry replays
    it.
``worker``
    The start of each round a pool shard's drain thread runs.  A fire
    kills the worker thread *outside* per-request handling — the
    supervision thread detects the death, respawns the worker, and
    re-queues its in-flight requests.  A caller serving an idle shard
    in place never probes it: a caller does not die.
``slow_shard``
    The start of each round, whoever runs it.  A fire does not raise; it sleeps
    for the spec's ``delay_s``, emulating a straggling shard (a backlog
    builds behind it; the gateway sheds what it cannot admit).
``cache``
    One verified-cache read (``plan``/``template`` segments).  A fire
    corrupts the recorded digest so verification discards the entry and
    the artifact is recompiled (counted as ``poisoned`` in
    ``CacheStats``).

Firing decisions
----------------

Each site keeps a monotone probe counter.  Probe ``i`` of site ``s``
fires iff ``i`` is listed in the spec's ``at`` indices, or the uniform
deviate ``u(seed, s, i)`` derived from a BLAKE2b hash falls below the
spec's ``rate``.  The decision sequence per site is therefore a pure
function of ``(seed, site)`` — reproducible across runs and platforms.
(Under a multi-threaded pool the *assignment* of probe indices to
requests depends on scheduling, so a rate-based fault may hit a
different request between runs; ``at``-based fires are exact in count.)

Example::

    from repro.faultinject import FaultPlan, FaultSpec

    plan = FaultPlan(seed=7, specs=[
        FaultSpec("kernel", rate=0.01),       # ~1% of GEMM attempts fail
        FaultSpec("worker", at=(40,)),        # one mid-run worker kill
    ])
    pool = ServingPool(model, config, fault_plan=plan)

``python -m repro.faultinject selftest`` drives a pool + gateway with
all five sites armed and asserts each is reachable, fires exactly as
seeded, and leaves every request served bit-identically.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

from ..errors import ConfigError, InjectedFault

#: Every named injection site, in the order the stack encounters them.
SITES = ("kernel", "compile", "worker", "slow_shard", "cache")


@dataclass(frozen=True)
class FaultSpec:
    """Arming description for one injection site.

    ``rate`` fires probabilistically (seeded, deterministic per probe
    index); ``at`` fires exactly at the listed probe indices; both may
    be combined.  ``delay_s`` is only meaningful for ``slow_shard``.
    ``max_fires`` caps the total number of fires for the site.
    """

    site: str
    rate: float = 0.0
    at: tuple[int, ...] = ()
    delay_s: float = 0.0
    max_fires: int | None = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ConfigError(
                f"unknown fault site {self.site!r}; expected one of {SITES}"
            )
        if not (0.0 <= self.rate <= 1.0):
            raise ConfigError(f"rate must be in [0, 1], got {self.rate!r}")
        if self.delay_s < 0.0 or self.delay_s != self.delay_s:
            raise ConfigError(f"delay_s must be finite >= 0, got {self.delay_s!r}")
        object.__setattr__(self, "at", tuple(int(i) for i in self.at))
        if any(i < 0 for i in self.at):
            raise ConfigError(f"at indices must be >= 0, got {self.at!r}")
        if self.max_fires is not None and self.max_fires < 1:
            raise ConfigError(f"max_fires must be >= 1, got {self.max_fires!r}")


@dataclass(frozen=True)
class FaultEvent:
    """One recorded fire: which site, at which probe index, with detail."""

    site: str
    index: int
    detail: str = ""


@dataclass
class _SiteState:
    """Mutable per-site bookkeeping (probe/fire counters)."""

    spec: FaultSpec | None = None
    probes: int = 0
    fires: int = 0
    events: list[FaultEvent] = field(default_factory=list)


class FaultPlan:
    """A seeded schedule of deterministic failures for the serving stack.

    Thread-safe: the pool probes it from worker threads and the gateway
    from the event loop.  All counters are per-site and monotone; see
    the module docstring for the firing rule.

    Example::

        plan = FaultPlan(seed=3, specs=[FaultSpec("compile", at=(0,))])
        plan.probe("compile")   # -> True (fires), raises nothing
        plan.probe("compile")   # -> False
        plan.fires("compile")   # -> 1
    """

    def __init__(self, seed: int = 0, specs: tuple[FaultSpec, ...] | list[FaultSpec] = ()):
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._sites: dict[str, _SiteState] = {site: _SiteState() for site in SITES}
        for spec in specs:
            if self._sites[spec.site].spec is not None:
                raise ConfigError(f"duplicate FaultSpec for site {spec.site!r}")
            self._sites[spec.site].spec = spec

    @staticmethod
    def decision(seed: int, site: str, index: int) -> float:
        """The uniform deviate in ``[0, 1)`` for probe ``index`` of ``site``.

        A pure function of its arguments (BLAKE2b over the triple), so
        the rate-based firing sequence is reproducible everywhere.
        """
        digest = hashlib.blake2b(
            f"{seed}|{site}|{index}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") / 2**64

    def probe(self, site: str, detail: str = "") -> bool:
        """Advance ``site``'s probe counter; return ``True`` when it fires."""
        with self._lock:
            state = self._sites[site]
            index = state.probes
            state.probes += 1
            spec = state.spec
            if spec is None:
                return False
            if spec.max_fires is not None and state.fires >= spec.max_fires:
                return False
            fired = index in spec.at or (
                spec.rate > 0.0 and self.decision(self.seed, site, index) < spec.rate
            )
            if fired:
                state.fires += 1
                state.events.append(FaultEvent(site, index, detail))
            return fired

    def maybe_raise(self, site: str, detail: str = "") -> None:
        """Probe ``site``; raise :class:`InjectedFault` when it fires."""
        if self.probe(site, detail):
            raise InjectedFault(
                f"injected {site} fault (seed={self.seed}, detail={detail!r})"
            )

    def delay(self, site: str = "slow_shard", detail: str = "") -> float:
        """Probe ``site``; return its spec's ``delay_s`` when it fires, else 0."""
        if self.probe(site, detail):
            spec = self._sites[site].spec
            return spec.delay_s if spec is not None else 0.0
        return 0.0

    def probes(self, site: str) -> int:
        """Total probes recorded at ``site`` so far."""
        with self._lock:
            return self._sites[site].probes

    def fires(self, site: str) -> int:
        """Total fires recorded at ``site`` so far."""
        with self._lock:
            return self._sites[site].fires

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        """Every recorded fire, in firing order across all sites."""
        with self._lock:
            merged = [e for s in self._sites.values() for e in s.events]
        return tuple(merged)

    def snapshot(self) -> dict[str, dict[str, int]]:
        """``{site: {"probes": n, "fires": m}}`` for every site."""
        with self._lock:
            return {
                site: {"probes": s.probes, "fires": s.fires}
                for site, s in self._sites.items()
            }


def selftest() -> dict[str, dict[str, int]]:
    """Drive a pool + gateway with all five sites armed; assert reachability.

    Serves a small seeded workload twice through a supervised 2-worker
    pool behind a retrying gateway, with every injection site armed via
    exact ``at`` indices.  Asserts that

    * every site records probes (reachable) and fires exactly as armed,
    * the firing decision sequence is seeded-deterministic,
    * every request is served and bit-identical to a fault-free engine.

    Returns the plan's :meth:`FaultPlan.snapshot` for display.  Invoked
    by ``python -m repro.faultinject selftest`` in CI.
    """
    import asyncio

    import numpy as np

    from ..gnn import make_batched_gin
    from ..gnn.quantized import ActivationCalibration
    from ..graph import induced_subgraphs
    from ..graph.generators import planted_partition_graph
    from ..partition import metis_like_partition
    from ..serving import (
        GatewayConfig,
        PoolConfig,
        ServingConfig,
        ServingGateway,
        ServingPool,
    )
    from ..serving.engine import InferenceEngine

    # Pure decision-sequence determinism, independent of any workload.
    seq_a = [FaultPlan.decision(11, "kernel", i) for i in range(64)]
    seq_b = [FaultPlan.decision(11, "kernel", i) for i in range(64)]
    assert seq_a == seq_b, "decision sequence must be reproducible"
    assert seq_a != [FaultPlan.decision(12, "kernel", i) for i in range(64)], (
        "different seeds must yield different decision sequences"
    )

    rng = np.random.default_rng(0xF1)
    graph = planted_partition_graph(
        256, 1500, num_communities=8, feature_dim=8, num_classes=3, rng=rng
    )
    subgraphs = induced_subgraphs(graph, metis_like_partition(graph, 8))
    model = make_batched_gin(8, 3, hidden_dim=8, seed=5)
    config = ServingConfig(feature_bits=2, batch_size=1)

    # Reference: a fault-free engine freezes the calibration and pins
    # the expected logits (content-keyed artifacts make replay
    # bit-identical).
    calibration = ActivationCalibration()
    reference = InferenceEngine(model, config, calibration=calibration)
    expected = [reference.infer_one(sg).logits for sg in subgraphs]

    plan = FaultPlan(
        seed=11,
        specs=[
            FaultSpec("kernel", at=(1,)),
            FaultSpec("compile", at=(2,)),
            FaultSpec("worker", at=(3,)),
            FaultSpec("slow_shard", at=(0,), delay_s=0.004),
            FaultSpec("cache", at=(0,)),
        ],
    )

    async def drive() -> list:
        with ServingPool(
            model,
            config,
            pool=PoolConfig(workers=2, supervise_interval_s=0.02),
            calibration=calibration,
            fault_plan=plan,
        ) as pool:
            gateway = ServingGateway(pool, GatewayConfig(max_retries=4))
            outputs = []
            for _ in range(2):  # second round replays -> verified cache hits
                outputs.extend(await gateway.serve(subgraphs))
        return outputs

    results = asyncio.run(drive())
    assert len(results) == 2 * len(subgraphs), "a request was lost"
    for i, result in enumerate(results):
        want = expected[i % len(subgraphs)]
        assert np.array_equal(result.logits, want), (
            f"request {i} logits diverged under injected faults"
        )

    snapshot = plan.snapshot()
    for site in SITES:
        assert snapshot[site]["probes"] > 0, f"site {site!r} was never probed"
        assert snapshot[site]["fires"] == 1, (
            f"site {site!r} fired {snapshot[site]['fires']}x, expected exactly 1"
        )
    return snapshot

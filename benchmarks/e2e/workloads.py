"""The four benchmark workloads: inputs from a seed, set-up, timed window.

Each workload makes its inputs from ``seed`` alone (graph, partition,
arrival schedule, mutation stream), warms and settles its session in
:meth:`setup`, and measures ops in :meth:`window` with tracing off.  The
program under test only ever sees the generated inputs.  Per-layer
numbers come from :mod:`e2e.ledger`, which drives the same state.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.dynamic import DynamicSession
from repro.gnn import make_batched_gin, make_cluster_gcn, quantized_forward
from repro.gnn.quantized import ActivationCalibration, pack_batch_adjacency
from repro.gnn.reference import reference_forward
from repro.graph import induced_subgraphs, load_dataset
from repro.graph.batching import Subgraph, SubgraphBatch
from repro.graph.generators import planted_partition_graph
from repro.partition import partition_graph
from repro.serving import (
    GatewayConfig,
    InferenceEngine,
    PoolConfig,
    ServingConfig,
    ServingGateway,
    ServingPool,
)

from . import settle

#: Open-loop arrival rate of ``gateway_open`` — absolute, not a share of
#: measured saturation, so a parent commit and a change see the same load.
#: ~0.3 of the ~170 req/s the pool sustains here: at 100 req/s a slow spell
#: of the host pushed utilisation past 0.7 and requests were shed.
GATEWAY_RATE_RPS = 50.0
#: The second, ungated fixed rate the ledger reports a p50 for.
GATEWAY_SECOND_RATE_RPS = 100.0
#: Requests per closed-loop saturation pass of ``gateway_open``.
GATEWAY_PASS_REQUESTS = 64
#: Shares of ``gateway_open``'s window: (c) one request at a time for the
#: cost ratio, (b) open loop, untimed saturation burn-in, (a) timed
#: saturation.  The pool has two metastable speeds under back-to-back
#: passes — ~400 req/s for the first second or so after an idle spell,
#: ~200 req/s from then on, the two workers burning CPU against each other
#: (README, "How steady it is").  Sustained load is what saturation means,
#: so the burn-in rides the fast spell out and (a) comes last; how much of
#: that burning an open loop meets is luck, so the cost ratio is taken
#: where requests cannot overlap.
GATEWAY_WINDOW_SHARES = (0.2, 0.4, 0.15, 0.2)
#: Edits per ``dynamic_rounds`` mutation stream (~0.1% of 8000 edges).
EDITS_PER_ROUND = 8
#: ``dynamic_rounds`` ops per throughput sample.
DYNAMIC_PASS_OPS = 10
#: Every n-th op's logits are compared with the oracle when the oracle is
#: as costly as the op itself (``dynamic_rounds``).
CHECK_EVERY = 50


@dataclass
class Window:
    """What one timed window measured (tracing off)."""

    #: Per-op latency samples, seconds.
    latencies_s: list[float] = field(default_factory=list)
    #: Ops per second of each pass through the system.
    pass_rates: list[float] = field(default_factory=list)
    #: Per pass, the process CPU seconds the system spent on its ops over
    #: those ``reference_forward`` spent on the same ops right afterwards.
    cost_ratios: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def _blake(*chunks: bytes) -> str:
    h = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        h.update(chunk)
        h.update(b"|")
    return h.hexdigest()


def _graph_bytes(subgraphs: Sequence[Subgraph]) -> list[bytes]:
    out: list[bytes] = []
    for sub in subgraphs:
        out += [
            sub.graph.indptr.tobytes(),
            sub.graph.indices.tobytes(),
            sub.graph.features.tobytes(),
        ]
    return out


def poisson_offsets(rate_rps: float, count: int, seed: int) -> np.ndarray:
    """Seeded cumulative Poisson arrival offsets (seconds from t=0)."""
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / rate_rps, size=count))


def device_counters(source) -> tuple[int, int, int]:
    """The modeled-device counts of a ``KernelCounters`` or a session's
    ``stats``: inputs alone decide them, so served and oracle agree exactly."""
    return (source.mma_ops, source.tiles_total, source.tiles_skipped)


def mismatches(results, expected: Sequence[np.ndarray]) -> int:
    """How many served logits differ, bit for bit, from the oracle's."""
    return sum(
        not np.array_equal(got, want) for got, want in zip(results, expected)
    )


class Workload:
    """Common shape of a workload; see the module docstring."""

    name = ""

    def __init__(self, seed: int, *, quick: bool = False, out_dir: Path) -> None:
        self.seed = seed
        self.quick = quick
        self.out_dir = out_dir
        #: Stale plans left when set-up finished (0 = dispatch settled).
        self.stale_after_settle = 0
        #: Whether two consecutive warm passes ran the same backends.
        self.mix_stable = True

    # -- the interface -------------------------------------------------- #
    def generate(self) -> None:
        """Build the inputs from ``self.seed`` (graph, partition, streams)."""
        raise NotImplementedError

    def digest(self) -> str:
        """Content digest of the generated inputs."""
        raise NotImplementedError

    def setup(self) -> None:
        """Create the session, warm it and settle its dispatch."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop whatever :meth:`setup` started."""

    def prepare_oracle(self) -> None:
        """Fill ``self.oracle`` — one ``(batch, forward, adjacency)`` per
        distinct structure — outside set-up time and timed windows."""
        raise NotImplementedError

    def oracle_forward(self, batch: SubgraphBatch):
        """A fresh pack-from-scratch ``quantized_forward`` of ``batch``
        under the session's frozen calibration, with the adjacency it
        packed (its tile plan feeds the modeled-device counters)."""
        adjacency = pack_batch_adjacency(batch)
        forward = quantized_forward(
            self.model,
            batch,
            feature_bits=self.config.feature_bits,
            weight_bits=self.config.effective_weight_bits,
            calibration=self.calibration,
            packed_adjacency=adjacency,
        )
        return batch, forward, adjacency

    def window(self, seconds: float) -> Window:
        """Measure ops for ``seconds`` with tracing off."""
        raise NotImplementedError

    def engines(self) -> Sequence[InferenceEngine]:
        """Every session engine the workload serves through."""
        raise NotImplementedError

    # -- shared set-up steps --------------------------------------------- #
    def _settle(self, rounds_per_engine, warm_pass) -> None:
        """Seed every engine's table in situ, drop stale plans, re-warm and
        check that two consecutive warm passes run the same backends."""
        engines = list(self.engines())
        for engine, rounds in zip(engines, rounds_per_engine):
            settle.seed_table(engine, rounds)
        self.stale_after_settle = settle.settle(engines, warm_pass)
        first = self._pass_backends(engines, warm_pass)
        second = self._pass_backends(engines, warm_pass)
        self.mix_stable = first == second

    @staticmethod
    def _pass_backends(engines, warm_pass) -> list[frozenset[str]]:
        before = [dict(e.stats.backend_seconds) for e in engines]
        warm_pass()
        return [
            frozenset(
                name
                for name, seconds in e.stats.backend_seconds.items()
                if seconds > was.get(name, 0.0)
            )
            for e, was in zip(engines, before)
        ]


def engine_round(engine: InferenceEngine, members: Sequence[Subgraph]) -> settle.Round:
    """Resolve one round's artifacts through the session's own cache."""
    batch = SubgraphBatch(members=tuple(members))
    adjacency = engine.packed_adjacency_for(batch)
    plan = engine.plan_for(batch, adjacency=adjacency)
    return settle.Round(
        batch, adjacency, plan, plan.layers[0].aggregate.pack_a.cache_key
    )


# --------------------------------------------------------------------- #
# replay8 / cold_structures: one closed-loop client, round by round
# --------------------------------------------------------------------- #
class EngineRounds(Workload):
    """One closed-loop client calling ``InferenceEngine.infer`` round by
    round over a fixed cycle of coalesced rounds."""

    batch_size = 8

    def _graph_and_model(self):
        raise NotImplementedError

    def _config(self) -> ServingConfig:
        raise NotImplementedError

    def generate(self) -> None:
        graph, num_parts, self.model = self._graph_and_model()
        assignment = partition_graph(graph, num_parts, method="metis").assignment
        subgraphs = induced_subgraphs(graph, assignment)
        size = self.batch_size
        #: The request stream, already in the rounds ``infer`` coalesces.
        self.rounds = [
            subgraphs[i : i + size] for i in range(0, len(subgraphs), size)
        ]
        self.batches = [SubgraphBatch(members=tuple(r)) for r in self.rounds]
        self.config = self._config()
        assert all(
            b.num_nodes <= self.config.max_batch_nodes for b in self.batches
        ), "a round would be split by the engine's node budget"

    def digest(self) -> str:
        chunks = _graph_bytes([s for r in self.rounds for s in r])
        chunks += [w.tobytes() for w in self.model.weights]
        return _blake(*chunks)

    def setup(self) -> None:
        self.calibration = ActivationCalibration()
        self.engine = InferenceEngine(
            self.model, self.config, calibration=self.calibration
        ).warm_up()
        self._warm_pass()
        self._warm_pass()
        self._settle(
            [[engine_round(self.engine, r) for r in self.rounds]],
            self._warm_pass,
        )

    def engines(self):
        return [self.engine]

    def _warm_pass(self) -> None:
        for members in self.rounds:
            self.engine.infer(members)

    def prepare_oracle(self) -> None:
        self.oracle = [self.oracle_forward(batch) for batch in self.batches]
        #: Per round, the expected logits of each request.
        self.expected = [
            [forward.logits[rows] for rows in batch.member_slices()]
            for batch, forward, _ in self.oracle
        ]
        #: What one pass must add to the session's modeled-device counts.
        self.pass_counters = tuple(
            sum(column)
            for column in zip(
                *(device_counters(forward.total_counters) for _, forward, _ in self.oracle)
            )
        )

    def window(self, seconds: float) -> Window:
        out = Window()
        counters_before = device_counters(self.engine.stats)
        deadline = time.perf_counter() + seconds
        while True:
            spent = 0.0
            served = []
            cpu = time.process_time()
            for members in self.rounds:
                start = time.perf_counter()
                try:
                    results = self.engine.infer(members)
                except Exception:  # a raised error fails the round's requests
                    results = None
                elapsed = time.perf_counter() - start
                out.latencies_s.append(elapsed)
                spent += elapsed
                served.append(results)
            system_cpu = time.process_time() - cpu
            requests = sum(len(r) for r in self.rounds)
            out.attempted += requests
            out.pass_rates.append(requests / spent)
            for results, members, expected in zip(served, self.rounds, self.expected):
                if results is None:
                    out.failed += len(members)
                else:
                    out.failed += mismatches([r.logits for r in results], expected)
            cpu = time.process_time()
            for batch in self.batches:
                reference_forward(self.model, batch)
            out.cost_ratios.append(system_cpu / (time.process_time() - cpu))
            if time.perf_counter() >= deadline:
                break
        passes = len(out.pass_rates)
        out.failed += device_counters(self.engine.stats) != tuple(
            before + passes * each
            for before, each in zip(counters_before, self.pass_counters)
        )
        return out


class Replay8(EngineRounds):
    """PPI (scale 0.02), 48 METIS parts, batched GIN, 8-bit, warm cache."""

    name = "replay8"

    def _graph_and_model(self):
        scale, parts = (0.001, 8) if self.quick else (0.02, 48)
        graph = load_dataset("PPI", scale=scale, seed=self.seed)
        return graph, parts, make_batched_gin(graph.feature_dim, graph.num_classes)

    def _config(self) -> ServingConfig:
        return ServingConfig(feature_bits=8, batch_size=self.batch_size)


class ColdStructures(EngineRounds):
    """Planted-partition graph, cluster-GCN, 1-bit, caches of capacity 2
    under a cycle of 8 distinct rounds: LRU makes every round a miss."""

    name = "cold_structures"
    feature_dim = 32
    num_classes = 8

    def _graph_and_model(self):
        nodes, edges, parts = (2400, 13750, 24) if self.quick else (19200, 110000, 64)
        graph = planted_partition_graph(
            nodes,
            edges,
            num_communities=parts,
            feature_dim=self.feature_dim,
            num_classes=self.num_classes,
            rng=np.random.default_rng(self.seed),
        )
        return graph, parts, make_cluster_gcn(self.feature_dim, self.num_classes)

    def _config(self) -> ServingConfig:
        return ServingConfig(
            feature_bits=1,
            batch_size=self.batch_size,
            adjacency_cache_capacity=2,
            plan_cache_capacity=2,
        )


# --------------------------------------------------------------------- #
# gateway_open: warm 2-worker pool, closed-loop saturation + open loop
# --------------------------------------------------------------------- #
@dataclass
class Arrival:
    """One open-loop request's timeline (seconds on ``perf_counter``)."""

    index: int
    scheduled: float
    sent: float
    done: float
    #: The gateway's reply, or ``None`` when the request was shed or failed.
    reply: object

    @property
    def latency_s(self) -> float:
        """From when the request was *due* to be sent, so a late generator
        or a stalled gate counts against the system."""
        return self.done - self.scheduled


class GatewayOpen(Workload):
    """The 16-structure, 4096-node planted-partition mix of the legacy
    gateway latency harness, 1-bit, ``batch_size=2``, behind a warm
    ``ServingPool`` and a ``ServingGateway``."""

    name = "gateway_open"
    structures_count = 16

    def generate(self) -> None:
        nodes, edges = (1024, 6000) if self.quick else (4096, 24000)
        graph = planted_partition_graph(
            nodes,
            edges,
            num_communities=self.structures_count,
            feature_dim=8,
            num_classes=4,
            rng=np.random.default_rng(self.seed),
        )
        assignment = partition_graph(
            graph, self.structures_count, method="metis"
        ).assignment
        self.structures = induced_subgraphs(graph, assignment)
        self.model = make_batched_gin(8, 4, hidden_dim=8, seed=5)
        self.config = ServingConfig(feature_bits=1, batch_size=2)
        self.gateway_config = GatewayConfig(max_in_flight=16, queue_timeout_s=0.08)
        self.workers = min(2, os.cpu_count() or 1)
        self.batches = [SubgraphBatch(members=(s,)) for s in self.structures]
        #: Structure index of each request of one closed-loop pass.
        self.pass_order = self.requests(
            len(self.structures) if self.quick else GATEWAY_PASS_REQUESTS
        )

    def schedule(self, rate_rps: float, duration_s: float) -> np.ndarray:
        """The seeded arrival offsets of one open-loop phase."""
        count = max(int(rate_rps * duration_s), 1)
        return poisson_offsets(rate_rps, count, self.seed * 7919 + int(rate_rps))

    def requests(self, count: int) -> list[int]:
        """Structure index of each of ``count`` cycled requests."""
        return [i % len(self.structures) for i in range(count)]

    def digest(self) -> str:
        chunks = _graph_bytes(self.structures)
        chunks.append(self.schedule(GATEWAY_RATE_RPS, 4.0).tobytes())
        return _blake(*chunks)

    def setup(self) -> None:
        self.calibration = ActivationCalibration()
        # A site's quantization range freezes on first touch, and which
        # request touches first is a race between the pool's workers:
        # freeze them all on the first structure, before the pool exists.
        self.oracle_forward(self.batches[0])
        self.spool = self.out_dir / f"e2e_spool_{os.getpid()}"
        self.pool = ServingPool(
            self.model,
            self.config,
            pool=PoolConfig(workers=self.workers, spool_dir=str(self.spool)),
            calibration=self.calibration,
        )
        self.gateway = ServingGateway(self.pool, self.gateway_config)
        self._warm_pass()
        self._warm_pass()
        self._settle(
            [self.shard_rounds(i, e) for i, e in enumerate(self.pool.workers)],
            self._warm_pass,
        )

    def teardown(self) -> None:
        self.pool.shutdown()
        shutil.rmtree(self.spool, ignore_errors=True)

    def engines(self):
        return self.pool.workers

    def _warm_pass(self) -> None:
        self.pool.serve(
            [self.structures[i] for i in self.requests(2 * len(self.structures))]
        )

    def shard_rounds(self, shard: int, engine: InferenceEngine):
        """The rounds a shard forms from the cycled stream: each of its
        structures alone (open loop) and consecutive pairs (saturation)."""
        mine = [
            s
            for seq, s in enumerate(self.structures)
            if self.pool.shard_of(s, seq) == shard
        ]
        singles = [[s] for s in mine]
        pairs = [mine[i : i + 2] for i in range(0, len(mine) - 1, 2)]
        return [engine_round(engine, members) for members in singles + pairs]

    def prepare_oracle(self) -> None:
        self.oracle = [self.oracle_forward(batch) for batch in self.batches]
        self.expected = [forward.logits for _, forward, _ in self.oracle]

    def closed_loop_pass(self, out: Window) -> float:
        """One saturation pass through ``pool.serve``; returns its seconds."""
        order = self.pass_order
        subgraphs = [self.structures[i] for i in order]
        start = time.perf_counter()
        try:
            results = self.pool.serve(subgraphs)
        except Exception:
            results = None
        elapsed = time.perf_counter() - start
        out.attempted += len(order)
        if results is None:
            out.failed += len(order)
        else:
            out.failed += mismatches(
                [r.logits for r in results], [self.expected[i] for i in order]
            )
        out.pass_rates.append(len(order) / elapsed)
        return elapsed

    def open_loop(self, rate_rps: float, duration_s: float) -> list[Arrival]:
        """Seeded Poisson arrivals through ``ServingGateway.submit``; every
        request is sent at its scheduled time whether or not earlier ones
        have completed."""
        offsets = self.schedule(rate_rps, duration_s)
        order = self.requests(len(offsets))
        gateway = self.gateway

        async def drive() -> list[Arrival]:
            t0 = time.perf_counter()

            async def client(i: int) -> Arrival:
                scheduled = t0 + float(offsets[i])
                wait = scheduled - time.perf_counter()
                if wait > 0:
                    await asyncio.sleep(wait)
                sent = time.perf_counter()
                try:
                    reply = await gateway.submit(self.structures[order[i]])
                except Exception:  # shed (PoolSaturated) or failed
                    reply = None
                return Arrival(i, scheduled, sent, time.perf_counter(), reply)

            return list(
                await asyncio.gather(*[client(i) for i in range(len(order))])
            )

        return asyncio.run(drive())

    def open_loop_failures(self, arrivals: Sequence[Arrival]) -> int:
        """Shed, failed or wrong-logits arrivals."""
        order = self.requests(len(arrivals))
        return sum(
            a.reply is None
            or not np.array_equal(a.reply.logits, self.expected[order[a.index]])
            for a in arrivals
        )

    def serial_cost(self, out: Window, seconds: float) -> None:
        """One client, one request in flight, each followed by the same
        request through the reference; a cost ratio per two cycles of the
        structures — the pool merges its shards' dispatch tables every 32
        rounds, and a sample must hold as many merges as the next.
        Requests cannot overlap, so no worker slows another."""
        order = self.requests(2 * len(self.structures))

        async def drive() -> None:
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                # The reference costs what this thread burns inside it; the
                # system, whatever else the process burns meanwhile — a
                # worker is still tidying up when its reply arrives.
                cycle_cpu = time.process_time()
                reference_cpu = 0.0
                for i in order:
                    try:
                        reply = await self.gateway.submit(self.structures[i])
                    except Exception:  # shed (PoolSaturated) or failed
                        reply = None
                    cpu = time.thread_time()
                    reference_forward(self.model, self.batches[i])
                    reference_cpu += time.thread_time() - cpu
                    out.attempted += 1
                    out.failed += reply is None or not np.array_equal(
                        reply.logits, self.expected[i]
                    )
                cycle_cpu = time.process_time() - cycle_cpu
                out.cost_ratios.append((cycle_cpu - reference_cpu) / reference_cpu)

        asyncio.run(drive())

    def window(self, seconds: float) -> Window:
        out = Window()
        serial, open_loop, burn_in, saturation = (
            share * seconds for share in GATEWAY_WINDOW_SHARES
        )
        self.serial_cost(out, serial)
        # (b) open loop at the fixed rate.
        arrivals = self.open_loop(GATEWAY_RATE_RPS, open_loop)
        out.attempted += len(arrivals)
        out.failed += self.open_loop_failures(arrivals)
        out.latencies_s = [a.latency_s for a in arrivals if a.reply is not None]
        # (a) closed-loop saturation: back-to-back passes, the burn-in's
        # ops checked like the rest but their rates dropped; >= 3 timed.
        deadline = time.perf_counter() + burn_in
        while time.perf_counter() < deadline:
            self.closed_loop_pass(out)
        out.pass_rates.clear()
        deadline = time.perf_counter() + saturation
        while time.perf_counter() < deadline or len(out.pass_rates) < 3:
            self.closed_loop_pass(out)
        return out


# --------------------------------------------------------------------- #
# dynamic_rounds: mutate + serve
# --------------------------------------------------------------------- #
class MutationStream:
    """Seeded edit streams over an evolving edge set: half delete a present
    edge, half re-insert an edge an earlier round deleted (a fresh random
    absent pair while none is available), so the graph churns around its
    generated structure instead of drifting denser."""

    def __init__(self, graph, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.num_nodes = graph.num_nodes
        rows = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
        keep = rows < graph.indices
        self.present = [
            (int(u), int(v)) for u, v in zip(rows[keep], graph.indices[keep])
        ]
        self.present_set = set(self.present)
        self.deleted: list[tuple[int, int]] = []

    def _take(self, pool: list) -> tuple[int, int]:
        index = int(self.rng.integers(len(pool)))
        pool[index], pool[-1] = pool[-1], pool[index]
        return pool.pop()

    def _absent_pair(self) -> tuple[int, int]:
        while True:
            u, v = (int(x) for x in self.rng.integers(0, self.num_nodes, 2))
            edge = (min(u, v), max(u, v))
            if u != v and edge not in self.present_set:
                return edge

    def next(self, edits: int = EDITS_PER_ROUND) -> list[tuple[str, int, int]]:
        """The next round's ``(op, u, v)`` edits, every one effective."""
        deletes = [self._take(self.present) for _ in range(edits - edits // 2)]
        inserts = []
        for _ in range(edits // 2):
            edge = self._take(self.deleted) if self.deleted else self._absent_pair()
            self.present_set.add(edge)
            inserts.append(edge)
        self.present_set.difference_update(deletes)
        self.present += inserts
        self.deleted += deletes
        stream = [("delete", *e) for e in deletes] + [("insert", *e) for e in inserts]
        order = self.rng.permutation(len(stream))
        return [stream[i] for i in order]


class DynamicRounds(Workload):
    """``DynamicSession`` on a 1920-node planted-partition graph,
    cluster-GCN, default 4-bit; op = ``mutate(8 edits)`` then ``serve()``."""

    name = "dynamic_rounds"
    feature_dim = 16
    num_classes = 8

    def generate(self) -> None:
        nodes, edges = (640, 2700) if self.quick else (1920, 8000)
        self.graph = planted_partition_graph(
            nodes,
            edges,
            num_communities=16,
            feature_dim=self.feature_dim,
            num_classes=self.num_classes,
            rng=np.random.default_rng(self.seed),
        )
        self.model = make_cluster_gcn(self.feature_dim, self.num_classes, seed=0)
        self.config = ServingConfig()
        self.stream = MutationStream(self.graph, self.seed)

    def digest(self) -> str:
        preview = MutationStream(self.graph, self.seed)
        edits = [preview.next() for _ in range(4)]
        return _blake(
            self.graph.indptr.tobytes(),
            self.graph.indices.tobytes(),
            self.graph.features.tobytes(),
            repr(edits).encode(),
        )

    def setup(self) -> None:
        self.calibration = ActivationCalibration()
        self.session = DynamicSession(
            self.model, self.graph, self.config, calibration=self.calibration
        )
        self.session.serve()
        self.session.serve()
        self._settle([[self.session_round()]], self.session.serve)
        # Warm the mutate path too: the first patch and the first
        # snapshot publication are one-time costs of the session.
        for _ in range(2):
            self.session.mutate(self.stream.next())
            self.session.serve()

    def engines(self):
        return [self.session.engine]

    def session_round(self) -> settle.Round:
        """The session's current round as the plan layer sees it."""
        session = self.session
        cache = session.engine.plan_artifacts
        return settle.Round(
            session.mutable.to_batch(),
            cache.get(session.adjacency_key()),
            cache.segment("plan").peek(session.plan_key()),
            session.adjacency_key(),
        )

    def prepare_oracle(self) -> None:
        # Every op serves a new structure, so only the generated one has a
        # precomputed oracle (it carries the exact modeled-device counters).
        seed_batch = SubgraphBatch(
            members=(Subgraph(self.graph, np.arange(self.graph.num_nodes)),)
        )
        self.oracle = [self.oracle_forward(seed_batch)]

    def window(self, seconds: float) -> Window:
        out = Window()
        session = self.session
        deadline = time.perf_counter() + seconds
        pass_ops = 0
        pass_spent = pass_cpu = pass_reference_cpu = 0.0
        while True:
            stream = self.stream.next()
            cpu = time.process_time()
            start = time.perf_counter()
            try:
                session.mutate(stream)
                forward = session.serve()
            except Exception:
                forward = None
            elapsed = time.perf_counter() - start
            pass_cpu += time.process_time() - cpu
            out.latencies_s.append(elapsed)
            out.attempted += 1
            pass_ops += 1
            pass_spent += elapsed
            # The fp32 yardstick sees the same mutated structure; its CSR
            # rebuild is what an fp32 framework would also have to do.
            cpu = time.process_time()
            batch = session.mutable.to_batch()
            reference_forward(self.model, batch)
            pass_reference_cpu += time.process_time() - cpu
            done = time.perf_counter() >= deadline
            if forward is None:
                out.failed += 1
            elif out.attempted % CHECK_EVERY == 1 or done:
                oracle = self.oracle_forward(batch)[1]
                out.failed += mismatches([forward.logits], [oracle.logits])
                out.failed += device_counters(
                    forward.total_counters
                ) != device_counters(oracle.total_counters)
            # A pass is DYNAMIC_PASS_OPS ops (fewer only if the window ends
            # before the first pass does).
            if pass_ops == DYNAMIC_PASS_OPS or (done and not out.pass_rates):
                out.pass_rates.append(pass_ops / pass_spent)
                out.cost_ratios.append(pass_cpu / pass_reference_cpu)
                pass_ops = 0
                pass_spent = pass_cpu = pass_reference_cpu = 0.0
            if done:
                out.failed += session.stats.stale_kernel_hits
                return out


WORKLOADS = {
    cls.name: cls for cls in (Replay8, ColdStructures, GatewayOpen, DynamicRounds)
}

"""Edge-case tests for the pool's coalescing, intake and lifecycle.

The corners: the ``round_full`` boundary at exactly ``max_batch_nodes``
and at the member cap, as the rules that split a backlog into rounds,
shard overrides, non-blocking intake saturation, and shutdown-drain
ordering — including submits racing shutdown, which must either be
refused or served, never stranded.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.errors import ConfigError, PoolSaturated
from repro.faultinject import FaultPlan, FaultSpec
from repro.gnn import make_batched_gin
from repro.graph import induced_subgraphs
from repro.graph.batching import round_full
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.serving import PoolConfig, ServingConfig, ServingPool

pytestmark = pytest.mark.timeout(300)


@pytest.fixture
def subgraphs(rng):
    g = planted_partition_graph(
        192, 1200, num_communities=8, feature_dim=12, num_classes=3, rng=rng
    )
    return induced_subgraphs(g, metis_like_partition(g, 8))


@pytest.fixture
def gin_model(subgraphs):
    g = subgraphs[0].graph
    return make_batched_gin(g.features.shape[1], 3, hidden_dim=16, seed=3)


def make_pool(
    model, *, batch_size=4, max_batch_nodes=4096, fault_plan=None, **pool_kwargs
):
    pool_kwargs.setdefault("workers", 1)
    return ServingPool(
        model,
        ServingConfig(
            feature_bits=8, batch_size=batch_size, max_batch_nodes=max_batch_nodes
        ),
        pool=PoolConfig(**pool_kwargs),
        fault_plan=fault_plan,
    )


def stalled_first_round() -> FaultPlan:
    """A plan that stalls the first executed round, so everything
    submitted meanwhile queues behind it as one backlog."""
    return FaultPlan(
        seed=0, specs=[FaultSpec("slow_shard", at=(0,), delay_s=0.5)]
    )


def record_rounds(pool) -> list[list[int]]:
    """Each round the pool's first shard executes from now on, as the node
    counts of its members, in execution order."""
    engine = pool.workers[0]
    rounds: list[list[int]] = []

    def recording_infer(members):
        rounds.append([sub.num_nodes for sub in members])
        return type(engine).infer(engine, members)

    engine.infer = recording_infer
    return rounds


def queue_behind_stall(pool, plan, head, backlog) -> list:
    """Submit ``head``, then ``backlog`` while ``head``'s round stalls;
    returns every future, ``head``'s first."""
    futures = [pool.submit(head)]
    while plan.probes("slow_shard") < 1:  # the worker is inside the stall
        time.sleep(0.001)
    return futures + [pool.submit(sub) for sub in backlog]


def serve_backlog(pool, plan, head, backlog) -> list[list[int]]:
    """Serve ``head`` alone, then ``backlog`` as the queue that built up
    while ``head``'s round stalled; returns the executed rounds."""
    rounds = record_rounds(pool)
    for future in queue_behind_stall(pool, plan, head, backlog):
        future.result(timeout=60)
    return rounds


class TestCoalescingRules:
    def test_round_full_boundary_at_exact_node_budget(self):
        # Landing exactly on the budget is allowed; one more node is not.
        assert not round_full(1, 60, 40, 100, None)
        assert round_full(1, 61, 40, 100, None)
        # The member cap is inclusive the same way.
        assert not round_full(3, 10, 10, 100, 4)
        assert round_full(4, 10, 10, 100, 4)
        # An empty round is never full — oversized singletons still batch.
        assert not round_full(0, 0, 10_000, 100, 1)

    def test_backlog_coalesces_up_to_exact_node_budget(
        self, gin_model, subgraphs
    ):
        # A budget of exactly (a + b) nodes coalesces the pair into one
        # round; c overflows it and opens the next round.
        head, a, b, c = subgraphs[3], subgraphs[0], subgraphs[1], subgraphs[2]
        budget = a.num_nodes + b.num_nodes
        plan = stalled_first_round()
        with make_pool(
            gin_model, batch_size=8, max_batch_nodes=budget, fault_plan=plan
        ) as pool:
            rounds = serve_backlog(pool, plan, head, [a, b, c])
            stats = pool.stats()
        assert rounds == [
            [head.num_nodes], [a.num_nodes, b.num_nodes], [c.num_nodes]
        ]
        assert (stats.requests, stats.batches) == (4, 3)

    def test_backlog_splits_one_node_over_budget(self, gin_model, subgraphs):
        # One node under the pair's total: b overflows a's round.
        head, a, b = subgraphs[3], subgraphs[0], subgraphs[1]
        budget = a.num_nodes + b.num_nodes - 1
        plan = stalled_first_round()
        with make_pool(
            gin_model, batch_size=8, max_batch_nodes=budget, fault_plan=plan
        ) as pool:
            rounds = serve_backlog(pool, plan, head, [a, b])
        assert rounds == [[head.num_nodes], [a.num_nodes], [b.num_nodes]]

    def test_backlog_runs_an_oversized_request_alone(self, gin_model, subgraphs):
        # Every request exceeds a one-node budget: each still executes,
        # as a round of its own.
        head, a, b = subgraphs[3], subgraphs[0], subgraphs[1]
        plan = stalled_first_round()
        with make_pool(
            gin_model, batch_size=8, max_batch_nodes=1, fault_plan=plan
        ) as pool:
            rounds = serve_backlog(pool, plan, head, [a, b])
        assert rounds == [[head.num_nodes], [a.num_nodes], [b.num_nodes]]

    @pytest.mark.parametrize(
        "cap, split", [(1, [1] * 5), (2, [2, 2, 1]), (3, [3, 2]), (5, [5])]
    )
    def test_backlog_splits_at_the_member_cap(
        self, gin_model, subgraphs, cap, split
    ):
        # Five queued requests under a cap of ``cap`` members.
        sub = subgraphs[0]
        plan = stalled_first_round()
        with make_pool(gin_model, batch_size=cap, fault_plan=plan) as pool:
            rounds = serve_backlog(pool, plan, sub, [sub] * 5)
            stats = pool.stats()
        n = sub.num_nodes
        assert rounds == [[n]] + [[n] * members for members in split]
        assert (stats.requests, stats.batches) == (6, 1 + len(split))


class TestShardOverride:
    def test_shard_override_routes_to_that_worker(self, gin_model, subgraphs):
        with make_pool(gin_model, workers=2) as pool:
            future = pool.submit(subgraphs[0], shard=1)
            future.result(timeout=60)
            assert future.worker == "w1"
            with pytest.raises(ConfigError):
                pool.submit(subgraphs[0], shard=2)
            with pytest.raises(ConfigError):
                pool.submit(subgraphs[0], shard=-1)


class TestNonBlockingIntake:
    def test_saturated_queue_fast_fails(self, gin_model, subgraphs):
        # One worker and a one-slot queue: while the worker executes, the
        # submitter outruns it and the queue fills — block=False must shed
        # with PoolSaturated, never block.
        with make_pool(gin_model, queue_capacity=1) as pool:
            futures, sheds = [], 0
            for _ in range(8):
                for sub in subgraphs:
                    try:
                        futures.append(pool.submit(sub, block=False))
                    except PoolSaturated:
                        sheds += 1
            assert sheds > 0
            assert futures  # shedding is partial, not total
            for future in futures:
                assert future.result(timeout=120).shape[1] == 3

    def test_blocking_intake_never_sheds(self, gin_model, subgraphs):
        with make_pool(gin_model, queue_capacity=1) as pool:
            futures = [pool.submit(sub) for sub in subgraphs]
            for future in futures:
                future.result(timeout=120)
            assert pool.stats().requests == len(subgraphs)


class TestShutdownOrdering:
    def test_shutdown_drains_queued_requests(self, gin_model, subgraphs):
        # Requests queued behind a stalled round when shutdown lands must
        # still be served by the drain, not stranded.
        plan = stalled_first_round()
        pool = make_pool(gin_model, batch_size=2, fault_plan=plan)
        futures = [pool.submit(sub) for sub in subgraphs]
        pool.shutdown()
        assert plan.fires("slow_shard") == 1
        for sub, future in zip(subgraphs, futures):
            logits = future.result(timeout=0)  # settled by the drain
            assert logits.shape == (sub.num_nodes, 3)
        pool.shutdown()  # idempotent

    def test_sentinel_behind_a_backlog_ends_the_round_it_lands_in(
        self, gin_model, subgraphs
    ):
        # Shutdown lands while the first round stalls, so its sentinel
        # queues right behind the backlog: the round that takes the
        # backlog also takes the sentinel, executes, and the worker stops.
        head, a, b, c = subgraphs[3], subgraphs[0], subgraphs[1], subgraphs[2]
        plan = stalled_first_round()
        pool = make_pool(gin_model, batch_size=8, fault_plan=plan)
        rounds = record_rounds(pool)
        futures = queue_behind_stall(pool, plan, head, [a, b, c])
        pool.shutdown()
        assert all(future.done() for future in futures)
        assert rounds == [
            [head.num_nodes], [a.num_nodes, b.num_nodes, c.num_nodes]
        ]

    def test_submit_after_shutdown_is_refused(self, gin_model, subgraphs):
        pool = make_pool(gin_model)
        pool.shutdown()
        with pytest.raises(ConfigError):
            pool.submit(subgraphs[0])

    def test_submits_racing_shutdown_are_served_or_refused(
        self, gin_model, subgraphs
    ):
        # The intake/shutdown race has exactly two legal outcomes per
        # request: a ConfigError at submit, or a future that settles.
        # A future that never settles (stranded on a drained queue) is
        # the bug this test exists to catch.
        pool = make_pool(gin_model, workers=2)
        accepted: list = []
        stop = threading.Event()

        def submitter() -> None:
            i = 0
            while not stop.is_set():
                try:
                    accepted.append(
                        pool.submit(subgraphs[i % len(subgraphs)])
                    )
                except ConfigError:
                    return
                i += 1

        threads = [threading.Thread(target=submitter) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.3)
        pool.shutdown()
        stop.set()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert accepted
        for future in accepted:
            logits = future.result(timeout=60)
            assert isinstance(logits, np.ndarray)

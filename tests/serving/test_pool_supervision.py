"""Tests for pool worker supervision: respawn, re-queue, WorkerDied."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.errors import WorkerDied
from repro.faultinject import FaultPlan, FaultSpec
from repro.gnn import make_batched_gin
from repro.gnn.quantized import ActivationCalibration
from repro.graph import induced_subgraphs
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.serving import PoolConfig, ServingConfig, ServingPool
from repro.serving.engine import InferenceEngine
from repro.serving.pool import PoolResult


@pytest.fixture
def subgraphs(rng):
    g = planted_partition_graph(
        160, 1000, num_communities=8, feature_dim=8, num_classes=3, rng=rng
    )
    return induced_subgraphs(g, metis_like_partition(g, 8))


@pytest.fixture
def gin_model(subgraphs):
    g = subgraphs[0].graph
    return make_batched_gin(g.features.shape[1], 3, hidden_dim=8, seed=3)


def wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


def crash_holding_an_overflow(pool, plan, subgraphs):
    """Stall the first round while three requests queue, then kill the
    worker on the second.  Under a one-member cap that round takes the
    first queued request and already holds the second, which overflowed
    it; the third is still queued.  Returns (first future, the rest)."""
    head = pool.submit(subgraphs[0])
    wait_until(lambda: plan.probes("slow_shard") == 1)
    return head, [pool.submit(sg) for sg in subgraphs[1:4]]


def stall_then_kill() -> FaultPlan:
    return FaultPlan(
        seed=0,
        specs=[
            FaultSpec("slow_shard", at=(0,), delay_s=0.5),
            FaultSpec("worker", at=(1,)),
        ],
    )


class TestSettleIdempotence:
    def test_first_settle_wins(self):
        handle = PoolResult(0, "w0")
        handle._fill(np.ones((1, 2)))
        handle._fail(RuntimeError("late duplicate"))
        assert handle.exception() is None
        assert np.array_equal(handle.result(), np.ones((1, 2)))

    def test_duplicate_settle_runs_no_extra_callbacks(self):
        handle = PoolResult(0, "w0")
        calls = []
        handle.add_done_callback(lambda settled: calls.append(settled))
        handle._fill(np.zeros((1, 1)))
        handle._fill(np.ones((1, 1)))
        assert len(calls) == 1
        assert np.array_equal(handle.result(), np.zeros((1, 1)))


class TestSupervisedRespawn:
    def test_worker_kill_is_recovered_bit_identically(
        self, gin_model, subgraphs
    ):
        config = ServingConfig(feature_bits=2, batch_size=2)
        calibration = ActivationCalibration()
        reference = InferenceEngine(gin_model, config, calibration=calibration)
        expected = [reference.infer_one(sg).logits for sg in subgraphs]

        # The worker site probes once per drained round, in _execute;
        # index 1 is the second round's probe — it fires with requests in
        # flight, so the respawn must re-queue them.
        plan = FaultPlan(seed=0, specs=[FaultSpec("worker", at=(1,))])
        with ServingPool(
            gin_model,
            config,
            pool=PoolConfig(workers=2, supervise_interval_s=0.01),
            calibration=calibration,
            fault_plan=plan,
        ) as pool:
            results = pool.serve(subgraphs)
            for sg, result, want in zip(subgraphs, results, expected):
                assert np.array_equal(result.result(), want)
            stats = pool.stats()
        assert plan.fires("worker") == 1
        assert stats.respawns >= 1
        assert stats.requeued >= 1

    def test_submits_across_the_crash_survive(self, gin_model, subgraphs):
        config = ServingConfig(feature_bits=2, batch_size=1)
        plan = FaultPlan(seed=0, specs=[FaultSpec("worker", at=(1,))])
        with ServingPool(
            gin_model,
            config,
            pool=PoolConfig(workers=1, supervise_interval_s=0.01),
            fault_plan=plan,
        ) as pool:
            # All futures must settle successfully even though the lone
            # worker dies mid-stream: its queue is taken over in place.
            futures = [pool.submit(sg) for sg in subgraphs * 2]
            for future in futures:
                assert future.result(timeout=30) is not None
            assert pool.stats().respawns == 1

    def test_respawned_worker_remounts_shared_weight_segment(
        self, gin_model, subgraphs
    ):
        config = ServingConfig(feature_bits=2, batch_size=2)
        plan = FaultPlan(seed=0, specs=[FaultSpec("worker", at=(1,))])
        with ServingPool(
            gin_model,
            config,
            pool=PoolConfig(workers=1, supervise_interval_s=0.01),
            fault_plan=plan,
        ) as pool:
            table = pool.workers[0].dispatch_table
            pool.serve(subgraphs)
            wait_until(lambda: pool.stats().respawns == 1)
            assert pool.workers[0].weight_cache is pool._weight_segment
            # ... and the pool's table: the respawned shard prices from
            # everything measured before the crash, from its first round.
            assert pool.workers[0].dispatch_table is table
            assert table.sample_count() > 0

    @pytest.mark.timeout(120)
    def test_respawn_drains_a_full_queue_behind_a_blocking_submit(
        self, gin_model, subgraphs
    ):
        # The first round stalls; meanwhile one request fills the one-slot
        # queue and three blocking submitters park behind it, the first
        # holding the intake lock.  The second round kills the worker,
        # which leaves the queue full again with a submitter still parked
        # — only the replacement can drain it, so respawn must not wait
        # for the intake lock that submitter holds.
        plan = stall_then_kill()
        pool = ServingPool(
            gin_model,
            ServingConfig(feature_bits=2, batch_size=1),
            pool=PoolConfig(workers=1, queue_capacity=1, supervise_interval_s=0.01),
            fault_plan=plan,
        )
        futures = [pool.submit(subgraphs[0])]
        wait_until(lambda: plan.probes("slow_shard") == 1)
        # Daemons: a regression fails the joins below instead of hanging
        # the interpreter's exit.
        submitters = [
            threading.Thread(
                target=lambda sg=sg: futures.append(pool.submit(sg)), daemon=True
            )
            for sg in subgraphs[1:5]
        ]
        for thread in submitters:
            thread.start()
        for thread in submitters:
            thread.join(timeout=30)
            assert not thread.is_alive()
        for future in futures:
            assert future.result(timeout=30) is not None
        assert len(futures) == 5
        assert plan.fires("worker") == 1
        assert pool.stats().respawns == 1
        stopper = threading.Thread(target=pool.shutdown, daemon=True)
        stopper.start()
        stopper.join(timeout=30)
        assert not stopper.is_alive()

    def test_overflow_request_held_across_a_crash_is_requeued(
        self, gin_model, subgraphs
    ):
        plan = stall_then_kill()
        with ServingPool(
            gin_model,
            ServingConfig(feature_bits=2, batch_size=1),
            pool=PoolConfig(workers=1, supervise_interval_s=0.01),
            fault_plan=plan,
        ) as pool:
            head, backlog = crash_holding_an_overflow(pool, plan, subgraphs)
            for future in [head, *backlog]:
                assert future.result(timeout=30) is not None
            stats = pool.stats()
        assert plan.fires("worker") == 1
        # The dying round's member and the overflow it held; the third
        # request never left the queue the replacement took over.
        assert (stats.respawns, stats.requeued) == (1, 2)


class TestUnsupervisedCrash:
    def make_pool(self, model, plan):
        return ServingPool(
            model,
            ServingConfig(feature_bits=2, batch_size=1),
            pool=PoolConfig(workers=1, supervise=False),
            fault_plan=plan,
        )

    def test_crash_fails_queued_futures_with_worker_died(
        self, gin_model, subgraphs
    ):
        plan = FaultPlan(seed=0, specs=[FaultSpec("worker", at=(1,))])
        pool = self.make_pool(gin_model, plan)
        try:
            futures = [pool.submit(sg) for sg in subgraphs]
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result(timeout=30))
                except WorkerDied as exc:
                    outcomes.append(exc)
            # The drain loop died mid-stream: nothing hangs, and at
            # least one stranded future surfaced WorkerDied with the
            # injected fault as its cause.
            died = [o for o in outcomes if isinstance(o, WorkerDied)]
            assert died, "no future surfaced WorkerDied"
            assert "injected worker fault" in repr(died[0].__cause__)
        finally:
            pool.shutdown()

    def test_crash_fails_the_overflow_request_it_held(self, gin_model, subgraphs):
        plan = stall_then_kill()
        pool = self.make_pool(gin_model, plan)
        try:
            head, backlog = crash_holding_an_overflow(pool, plan, subgraphs)
            assert head.result(timeout=30) is not None
            # In flight, held as the next round's first, and still queued:
            # each surfaces WorkerDied, none is stranded.
            for future in backlog:
                with pytest.raises(WorkerDied):
                    future.result(timeout=30)
        finally:
            pool.shutdown()

    def test_submit_to_dead_shard_fast_fails(self, gin_model, subgraphs):
        plan = FaultPlan(seed=0, specs=[FaultSpec("worker", at=(0,))])
        pool = self.make_pool(gin_model, plan)
        try:
            future = pool.submit(subgraphs[0])
            with pytest.raises(WorkerDied):
                future.result(timeout=30)
            wait_until(lambda: pool._workers[0].died is not None)
            with pytest.raises(WorkerDied):
                pool.submit(subgraphs[1])
        finally:
            pool.shutdown()


class TestSlowShard:
    def test_slow_shard_delays_but_serves(self, gin_model, subgraphs):
        plan = FaultPlan(
            seed=0, specs=[FaultSpec("slow_shard", at=(0,), delay_s=0.05)]
        )
        with ServingPool(
            gin_model,
            ServingConfig(feature_bits=2, batch_size=2),
            pool=PoolConfig(workers=1),
            fault_plan=plan,
        ) as pool:
            results = pool.serve(subgraphs)
            assert all(r.done() for r in results)
        assert plan.fires("slow_shard") == 1


class TestStatsPlumbing:
    def test_reliability_counters_default_to_zero(self, gin_model, subgraphs):
        with ServingPool(
            gin_model,
            ServingConfig(feature_bits=2, batch_size=2),
            pool=PoolConfig(workers=2),
        ) as pool:
            pool.serve(subgraphs)
            stats = pool.stats()
        assert stats.step_retries == 0
        assert stats.quarantines == 0
        assert stats.respawns == 0
        assert stats.requeued == 0
        assert stats.poisoned_discards == 0
        assert all(w.step_retries == 0 for w in stats.per_worker)

    def test_shared_health_is_pool_wide(self, gin_model):
        pool = ServingPool(
            gin_model,
            ServingConfig(feature_bits=2),
            pool=PoolConfig(workers=2),
        )
        try:
            engines = pool.workers
            assert engines[0].health is pool.health
            assert engines[1].health is pool.health
        finally:
            pool.shutdown()

    def test_bad_supervise_interval_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            PoolConfig(supervise_interval_s=0.0)
        with pytest.raises(ConfigError):
            PoolConfig(supervise_interval_s=float("nan"))

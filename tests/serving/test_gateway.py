"""Tests for the async serving gateway.

Covers admission control with fast-fail backpressure
(``PoolSaturated``) and first-come wakeup, home-shard routing (a skewed
burst stays home), the thread → event-loop bridge
(``PoolResult.add_done_callback``), lone requests served on the caller's
thread, and the invariant that every gateway decision is a latency
decision: results stay bit-identical to a single engine under a shared
calibration.
"""

from __future__ import annotations

import asyncio
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConfigError, PoolSaturated, ShapeError
from repro.faultinject import FaultPlan, FaultSpec
from repro.gnn import make_batched_gin
from repro.gnn.quantized import ActivationCalibration
from repro.graph import CSRGraph, induced_subgraphs
from repro.graph.batching import Subgraph
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.serving import (
    GatewayConfig,
    GatewayResult,
    InferenceEngine,
    PoolConfig,
    PoolResult,
    ServingConfig,
    ServingGateway,
    ServingPool,
)

#: Deadlock guard: a lost wakeup or stranded future fails fast instead of
#: hanging the suite (see tests/conftest.py for the plugin-less fallback).
pytestmark = pytest.mark.timeout(120)


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


def make_pool(model, config=None, *, calibration=None, **pool_kwargs):
    pool_kwargs.setdefault("workers", 2)
    return ServingPool(
        model,
        config or ServingConfig(feature_bits=8, batch_size=4),
        pool=PoolConfig(**pool_kwargs),
        calibration=calibration,
    )


def gate_only() -> SimpleNamespace:
    """A stand-in pool for admission-gate unit tests.

    The gate touches nothing of the pool, so its semantics can be tested
    without standing up worker threads.
    """
    return SimpleNamespace()


class TestGatewayConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_in_flight": 0},
            {"max_retries": -1},
            {"retry_backoff_s": -0.001},
            {"queue_timeout_s": -0.1},
            {"queue_timeout_s": float("nan")},
            {"retry_backoff_s": float("inf")},
            {"retry_jitter": float("nan")},
            {"retry_jitter": -0.5},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ConfigError):
            GatewayConfig(**kwargs)

    def test_config_errors_are_value_errors(self):
        # Callers that only know stdlib exceptions can still catch these.
        with pytest.raises(ValueError):
            GatewayConfig(max_in_flight=0)


class TestAdmissionGate:
    def test_fast_path_admits_up_to_budget(self):
        async def scenario():
            gw = ServingGateway(
                gate_only(), GatewayConfig(max_in_flight=2, queue_timeout_s=0.01)
            )
            await gw._acquire()
            await gw._acquire()
            assert gw.in_flight == 2
            with pytest.raises(PoolSaturated):
                await gw._acquire()
            assert gw.in_flight == 2  # the shed request holds no slot
            gw._release()
            assert gw.in_flight == 1

        asyncio.run(scenario())

    def test_freed_slots_wake_waiters_in_fifo_order(self):
        async def scenario():
            gw = ServingGateway(
                gate_only(),
                GatewayConfig(max_in_flight=2, queue_timeout_s=5.0),
            )
            await gw._acquire()
            await gw._acquire()
            order: list[str] = []

            async def wait(name):
                await gw._acquire()
                order.append(name)

            first = asyncio.ensure_future(wait("first"))
            await asyncio.sleep(0)  # first queues first
            second = asyncio.ensure_future(wait("second"))
            await asyncio.sleep(0)
            assert order == []
            gw._release()
            await asyncio.sleep(0.05)
            assert order == ["first"]
            assert gw.in_flight == 2
            gw._release()
            await asyncio.sleep(0.05)
            assert order == ["first", "second"]
            await asyncio.gather(first, second)
            gw._release()
            gw._release()
            assert gw.in_flight == 0

        asyncio.run(scenario())


class TestPoolResultBridge:
    def test_exception_is_none_until_settled(self):
        handle = PoolResult(0, "w0")
        assert not handle.done()
        assert handle.exception() is None
        handle._fail(RuntimeError("worker died"))
        assert isinstance(handle.exception(), RuntimeError)
        with pytest.raises(RuntimeError):
            handle.result(timeout=0)

    def test_callback_before_and_after_settle_runs_exactly_once(self):
        seen: list[PoolResult] = []
        handle = PoolResult(0, "w0")
        handle.add_done_callback(seen.append)
        assert seen == []
        handle._fill(np.zeros((1, 3)))
        assert seen == [handle]
        handle.add_done_callback(seen.append)  # late: runs immediately
        assert seen == [handle, handle]
        assert handle.exception() is None

    def test_bridge_resolves_from_worker_thread(self):
        async def scenario():
            handle = PoolResult(7, "w1")
            fut = ServingGateway._bridge(handle)
            threading.Thread(
                target=handle._fill, args=(np.ones((2, 3)),)
            ).start()
            settled = await asyncio.wait_for(fut, timeout=10)
            assert settled is handle
            np.testing.assert_array_equal(settled.logits, np.ones((2, 3)))

        asyncio.run(scenario())

    def test_bridge_propagates_worker_error(self):
        async def scenario():
            handle = PoolResult(8, "w0")
            fut = ServingGateway._bridge(handle)
            threading.Thread(
                target=handle._fail, args=(RuntimeError("boom"),)
            ).start()
            with pytest.raises(RuntimeError, match="boom"):
                await asyncio.wait_for(fut, timeout=10)

        asyncio.run(scenario())


class TestGatewayServing:
    def test_bit_identical_to_single_engine(self, gin_model, subgraphs):
        # Freeze calibration through a single session, then serve the same
        # workload through the gateway: admission, routing and coalescing
        # may differ — the bits may not.
        calibration = ActivationCalibration()
        engine = InferenceEngine(
            gin_model,
            ServingConfig(feature_bits=8, batch_size=4),
            calibration=calibration,
        )
        expected = engine.infer(subgraphs)
        with make_pool(gin_model, calibration=calibration) as pool:
            gateway = ServingGateway(pool, GatewayConfig(max_in_flight=16))
            results = gateway.run(subgraphs)
        assert all(isinstance(r, GatewayResult) for r in results)
        for want, got in zip(expected, results):
            np.testing.assert_array_equal(got.logits, want.logits)
            assert got.latency_s > 0

    def test_sheds_excess_under_overload(self, gin_model, subgraphs):
        with make_pool(gin_model) as pool:
            gateway = ServingGateway(
                pool, GatewayConfig(max_in_flight=1, queue_timeout_s=0.0)
            )
            results = gateway.run(subgraphs, return_exceptions=True)
            served = [r for r in results if isinstance(r, GatewayResult)]
            shed = [r for r in results if isinstance(r, PoolSaturated)]
            assert len(served) + len(shed) == len(subgraphs)
            assert served and shed  # bounded latency, not bounded success
            stats = gateway.stats()
            assert stats.submitted == len(subgraphs)
            assert stats.completed == len(served)
            assert stats.rejected == len(shed)
            assert 0.0 < stats.rejection_rate < 1.0
            assert stats.in_flight == 0

    def test_lone_requests_are_served_in_place(self, gin_model, subgraphs):
        async def one_at_a_time(gateway):
            return [await gateway.submit(sub) for sub in subgraphs[:3]]

        for workers in (1, 2):
            with make_pool(gin_model, workers=workers) as pool:
                gateway = ServingGateway(pool, GatewayConfig(max_in_flight=8))
                results = asyncio.run(one_at_a_time(gateway))
            assert gateway.stats().as_metrics()["caller_served"] == 3
            for sub, got in zip(subgraphs, results):
                assert got.worker == f"w{pool.shard_of(sub)}"

    def test_a_failed_caller_served_round_is_retried_in_place(
        self, gin_model, subgraphs
    ):
        # The first plan compile fails retryably: the in-place round
        # settles with the error, the gateway retries, and the retry —
        # again alone on an idle shard — runs in place and serves the bits.
        calibration = ActivationCalibration()
        config = ServingConfig(feature_bits=8, batch_size=4)
        want = InferenceEngine(gin_model, config, calibration=calibration).infer_one(
            subgraphs[0]
        )
        plan = FaultPlan(seed=0, specs=[FaultSpec("compile", at=(0,))])
        with ServingPool(
            gin_model, config, pool=PoolConfig(workers=2),
            calibration=calibration, fault_plan=plan,
        ) as pool:
            gateway = ServingGateway(pool, GatewayConfig(max_retries=2))
            reply = asyncio.run(gateway.submit(subgraphs[0]))
        np.testing.assert_array_equal(reply.logits, want.logits)
        assert plan.fires("compile") == 1
        stats = gateway.stats()
        assert stats.retries == 1 and stats.failures == 0
        assert stats.caller_served == 2

    def test_a_caller_served_error_surfaces_and_the_shard_keeps_serving(
        self, gin_model, subgraphs
    ):
        featureless = Subgraph(
            graph=CSRGraph(
                indptr=subgraphs[0].graph.indptr,
                indices=subgraphs[0].graph.indices,
            ),
            original_nodes=subgraphs[0].original_nodes,
        )
        with make_pool(gin_model) as pool:
            gateway = ServingGateway(pool)
            with pytest.raises(ShapeError):
                asyncio.run(gateway.submit(featureless))
            reply = asyncio.run(gateway.submit(subgraphs[0]))
            assert reply.logits.shape == (subgraphs[0].num_nodes, 3)
        stats = gateway.stats()
        assert stats.failures == 1 and stats.completed == 1
        assert stats.caller_served == 2

    def test_a_skewed_burst_stays_home(self, gin_model, subgraphs):
        """Every request of a burst hashes to one shard, which is stalled
        while the burst queues on it: all of them run there, the other
        shard serves nothing, and the bits are a single engine's."""
        config = ServingConfig(feature_bits=8, batch_size=4)
        calibration = ActivationCalibration()
        engine = InferenceEngine(gin_model, config, calibration=calibration)
        engine.infer(subgraphs)  # freeze every calibration site
        plan = FaultPlan(
            seed=0, specs=[FaultSpec("slow_shard", at=(0,), delay_s=0.2)]
        )
        with ServingPool(
            gin_model, config, pool=PoolConfig(workers=2),
            calibration=calibration, fault_plan=plan,
        ) as pool:
            home = pool.shard_of(subgraphs[0])
            skewed = [s for s in subgraphs if pool.shard_of(s) == home]
            burst = (skewed * 24)[:24]
            gateway = ServingGateway(pool, GatewayConfig(max_in_flight=32))
            results = gateway.run(burst)
            stats = pool.stats()
        assert plan.fires("slow_shard") == 1
        assert [r.worker for r in results] == [f"w{home}"] * len(burst)
        assert stats.per_worker[home].requests == len(burst)
        assert stats.per_worker[1 - home].requests == 0
        assert gateway.stats().caller_served == 0
        expected = InferenceEngine(
            gin_model, config, calibration=calibration
        ).infer(burst)
        for want, got in zip(expected, results):
            np.testing.assert_array_equal(got.logits, want.logits)

"""Tests for the async serving gateway.

Covers the PR 6 acceptance points: admission control with fast-fail
backpressure (``PoolSaturated``), priority lanes with interactive-first
wakeup, the pure queue-depth routing rule and its live re-routing path,
request hedging (and its single-worker no-op), the thread → event-loop
bridge (``PoolResult.add_done_callback``), and the invariant that every
gateway decision is a latency decision: results stay bit-identical to a
single engine under a shared calibration.
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
    LANES,
    GatewayConfig,
    GatewayResult,
    InferenceEngine,
    PoolConfig,
    PoolResult,
    ServingConfig,
    ServingGateway,
    ServingPool,
    route_shard,
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


def gate_only(workers: int = 2) -> SimpleNamespace:
    """A stand-in pool for admission-gate unit tests.

    The gate touches nothing but ``pool_config``, so its semantics can be
    tested without standing up worker threads.
    """
    return SimpleNamespace(pool_config=SimpleNamespace(workers=workers))


class TestGatewayConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_in_flight": 0},
            {"interactive_reserve": -1},
            {"max_in_flight": 8, "interactive_reserve": 8},
            {"queue_timeout_s": -0.1},
            {"queue_timeout_s": float("nan")},
            {"hedge_after_s": -0.5},
            {"hedge_after_s": float("inf")},
            {"imbalance_threshold": 0},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ConfigError):
            GatewayConfig(**kwargs)

    def test_config_errors_are_value_errors(self):
        # Callers that only know stdlib exceptions can still catch these.
        with pytest.raises(ValueError):
            GatewayConfig(max_in_flight=0)

    def test_default_reserve_scales_with_budget(self):
        # An eighth of the budget, so every max_in_flight works out of
        # the box — including budgets smaller than any fixed reserve.
        assert GatewayConfig(max_in_flight=64).effective_interactive_reserve == 8
        assert GatewayConfig(max_in_flight=4).effective_interactive_reserve == 0
        assert (
            GatewayConfig(max_in_flight=64, interactive_reserve=3)
            .effective_interactive_reserve
            == 3
        )


class TestRouteShard:
    def test_balanced_stays_home(self):
        assert route_shard(1, (3, 3, 3), threshold=2) == 1

    def test_reroutes_past_threshold(self):
        assert route_shard(0, (11, 2, 5), threshold=8) == 1

    def test_boundary_gap_equal_to_threshold_stays_home(self):
        # The rule is strictly "more than threshold deeper".
        assert route_shard(0, (10, 2), threshold=8) == 0
        assert route_shard(0, (11, 2), threshold=8) == 1

    def test_ties_go_to_lowest_index(self):
        assert route_shard(2, (4, 4, 40), threshold=8) == 0

    def test_none_threshold_pins_home(self):
        assert route_shard(0, (100, 0), threshold=None) == 0

    def test_single_shard_pins_home(self):
        assert route_shard(0, (100,), threshold=1) == 0


class TestAdmissionGate:
    def test_fast_path_admits_up_to_budget(self):
        async def scenario():
            gw = ServingGateway(
                gate_only(), GatewayConfig(max_in_flight=2, queue_timeout_s=0.01)
            )
            await gw._acquire("interactive")
            await gw._acquire("interactive")
            assert gw.in_flight == 2
            with pytest.raises(PoolSaturated):
                await gw._acquire("interactive")
            assert gw.in_flight == 2  # the shed request holds no slot
            gw._release()
            assert gw.in_flight == 1

        asyncio.run(scenario())

    def test_batch_lane_capped_while_interactive_admits(self):
        async def scenario():
            gw = ServingGateway(
                gate_only(),
                GatewayConfig(
                    max_in_flight=2, interactive_reserve=1, queue_timeout_s=0.01
                ),
            )
            await gw._acquire("interactive")
            # batch cap = max_in_flight - reserve = 1; one slot is taken.
            with pytest.raises(PoolSaturated):
                await gw._acquire("batch")
            # The reserved headroom still admits interactive traffic.
            await gw._acquire("interactive")
            assert gw.in_flight == 2

        asyncio.run(scenario())

    def test_freed_slots_wake_interactive_first(self):
        async def scenario():
            gw = ServingGateway(
                gate_only(),
                GatewayConfig(
                    max_in_flight=2, interactive_reserve=1, queue_timeout_s=5.0
                ),
            )
            await gw._acquire("interactive")
            await gw._acquire("interactive")
            order: list[str] = []

            async def wait(lane):
                await gw._acquire(lane)
                order.append(lane)

            batch = asyncio.ensure_future(wait("batch"))
            await asyncio.sleep(0)  # batch queues first
            interactive = asyncio.ensure_future(wait("interactive"))
            await asyncio.sleep(0)
            assert order == []
            gw._release()
            await asyncio.sleep(0.05)
            # Interactive jumped the longer-waiting batch request.
            assert order == ["interactive"]
            # Batch needs in_flight < 1 (its cap), i.e. both other
            # holders gone — the reserve at work.
            gw._release()
            await asyncio.sleep(0.05)
            assert order == ["interactive"]
            gw._release()
            await asyncio.sleep(0.05)
            assert order == ["interactive", "batch"]
            await asyncio.gather(batch, interactive)

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
            assert got.lane == "interactive"

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

    def test_batch_lane_serves_end_to_end(self, gin_model, subgraphs):
        with make_pool(gin_model) as pool:
            gateway = ServingGateway(pool, GatewayConfig(max_in_flight=16))
            results = gateway.run(subgraphs[:4], lane="batch")
            assert all(r.lane == "batch" for r in results)
            lane = gateway.stats().per_lane["batch"]
            assert lane.completed == 4
            assert lane.latency_p50_s > 0
            assert set(gateway.stats().per_lane) == set(LANES)

    def test_rejects_bad_lane(self, gin_model, subgraphs):
        with make_pool(gin_model) as pool:
            gateway = ServingGateway(pool)

            async def scenario():
                with pytest.raises(ConfigError):
                    await gateway.submit(subgraphs[0], lane="bulk")

            asyncio.run(scenario())
            assert pool.stats().requests == 0

    def test_hedging_launches_and_stays_bit_identical(
        self, gin_model, subgraphs
    ):
        calibration = ActivationCalibration()
        engine = InferenceEngine(
            gin_model,
            ServingConfig(feature_bits=8, batch_size=4),
            calibration=calibration,
        )
        expected = engine.infer(subgraphs)
        with make_pool(gin_model, calibration=calibration) as pool:
            gateway = ServingGateway(
                pool,
                GatewayConfig(max_in_flight=16, hedge_after_s=0.0),
            )
            results = gateway.run(subgraphs)
            stats = gateway.stats()
        # hedge_after_s=0 hedges every request that does not finish in
        # one tick, so hedges must have launched — and whoever wins,
        # the logits are the logits.
        assert stats.hedges_launched > 0
        assert 0 <= stats.hedges_won <= stats.hedges_launched
        for want, got in zip(expected, results):
            np.testing.assert_array_equal(got.logits, want.logits)
            assert got.hedged or not got.hedge_won

    def test_single_worker_pool_never_hedges(self, gin_model, subgraphs):
        with make_pool(gin_model, workers=1) as pool:
            gateway = ServingGateway(
                pool, GatewayConfig(max_in_flight=8, hedge_after_s=0.0)
            )
            results = gateway.run(subgraphs[:4])
            assert gateway.stats().hedges_launched == 0
            assert all(not r.hedged for r in results)

    def test_lone_requests_are_served_in_place_unless_they_may_hedge(
        self, gin_model, subgraphs
    ):
        async def one_at_a_time(gateway):
            return [await gateway.submit(sub) for sub in subgraphs[:3]]

        with make_pool(gin_model) as pool:
            plain = ServingGateway(pool, GatewayConfig(max_in_flight=8))
            hedging = ServingGateway(
                pool, GatewayConfig(max_in_flight=8, hedge_after_s=5.0)
            )
            asyncio.run(one_at_a_time(plain))
            asyncio.run(one_at_a_time(hedging))
        assert plain.stats().as_metrics()["caller_served"] == 3
        assert hedging.stats().caller_served == 0
        # A single worker never hedges, so its lone requests run in place
        # whatever hedge_after_s says.
        with make_pool(gin_model, workers=1) as pool:
            lone = ServingGateway(
                pool, GatewayConfig(max_in_flight=8, hedge_after_s=0.0)
            )
            results = asyncio.run(one_at_a_time(lone))
        assert lone.stats().caller_served == 3
        assert not any(r.hedged for r in results)

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

    def test_depth_router_moves_requests_off_congested_home(
        self, gin_model, subgraphs
    ):
        with make_pool(gin_model) as pool:
            gateway = ServingGateway(
                pool, GatewayConfig(max_in_flight=8, imbalance_threshold=2)
            )
            # Pin the policy inputs: home is always shard 0, whose queue
            # reads far deeper than shard 1's — the router must move the
            # request, and a foreign shard must still serve it.
            pool.shard_of = lambda subgraph, seq=None: 0
            pool.queue_depths = lambda: (100, 0)
            result = gateway.run(subgraphs[:1])[0]
            assert result.rerouted
            assert result.worker == "w1"
            assert gateway.stats().rerouted == 1
            assert result.logits.shape == (subgraphs[0].num_nodes, 3)

    def test_none_threshold_never_reroutes(self, gin_model, subgraphs):
        with make_pool(gin_model) as pool:
            gateway = ServingGateway(
                pool, GatewayConfig(max_in_flight=8, imbalance_threshold=None)
            )
            pool.queue_depths = lambda: (100, 0)
            results = gateway.run(subgraphs[:4])
            assert gateway.stats().rerouted == 0
            assert all(not r.rerouted for r in results)

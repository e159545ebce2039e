"""Tests for gateway failure paths: retry bounds and error propagation.

Complements ``test_gateway.py`` (happy paths) with the failure-side
contract: retry exhaustion surfaces the *last* attempt's error after exactly
``max_retries`` re-dispatches, saturation is never retried, and
``serve(..., return_exceptions=True)`` propagates a worker-side
``PoolResult`` error as a list entry instead of aborting the gather.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import PoolSaturated, ShapeError
from repro.serving import (
    GatewayConfig,
    GatewayResult,
    PoolResult,
    ServingGateway,
)

pytestmark = pytest.mark.timeout(120)


class ScriptedPool:
    """Stand-in pool whose ``submit`` outcomes are scripted by the test.

    Each ``submit`` pops the next script entry: an exception instance
    fails the handed-back :class:`PoolResult`, an ndarray fills it, and
    ``None`` leaves it unsettled for the test to settle explicitly.
    With an empty script every handle is left unsettled.
    """

    def __init__(self, script=()):
        self.script = list(script)
        self.handles: list[PoolResult] = []
        self.fail_submit_with: Exception | None = None

    def shard_of(self, subgraph, seq=None):
        return 0  # every request's home is shard 0

    def serve_if_idle(self, subgraph, shard):
        return None  # never idle: every dispatch takes the scripted submit

    def submit(self, subgraph, *, shard=None, block=True):
        if self.fail_submit_with is not None:
            raise self.fail_submit_with
        handle = PoolResult(len(self.handles), f"w{shard}")
        self.handles.append(handle)
        outcome = self.script.pop(0) if self.script else None
        if isinstance(outcome, BaseException):
            handle._fail(outcome)
        elif outcome is not None:
            handle._fill(outcome)
        return handle


REQUEST = object()  # the gateway never inspects the subgraph itself


class TestBoundedRetry:
    def run_submit(self, gateway):
        return asyncio.run(gateway.submit(REQUEST))

    def test_retry_recovers_a_transient_failure(self):
        pool = ScriptedPool([RuntimeError("transient"), np.ones((2, 3))])
        gateway = ServingGateway(
            pool, GatewayConfig(max_retries=2, retry_backoff_s=0.0)
        )
        result = self.run_submit(gateway)
        assert isinstance(result, GatewayResult)
        assert np.array_equal(result.logits, np.ones((2, 3)))
        stats = gateway.stats()
        assert stats.retries == 1
        assert stats.completed == 1
        assert stats.failures == 0
        assert len(pool.handles) == 2

    def test_exhaustion_surfaces_the_last_attempts_error(self):
        pool = ScriptedPool(
            [RuntimeError("a1"), RuntimeError("a2"), RuntimeError("a3")]
        )
        gateway = ServingGateway(
            pool, GatewayConfig(max_retries=2, retry_backoff_s=0.0)
        )
        with pytest.raises(RuntimeError, match="a3"):
            self.run_submit(gateway)
        stats = gateway.stats()
        assert len(pool.handles) == 3  # the original + exactly two retries
        assert stats.retries == 2
        assert stats.failures == 1
        assert stats.rejected == 0

    def test_non_retryable_error_fails_immediately(self):
        pool = ScriptedPool([ShapeError("malformed")])
        gateway = ServingGateway(
            pool, GatewayConfig(max_retries=5, retry_backoff_s=0.0)
        )
        with pytest.raises(ShapeError):
            self.run_submit(gateway)
        stats = gateway.stats()
        assert len(pool.handles) == 1  # every retry would fail identically
        assert stats.retries == 0
        assert stats.failures == 1

    def test_saturation_is_shed_not_retried(self):
        pool = ScriptedPool()
        pool.fail_submit_with = PoolSaturated("shard queue full")
        gateway = ServingGateway(
            pool, GatewayConfig(max_retries=5, retry_backoff_s=0.0)
        )
        with pytest.raises(PoolSaturated):
            self.run_submit(gateway)
        stats = gateway.stats()
        assert stats.rejected == 1
        assert stats.retries == 0
        assert stats.failures == 0  # shed, not failed

    def test_retry_delay_is_seeded_exponential(self):
        pool = ScriptedPool()
        config = GatewayConfig(
            max_retries=3, retry_backoff_s=0.01, retry_jitter=0.5, retry_seed=7
        )
        a = ServingGateway(pool, config)
        b = ServingGateway(pool, config)
        delays_a = [a._retry_delay(n) for n in (1, 2, 3)]
        delays_b = [b._retry_delay(n) for n in (1, 2, 3)]
        assert delays_a == delays_b  # same seed: identical backoff
        for n, delay in enumerate(delays_a, start=1):
            base = 0.01 * 2 ** (n - 1)
            assert base <= delay <= base * 1.5


class TestServeExceptionPropagation:
    def test_worker_error_appears_in_place(self):
        pool = ScriptedPool(
            [np.ones((2, 3)), ShapeError("bad shape"), np.ones((2, 3))]
        )
        gateway = ServingGateway(pool, GatewayConfig(max_in_flight=8))
        results = asyncio.run(
            gateway.serve([REQUEST] * 3, return_exceptions=True)
        )
        assert isinstance(results[0], GatewayResult)
        assert isinstance(results[1], ShapeError)
        assert isinstance(results[2], GatewayResult)
        stats = gateway.stats()
        assert stats.completed == 2
        assert stats.failures == 1

    def test_without_return_exceptions_the_gather_raises(self):
        pool = ScriptedPool([ShapeError("bad shape")])
        gateway = ServingGateway(pool, GatewayConfig(max_in_flight=8))
        with pytest.raises(ShapeError):
            asyncio.run(gateway.serve([REQUEST]))

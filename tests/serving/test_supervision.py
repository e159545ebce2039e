"""Tests for backend health tracking and bit-identical step recovery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    ConfigError,
    FatalError,
    InjectedFault,
    PoolSaturated,
    QGTCError,
    RetryableError,
    ShapeError,
    WorkerDied,
    is_retryable,
)
from repro.faultinject import FaultPlan, FaultSpec
from repro.gnn import make_batched_gin
from repro.gnn.quantized import ActivationCalibration
from repro.graph import induced_subgraphs
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.serving import (
    BackendHealth,
    CostModelDispatcher,
    InferenceEngine,
    ServingConfig,
    StepRecovery,
    fallback_chain,
)


class TestRetryability:
    def test_retryable_hierarchy(self):
        assert is_retryable(RetryableError("x"))
        assert is_retryable(PoolSaturated("full"))
        assert is_retryable(WorkerDied("w0"))
        assert is_retryable(InjectedFault("chaos"))

    def test_fatal_and_validation_are_not_retryable(self):
        assert not is_retryable(FatalError("x"))
        # Deterministic validation: QGTCError & ValueError.
        assert not is_retryable(ShapeError("bad shape"))
        assert not is_retryable(ConfigError("bad knob"))

    def test_foreign_exceptions_are_retryable(self):
        assert is_retryable(RuntimeError("transient"))
        assert is_retryable(OSError("io"))
        # Plain ValueError is foreign (not a QGTC validation error).
        assert is_retryable(ValueError("foreign"))

    def test_non_exception_base_exceptions_are_not(self):
        assert not is_retryable(KeyboardInterrupt())
        assert not is_retryable(SystemExit(1))

    def test_worker_died_is_a_qgtc_error(self):
        assert issubclass(WorkerDied, QGTCError)
        assert issubclass(InjectedFault, RetryableError)


class TestFallbackChain:
    def test_packed_is_terminal(self):
        assert fallback_chain("packed") == ("packed",)

    def test_everything_else_falls_back_to_packed(self):
        assert fallback_chain("blas") == ("blas", "packed")
        # A custom registered backend gets the same one-step chain.
        assert fallback_chain("reference") == ("reference", "packed")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestBackendHealth:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            BackendHealth(quarantine_after=0)
        with pytest.raises(ValueError):
            BackendHealth(probe_after_s=0.0)
        with pytest.raises(ValueError):
            BackendHealth(probe_after_s=float("nan"))

    def test_quarantine_after_consecutive_failures(self):
        clock = FakeClock()
        health = BackendHealth(
            quarantine_after=3, probe_after_s=5.0, clock=clock
        )
        health.record_failure("blas")
        health.record_failure("blas")
        assert not health.vetoed("blas")
        health.record_failure("blas")
        assert health.vetoed("blas")
        assert health.quarantined() == ("blas",)
        assert health.quarantines == 1

    def test_success_resets_the_streak(self):
        health = BackendHealth(quarantine_after=2, clock=FakeClock())
        health.record_failure("blas")
        health.record_success("blas")
        health.record_failure("blas")
        assert not health.vetoed("blas")

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        health = BackendHealth(
            quarantine_after=1, probe_after_s=5.0, clock=clock
        )
        health.record_failure("blas")
        assert health.vetoed("blas")
        clock.now = 6.0  # cooldown expired: half-open, not vetoed
        assert not health.vetoed("blas")
        health.record_success("blas")
        clock.now = 6.1
        assert not health.vetoed("blas")
        assert health.quarantines == 1

    def test_half_open_probe_failure_reopens_immediately(self):
        clock = FakeClock()
        health = BackendHealth(
            quarantine_after=3, probe_after_s=5.0, clock=clock
        )
        for _ in range(3):
            health.record_failure("blas")
        clock.now = 6.0
        assert not health.vetoed("blas")  # half-open
        health.record_failure("blas")  # one failure, not three
        assert health.vetoed("blas")
        assert health.quarantines == 2

    def test_unknown_backend_is_healthy(self):
        health = BackendHealth()
        assert not health.vetoed("never-seen")
        assert health.quarantined() == ()

    def test_snapshot_counters(self):
        health = BackendHealth(quarantine_after=1, clock=FakeClock())
        health.record_failure("a")
        health.record_success("b")
        assert health.snapshot() == {
            "quarantines": 1,
            "failures": 1,
            "successes": 1,
        }


class TestStepRecovery:
    def test_success_on_first_attempt(self):
        recovery = StepRecovery()
        result, executed, failed = recovery.run(lambda name: name, "blas")
        assert (result, executed, failed) == ("blas", "blas", ())

    def test_falls_back_on_retryable_failure(self):
        health = BackendHealth(clock=FakeClock())
        recovery = StepRecovery(health=health)

        def attempt(name):
            if name == "blas":
                raise RuntimeError("kernel crashed")
            return name

        result, executed, failed = recovery.run(attempt, "blas")
        assert (result, executed) == ("packed", "packed")
        assert failed == ("blas",)
        assert health.failures == 1 and health.successes == 1

    def test_non_retryable_propagates_immediately(self):
        health = BackendHealth(clock=FakeClock())
        recovery = StepRecovery(health=health)

        def attempt(name):
            raise ShapeError("malformed request")

        with pytest.raises(ShapeError):
            recovery.run(attempt, "blas")
        assert health.failures == 0  # validation is not a backend failure

    def test_exhausted_chain_raises_last_error(self):
        recovery = StepRecovery()

        def attempt(name):
            raise RuntimeError(f"{name} down")

        with pytest.raises(RuntimeError, match="packed down"):
            recovery.run(attempt, "blas")

    def test_quarantined_last_resort_is_still_attempted(self):
        clock = FakeClock()
        health = BackendHealth(quarantine_after=1, clock=clock)
        health.record_failure("packed")  # quarantined
        attempts = []

        def attempt(name):
            attempts.append(name)
            if name != "packed":
                raise RuntimeError("down")
            return name

        recovery = StepRecovery(health=health)
        result, executed, failed = recovery.run(attempt, "blas")
        assert executed == "packed"
        assert attempts == ["blas", "packed"]

    def test_fault_plan_kernel_site_drives_the_fallback(self):
        plan = FaultPlan(seed=0, specs=[FaultSpec("kernel", at=(0,))])
        recovery = StepRecovery(fault_plan=plan)
        result, executed, failed = recovery.run(
            lambda name: name, "blas", detail="update/L0"
        )
        assert executed == "packed"
        assert failed == ("blas",)
        assert plan.fires("kernel") == 1
        assert plan.events[0].detail == "update/L0:blas"


class TestDispatcherVeto:
    def test_quarantined_backend_loses_dispatch(self):
        clock = FakeClock()
        health = BackendHealth(quarantine_after=1, clock=clock)
        dispatch = CostModelDispatcher(health=health)
        baseline = dispatch.decide(256, 256, 64, 1, 8)
        assert baseline.engine == "blas"
        health.record_failure("blas")
        decision = dispatch.decide(256, 256, 64, 1, 8)
        assert decision.engine != "blas"
        assert dispatch.health_vetoed_decisions == 1
        # Recovery (half-open after cooldown) restores the pick.
        clock.now = 100.0
        assert dispatch.decide(256, 256, 64, 1, 8).engine == "blas"

    def test_all_vetoed_falls_back_to_full_candidate_set(self):
        clock = FakeClock()
        health = BackendHealth(quarantine_after=1, clock=clock)
        dispatch = CostModelDispatcher(health=health)
        for name in ("packed", "blas"):
            health.record_failure(name)
        # Dispatch must still produce an engine rather than failing.
        assert dispatch.decide(256, 256, 64, 1, 8).engine


class TestEngineRecovery:
    @pytest.fixture
    def workload(self, rng):
        g = planted_partition_graph(
            128, 800, num_communities=4, feature_dim=8, num_classes=3, rng=rng
        )
        subgraphs = induced_subgraphs(g, metis_like_partition(g, 4))
        model = make_batched_gin(8, 3, hidden_dim=8, seed=3)
        return model, subgraphs

    def test_injected_kernel_faults_recover_bit_identically(self, workload):
        model, subgraphs = workload
        # No timing feedback: dispatch is then a function of the seed, so
        # which backend each probe index lands on cannot depend on
        # wall-clock (the analytic model routes every step here to blas).
        config = ServingConfig(feature_bits=2, batch_size=2, record_timings=False)
        calibration = ActivationCalibration()
        reference = InferenceEngine(model, config, calibration=calibration)
        expected = [reference.infer_one(sg).logits for sg in subgraphs]

        # Exact, spaced indices: the fallback attempt after a fire probes
        # the next index, which must not itself fire — a fire on the
        # terminal fallback would (by design) escape to the caller, and
        # this test has no gateway above it to retry.
        plan = FaultPlan(
            seed=5, specs=[FaultSpec("kernel", at=(0, 7, 15))]
        )
        health = BackendHealth(clock=FakeClock())
        engine = InferenceEngine(
            model,
            config,
            calibration=calibration,
            health=health,
            fault_plan=plan,
        )
        got = [engine.infer_one(sg).logits for sg in subgraphs]
        assert plan.fires("kernel") == 3
        assert engine.stats.step_retries == 3
        for want, have in zip(expected, got):
            assert np.array_equal(want, have)

    def test_injected_compile_fault_surfaces_as_retryable(self, workload):
        model, subgraphs = workload
        plan = FaultPlan(seed=0, specs=[FaultSpec("compile", at=(0,))])
        engine = InferenceEngine(
            model, ServingConfig(feature_bits=2), fault_plan=plan
        )
        with pytest.raises(InjectedFault):
            engine.infer_one(subgraphs[0])
        # The fault fired once; a replay compiles cleanly.
        result = engine.infer_one(subgraphs[0])
        assert result.logits.shape[1] == 3


class TestRecoverySeesTheSameOperands:
    """A step that fails on ``blas`` after consuming its operands recovers
    on ``packed`` from the very same :class:`Operand` objects — whose
    activation side arrived as range-proven float32 codes, not int64."""

    def test_blas_failure_recovers_on_packed_from_float32_codes(self, rng):
        from repro.core.bitgemm import codes_gemm
        from repro.gnn.quantized import execute_forward_plan, quantized_forward
        from repro.graph.batching import SubgraphBatch
        from repro.plan import Backend, BackendRegistry, compile_forward_plan
        from repro.plan.registry import default_registry

        g = planted_partition_graph(
            128, 800, num_communities=4, feature_dim=8, num_classes=3, rng=rng
        )
        batch = SubgraphBatch(
            members=tuple(induced_subgraphs(g, metis_like_partition(g, 4))[:2])
        )
        model = make_batched_gin(8, 3, hidden_dim=8, seed=3)
        seen = []

        def flaky(a, b, tile_masks=None):
            out = codes_gemm(a, b, tile_masks)  # reads (and memoises) the codes
            activation = b if a.bits == 1 else a
            seen.append(activation.matrix(out.dtype).dtype)
            if len(seen) in (1, 4):  # an update step and an aggregate step
                raise RuntimeError("blas worker lost")
            return out

        real = default_registry()
        registry = BackendRegistry(
            [
                Backend(name="blas", run=flaky, caps=real.get("blas").caps)
                if backend.name == "blas"
                else backend
                for backend in real
            ]
        )
        want = quantized_forward(model, batch, feature_bits=8, engine="blas")
        plan = compile_forward_plan(
            model, num_nodes=batch.num_nodes, feature_bits=8, engine="blas",
            registry=registry,
        )
        got = execute_forward_plan(
            plan, model, batch, registry=registry, recovery=StepRecovery()
        )
        assert seen and all(dtype == np.float32 for dtype in seen)
        assert [(failed, ran) for _, failed, ran in got.recoveries] == [
            ("blas", "packed")
        ] * 2
        assert [t.backend for t in got.timings].count("packed") == 2
        np.testing.assert_array_equal(got.logits, want.logits)
        assert got.counters == want.counters

"""Tests for static dispatch: ``blas`` serves, ``packed`` past the working-set
budget or while ``blas`` is quarantined, and a forced engine wins.

The census, rates and measured classes keep the names of the cost-model
tests they replace: each checks that what it once priced by is carried
and not read."""

from __future__ import annotations

import random
from functools import partial

import numpy as np
import pytest

from repro.core.bitgemm import bitgemm, exact_gemm_dtype, matmul_int_reference
from repro.core.bitpack import pack_matrix
from repro.errors import ShapeError
from repro.gnn import make_cluster_gcn
from repro.plan import BLAS_BYTES_BUDGET, GemmSpec, compile_forward_plan, static_backend
from repro.serving import BackendHealth, CostModelDispatcher, InferenceEngine, ServingConfig

#: A shape/bit mix spanning the served shapes.
SHAPES = [
    (256, 256, 32, 1, 1),
    (64, 64, 16, 4, 4),
    (512, 128, 64, 2, 2),
    (1024, 1024, 32, 1, 1),
    (128, 32, 8, 8, 8),
    (512, 512, 64, 8, 8),
]


def _decisions(dispatcher: CostModelDispatcher) -> list:
    return [dispatcher.decide(*shape) for shape in SHAPES]


def _working_set(m, k, n, bits_a, bits_b):
    return exact_gemm_dtype(k, bits_a, bits_b).itemsize * (m * k + k * n + m * n)


class TestCostModelDispatcher:
    def test_returns_valid_engine(self):
        for shape in [(8, 8, 8), (64, 128, 64), (1024, 1024, 64)]:
            assert static_backend(*shape, 1, 8) in ("packed", "blas")

    def test_decision_is_consistent_with_call(self):
        decision = CostModelDispatcher().decide(256, 128, 64, 8, 8)
        assert static_backend(256, 128, 64, 8, 8) == decision.engine

    def test_blas_wins_on_served_shapes(self):
        assert static_backend(256, 256, 64, 1, 8) == "blas"
        assert static_backend(512, 64, 64, 8, 8) == "blas"
        assert all(static_backend(*shape) == "blas" for shape in SHAPES)

    def test_memory_veto_forces_packed(self):
        # 1-bit x 8-bit at 12 000 nodes: a float32 working set of ~580 MB.
        assert _working_set(12_000, 12_000, 64, 1, 8) > BLAS_BYTES_BUDGET
        decision = CostModelDispatcher().decide(12_000, 12_000, 64, 1, 8)
        assert decision.prices["blas"].vetoed
        assert decision.engine == "packed"
        assert not CostModelDispatcher().decide(512, 512, 64, 8, 8).prices["blas"].vetoed

    def test_huge_unpack_footprint_vetoed_by_default(self):
        # 8-bit x 8-bit at 8192^2: float32 operands and product > 800 MB.
        decision = CostModelDispatcher().decide(8192, 8192, 8192, 8, 8)
        assert decision.prices["blas"].vetoed
        assert decision.engine == "packed"

    def test_budget_boundary_is_the_exact_working_set(self):
        # float32 (bound 8192 * 1 * 255 < 2**24): 4 * (m*k + k*n + m*n) bytes.
        m, k = 8192, 8192
        n = (BLAS_BYTES_BUDGET // 4 - m * k) // (k + m)
        assert _working_set(m, k, n, 1, 8) <= BLAS_BYTES_BUDGET
        assert _working_set(m, k, n + 1, 1, 8) > BLAS_BYTES_BUDGET
        assert static_backend(m, k, n, 1, 8) == "blas"
        assert static_backend(m, k, n + 1, 1, 8) == "packed"

    def test_estimates_are_positive_and_footprint_exact(self):
        # The served price is positive and finite; blas is vetoed exactly
        # when its float working set passes the budget.
        for shape in SHAPES + [(12_000, 12_000, 64, 1, 8), (8192, 8192, 8192, 8, 8)]:
            decision = CostModelDispatcher().decide(*shape)
            assert 0 < decision.prices[decision.engine].seconds < float("inf")
            assert decision.prices["blas"].vetoed == (_working_set(*shape) > BLAS_BYTES_BUDGET)

    def test_invalid_budget(self):
        # The harness's budget is carried, not read: a zero budget vetoes
        # nothing the module constant allows.
        tight = CostModelDispatcher(blas_bytes_budget=0)
        assert tight.blas_bytes_budget == 0
        assert _decisions(tight) == _decisions(CostModelDispatcher())


class TestCensusObservation:
    """``observe_tile_fraction`` does nothing: no census reaches a decision."""

    def test_census_never_moves_the_analytic_pick(self):
        for shape in [(64, 64, 16), (2048, 2048, 64), (12_000, 12_000, 64)]:
            want = CostModelDispatcher().decide(*shape, 1, 8)
            for fraction in (1 / 16, 1.0):
                dispatch = CostModelDispatcher()
                dispatch.observe_tile_fraction(fraction, nodes=shape[0])
                assert dispatch.decide(*shape, 1, 8) == want

    def test_census_applies_only_to_square_adjacency_shape(self):
        # Square at the observed node count, non-square, square at another
        # count: a census observed at 2048 nodes moves none of them.
        shapes = [(2048, 2048, 64, 1, 8), (2048, 512, 64, 1, 8), (512, 512, 64, 1, 8)]
        dispatch = CostModelDispatcher()
        dispatch.observe_tile_fraction(1 / 16, nodes=2048)
        assert [dispatch.decide(*s) for s in shapes] == [
            CostModelDispatcher().decide(*s) for s in shapes
        ]

    def test_multibit_left_operand_ineligible(self):
        dispatch = CostModelDispatcher()
        dispatch.observe_tile_fraction(1 / 16)
        assert dispatch.decide(2048, 2048, 64, 8, 8) == CostModelDispatcher().decide(
            2048, 2048, 64, 8, 8
        )

    def test_no_observation_means_no_census(self):
        dispatch = CostModelDispatcher()
        assert not hasattr(dispatch, "tile_fraction")
        assert [d.engine for d in _decisions(dispatch)] == [static_backend(*s) for s in SHAPES]

    def test_rejects_invalid_fraction(self):
        # No census is read, so none is checked: an out-of-range one is
        # dropped like any other.
        dispatch = CostModelDispatcher()
        for fraction in (-0.1, 1.5):
            dispatch.observe_tile_fraction(fraction)
        assert _decisions(dispatch) == _decisions(CostModelDispatcher())


class TestHostRates:
    """The analytic pricers' calibration is gone: ``rates`` is carried for
    the harness and read by nothing."""

    def test_default_rates_are_the_shipped_defaults(self):
        assert CostModelDispatcher().rates is None
        assert InferenceEngine(make_cluster_gcn(8, 3)).dispatcher.rates is None

    def test_rates_value_changes_routing(self):
        # Whatever "machine" a rates value describes, routing is the rule's.
        for rates in ({"packed_flops": 1e15}, "fast popcount"):
            dispatch = CostModelDispatcher(rates=rates)
            assert dispatch.rates is rates
            assert _decisions(dispatch) == _decisions(CostModelDispatcher())

    def test_no_class_level_rates(self):
        for legacy in (
            "PACKED_FLOPS",
            "BLAS_FLOPS",
            "PACKED_PAIR_OVERHEAD_S",
            "BLAS_CALL_OVERHEAD_S",
        ):
            assert not hasattr(CostModelDispatcher, legacy)

    def test_packed_price_tracks_packed_rates(self):
        # packed is priced by the rule alone: infinite while blas serves.
        fast = CostModelDispatcher(rates={"packed_flops": 1e15})
        for decision in _decisions(fast):
            assert decision.engine == "blas"
            assert decision.prices["packed"].seconds == float("inf")

    def test_rejects_invalid_rates(self):
        # No rates value is read, so none is invalid.
        assert _decisions(CostModelDispatcher(rates=-1.0)) == _decisions(CostModelDispatcher())

    def test_prices_expose_every_backend(self):
        for decision in _decisions(CostModelDispatcher()):
            assert set(decision.prices) == {"packed", "blas"}
            assert decision.engine == min(
                decision.prices, key=lambda name: decision.prices[name].seconds
            )


class TestMeasuredDispatch:
    """A decision is a pure function of the shape — never a timing or a
    random draw."""

    def test_fresh_dispatchers_decide_identically(self):
        assert _decisions(CostModelDispatcher()) == _decisions(CostModelDispatcher())

    def test_global_random_state_never_moves_a_decision(self):
        want = [static_backend(*shape) for shape in SHAPES]
        got = []
        for seed, shape in enumerate(SHAPES):
            random.seed(seed)  # global churn between decisions
            np.random.seed(seed)
            got.append(static_backend(*shape))
        assert got == want

    def test_measured_fastest_vetoed_backend_never_wins(self):
        dispatcher = CostModelDispatcher()
        spec = GemmSpec(m=12_000, k=12_000, n=64, bits_a=1, bits_b=8)
        dispatcher.record_timing(spec, "blas", 1e-12)
        decision = dispatcher.decide(12_000, 12_000, 64, 1, 8)
        assert decision.engine == "packed"
        assert decision.prices["blas"].vetoed

    def test_confident_measurement_is_always_taken(self):
        # packed timed fastest in every bucket, again and again: every
        # repeat of every decision is still the rule's.
        dispatcher = CostModelDispatcher()
        for _ in range(8):
            for m, k, n, bits_a, bits_b in SHAPES:
                spec = GemmSpec(m=m, k=k, n=n, bits_a=bits_a, bits_b=bits_b)
                dispatcher.record_timing(spec, "packed", 1e-9)
                dispatcher.record_timing(spec, "blas", 1.0)
            assert [d.engine for d in _decisions(dispatcher)] == ["blas"] * len(SHAPES)

    def test_empty_table_prices_like_no_table(self):
        # Built with every argument the harness passes, a dispatcher
        # decides as a bare one.
        bare = CostModelDispatcher()
        full = CostModelDispatcher(
            None, blas_bytes_budget=bare.blas_bytes_budget, rates=bare.rates,
            registry=bare.registry,
        )
        assert _decisions(full) == _decisions(bare)

    def test_dispatchers_sharing_a_table_see_each_others_samples(self):
        # What a pool's shards do: one times packed, the other blas; both
        # still answer with the rule.
        first, second = CostModelDispatcher(), CostModelDispatcher()
        spec = GemmSpec(m=256, k=128, n=64, bits_a=2, bits_b=2)
        first.record_timing(spec, "packed", 1e-6)
        second.record_timing(spec, "blas", 2e-6)
        for dispatcher in (first, second):
            assert dispatcher.decide(256, 128, 64, 2, 2).engine == static_backend(256, 128, 64, 2, 2)

    def test_census_samples_price_only_their_band(self):
        # A sample recorded under a census prices nothing, under that
        # census or any other.
        dispatcher = CostModelDispatcher()
        want = dispatcher.decide(256, 256, 16, 1, 8)
        spec = GemmSpec(m=256, k=256, n=16, bits_a=1, bits_b=8)
        dispatcher.record_timing(spec, "packed", 1e-9, tile_fraction=0.1)
        for fraction in (0.1, 0.9):
            dispatcher.observe_tile_fraction(fraction, nodes=256)
            assert dispatcher.decide(256, 256, 16, 1, 8) == want

    def test_record_timing_without_a_table_is_a_no_op(self):
        dispatcher = CostModelDispatcher()
        want = _decisions(dispatcher)
        for m, k, n, bits_a, bits_b in SHAPES:
            spec = GemmSpec(m=m, k=k, n=n, bits_a=bits_a, bits_b=bits_b)
            dispatcher.record_timing(spec, "packed", 1e-12, tile_fraction=0.5)
        assert _decisions(dispatcher) == want


class TestStaticRule:
    def test_a_12k_node_aggregate_compiles_onto_packed(self):
        # The plan is metadata only: nothing of the 12 000^2 adjacency exists.
        plan = compile_forward_plan(
            make_cluster_gcn(16, 4, hidden_dim=32, num_layers=2, seed=0),
            num_nodes=12_000,
            feature_bits=1,
            engine=static_backend,
        )
        for layer in plan.layers:
            assert layer.aggregate.backend == "packed"
            assert layer.update.backend == "blas"

    def test_quarantined_blas_sends_every_product_to_packed(self):
        for shape in SHAPES:
            assert static_backend(*shape, quarantined=("blas",)) == "packed"

    def test_quarantining_every_backend_stays_on_blas(self):
        everything = ("blas", "packed")
        assert all(static_backend(*shape, quarantined=everything) == "blas" for shape in SHAPES)
        assert static_backend(12_000, 12_000, 64, 1, 8, quarantined=everything) == "packed"
        assert static_backend(12_000, 12_000, 64, 1, 8, quarantined=("packed",)) == "blas"

    @pytest.mark.parametrize("quarantine, served", [
        ((), {"blas"}), (("blas",), {"packed"}), (("blas", "packed"), {"blas"}),
    ], ids=["healthy", "blas-quarantined", "all-quarantined"])
    def test_a_session_compiles_by_its_health(self, quarantine, served):
        health = BackendHealth(quarantine_after=1, probe_after_s=3600.0)
        for name in quarantine:
            health.record_failure(name)
        engine = InferenceEngine(make_cluster_gcn(8, 3, seed=1), health=health)
        plan = engine.compile_plan(64, ("adjacency", "probe"))
        assert set(plan.backends()) == served

    def test_a_forced_engine_is_honoured(self):
        model = make_cluster_gcn(8, 3, seed=1)
        engine = InferenceEngine(model, ServingConfig(engine="packed"))
        assert engine.compile_plan(64, ("adjacency", "probe")).backends() == ("packed",)
        plan = compile_forward_plan(model, num_nodes=64, feature_bits=4, engine="packed")
        assert plan.backends() == ("packed",)
        picked = partial(static_backend, quarantined=("blas",))
        plan = compile_forward_plan(model, num_nodes=64, feature_bits=4, engine=picked)
        assert plan.backends() == ("packed",)


class TestDispatcherAsEngineArgument:
    def test_bitgemm_accepts_dispatcher(self, rng):
        a = rng.integers(0, 8, size=(40, 150), dtype=np.int64)
        b = rng.integers(0, 4, size=(150, 24), dtype=np.int64)
        packed_a = pack_matrix(a, 3, layout="col")
        packed_b = pack_matrix(b, 2, layout="row")
        out = bitgemm(packed_a, packed_b, engine=static_backend)
        np.testing.assert_array_equal(out, matmul_int_reference(a, b))

    def test_selector_must_return_known_engine(self, rng):
        a = rng.integers(0, 4, size=(16, 128), dtype=np.int64)
        b = rng.integers(0, 4, size=(128, 8), dtype=np.int64)
        packed_a = pack_matrix(a, 2, layout="col")
        packed_b = pack_matrix(b, 2, layout="row")
        with pytest.raises(ShapeError):
            bitgemm(packed_a, packed_b, engine=lambda *args: "gpu")

    def test_selector_sees_logical_shape(self, rng):
        seen = {}

        def spy(m, k, n, bits_a, bits_b):
            seen.update(m=m, k=k, n=n, bits_a=bits_a, bits_b=bits_b)
            return "blas"

        a = rng.integers(0, 8, size=(40, 150), dtype=np.int64)
        b = rng.integers(0, 4, size=(150, 24), dtype=np.int64)
        bitgemm(
            pack_matrix(a, 3, layout="col"),
            pack_matrix(b, 2, layout="row"),
            engine=spy,
        )
        assert seen == {"m": 40, "k": 150, "n": 24, "bits_a": 3, "bits_b": 2}

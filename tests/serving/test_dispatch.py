"""Tests for the cost-model engine dispatcher."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.bitgemm import bitgemm, matmul_int_reference
from repro.core.bitpack import pack_matrix
from repro.errors import ConfigError, ShapeError
from repro.plan import (
    DEFAULT_HOST_RATES,
    Backend,
    BackendPrice,
    BackendRegistry,
    DispatchTable,
    GemmSpec,
    HostRates,
    bucket_for,
)
from repro.serving.dispatch import CostModelDispatcher

#: A shape/bit mix whose decisions exercise several price points.
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


class TestCostModelDispatcher:
    def test_returns_valid_engine(self):
        # Without an observed census every product lands dense.
        dispatch = CostModelDispatcher()
        for shape in [(8, 8, 8), (64, 128, 64), (1024, 1024, 64)]:
            assert dispatch(*shape, 1, 8) in ("packed", "blas")

    def test_decision_is_consistent_with_call(self):
        dispatch = CostModelDispatcher()
        decision = dispatch.decide(256, 128, 64, 8, 8)
        assert dispatch(256, 128, 64, 8, 8) == decision.engine

    def test_blas_wins_on_served_shapes(self):
        # On the shapes the serving workloads produce, the measured host
        # cost of BLAS is lower (the packed popcount path is slower per
        # FLOP and pays a larger per-pair overhead).
        dispatch = CostModelDispatcher()
        assert dispatch(256, 256, 64, 1, 8) == "blas"
        assert dispatch(512, 64, 64, 8, 8) == "blas"

    def test_memory_veto_forces_packed(self):
        dispatch = CostModelDispatcher(blas_bytes_budget=1024)
        decision = dispatch.decide(512, 512, 64, 8, 8)
        assert decision.prices["blas"].vetoed
        assert decision.engine == "packed"
        # Same shape passes with the default budget.
        default = CostModelDispatcher().decide(512, 512, 64, 8, 8)
        assert not default.prices["blas"].vetoed

    def test_huge_unpack_footprint_vetoed_by_default(self):
        # 8-bit x 8-bit at 8192^2: float32 plane temporaries > 2 GB.
        decision = CostModelDispatcher().decide(8192, 8192, 8192, 8, 8)
        assert decision.prices["blas"].vetoed
        assert decision.engine == "packed"

    def test_estimates_are_positive_and_footprint_exact(self):
        prices = CostModelDispatcher().decide(128, 256, 32, 2, 4).prices
        assert prices["packed"].seconds > 0
        assert prices["blas"].seconds > 0
        # One float32 GEMM (bound 256*3*15 < 2**24): both operands and the
        # product, whatever the bitwidths.
        assert prices["blas"].bytes == 4 * (128 * 256 + 256 * 32 + 128 * 32)

    def test_invalid_budget(self):
        with pytest.raises(ConfigError):
            CostModelDispatcher(blas_bytes_budget=0)

    def test_cold_table_never_picks_codegen(self):
        # codegen is routed only by measurement: analytically it sits above
        # packed, vetoed blas or not, for every shape and bitwidth.
        for budget in (512 * 1024 * 1024, 1024):
            dispatch = CostModelDispatcher(blas_bytes_budget=budget)
            for shape in [(8, 8, 8), (256, 256, 64), (2048, 2048, 64)]:
                for bits in [(1, 8), (2, 4), (8, 8)]:
                    decision = dispatch.decide(*shape, *bits)
                    prices = decision.prices
                    assert decision.engine != "codegen"
                    assert prices["codegen"].seconds > prices["packed"].seconds


def _census_probe() -> tuple[CostModelDispatcher, list]:
    """A dispatcher whose one backend records the census each pricing
    context carried."""
    seen = []

    def pricer(ctx):
        seen.append(ctx.tile_fraction)
        return BackendPrice(seconds=1.0)

    probe = Backend(name="probe", run=lambda a, b, masks=None: None, pricer=pricer)
    return CostModelDispatcher(registry=BackendRegistry([probe])), seen


class TestCensusObservation:
    """The observed census is the sparsity coordinate of the adjacency GEMM
    alone: the dispatch table buckets that product by it."""

    def test_census_applies_only_to_square_adjacency_shape(self):
        # Regression: the observed census describes the adjacency, so a
        # *dense* 1-bit product with a different shape (e.g. the update
        # GEMM of a 1-bit-activation session) must not inherit it.
        dispatch, seen = _census_probe()
        dispatch.observe_tile_fraction(1 / 16, nodes=2048)
        dispatch.decide(2048, 2048, 64, 1, 8)
        # Non-square 1-bit product: census does not apply.
        dispatch.decide(2048, 512, 64, 1, 8)
        # Square but a different node count than observed: also excluded.
        dispatch.decide(512, 512, 64, 1, 8)
        assert seen == [1 / 16, None, None]

    def test_multibit_left_operand_ineligible(self):
        # Only the 1-bit adjacency operand has a tile census.
        dispatch, seen = _census_probe()
        dispatch.observe_tile_fraction(1 / 16)
        dispatch.decide(2048, 2048, 64, 8, 8)
        assert seen == [None]

    def test_no_observation_means_no_census(self):
        # Until a census is observed the dispatcher never guesses one.
        dispatch, seen = _census_probe()
        dispatch.decide(2048, 2048, 64, 1, 8)
        assert seen == [None]

    def test_census_never_moves_the_analytic_pick(self):
        # No analytic pricer reads the census: it is a table coordinate only.
        for shape in [(64, 64, 16), (2048, 2048, 64)]:
            cold = CostModelDispatcher(blas_bytes_budget=1 << 20)
            want = cold.decide(*shape, 1, 8)
            for fraction in (1 / 16, 1.0):
                dispatch = CostModelDispatcher(blas_bytes_budget=1 << 20)
                dispatch.observe_tile_fraction(fraction)
                got = dispatch.decide(*shape, 1, 8)
                assert got.engine == want.engine
                assert got.prices == want.prices

    def test_rejects_invalid_fraction(self):
        dispatch = CostModelDispatcher()
        with pytest.raises(ConfigError):
            dispatch.observe_tile_fraction(-0.1)
        with pytest.raises(ConfigError):
            dispatch.observe_tile_fraction(1.5)


class TestHostRates:
    """Per-machine recalibration is a frozen value, not a subclass."""

    def test_default_rates_are_the_shipped_defaults(self):
        assert CostModelDispatcher().rates is DEFAULT_HOST_RATES

    def test_rates_value_changes_routing(self):
        # A shape the default calibration routes to blas...
        shape = (512, 64, 64, 8, 8)
        assert CostModelDispatcher().decide(*shape).engine == "blas"
        # ...flips to packed when this "machine" has a very fast popcount.
        fast_packed = HostRates(packed_flops=1e15, packed_pair_overhead_s=0.0)
        assert CostModelDispatcher(rates=fast_packed).decide(*shape).engine == "packed"

    def test_no_class_level_rates(self):
        # The rates value is the one way in: no class attribute shadows it.
        for legacy in (
            "PACKED_FLOPS",
            "BLAS_FLOPS",
            "PACKED_PAIR_OVERHEAD_S",
            "BLAS_CALL_OVERHEAD_S",
        ):
            assert not hasattr(CostModelDispatcher, legacy)

    def test_codegen_price_tracks_packed_rates(self):
        # codegen is priced on packed's formula, so a recalibrated popcount
        # moves both prices and keeps codegen above packed.
        shape = (512, 512, 64, 1, 8)
        default = CostModelDispatcher().decide(*shape).prices
        fast = HostRates(packed_flops=1e15, packed_pair_overhead_s=0.0)
        tuned = CostModelDispatcher(rates=fast).decide(*shape).prices
        assert tuned["codegen"].seconds < default["codegen"].seconds
        assert tuned["codegen"].seconds > tuned["packed"].seconds
        assert tuned["blas"] == default["blas"]

    def test_rejects_invalid_rates(self):
        with pytest.raises(ConfigError):
            HostRates(packed_flops=0.0)
        with pytest.raises(ConfigError):
            HostRates(blas_call_overhead_s=-1.0)

    def test_prices_expose_every_backend(self):
        decision = CostModelDispatcher().decide(256, 128, 64, 2, 4)
        assert tuple(decision.prices) == ("packed", "blas", "codegen")
        assert decision.engine == min(
            decision.prices, key=lambda name: decision.prices[name].effective_s
        )


class TestMeasuredDispatch:
    """A decision is a pure function of the prices: the table's confident
    medians where it has them, the analytic model elsewhere — never a
    random draw."""

    def test_fresh_dispatchers_decide_identically(self):
        a, b = _decisions(CostModelDispatcher()), _decisions(CostModelDispatcher())
        assert [d.engine for d in a] == [d.engine for d in b]
        assert [d.prices for d in a] == [d.prices for d in b]

    def test_global_random_state_never_moves_a_decision(self):
        want = [d.engine for d in _decisions(CostModelDispatcher())]
        dispatcher = CostModelDispatcher()
        got = []
        for seed, shape in enumerate(SHAPES):
            random.seed(seed)  # global churn between decisions
            np.random.seed(seed)
            got.append(dispatcher.decide(*shape).engine)
        assert got == want

    def test_confident_measurement_is_always_taken(self):
        # packed measured fastest in every bucket: every repeat of every
        # decision answers packed, priced from the table.
        dispatcher = CostModelDispatcher(table=DispatchTable(min_samples=1))
        for m, k, n, bits_a, bits_b in SHAPES:
            spec = GemmSpec(m=m, k=k, n=n, bits_a=bits_a, bits_b=bits_b)
            dispatcher.record_timing(spec, "packed", 1e-9)
            dispatcher.record_timing(spec, "blas", 1.0)
        for _ in range(8):
            for decision in _decisions(dispatcher):
                assert decision.engine == "packed"
                assert decision.tuned

    def test_measured_fastest_vetoed_backend_never_wins(self):
        # blas measured blazing fast everywhere, but a one-byte budget
        # vetoes it: no decision may route to it.
        dispatcher = CostModelDispatcher(
            blas_bytes_budget=1, table=DispatchTable(min_samples=1)
        )
        for m, k, n, bits_a, bits_b in SHAPES:
            spec = GemmSpec(m=m, k=k, n=n, bits_a=bits_a, bits_b=bits_b)
            dispatcher.record_timing(spec, "blas", 1e-12)
        for decision in _decisions(dispatcher):
            assert decision.engine != "blas"
            assert decision.prices["blas"].vetoed
            assert "blas" not in decision.tuned_backends

    def test_empty_table_prices_like_no_table(self):
        cold = _decisions(CostModelDispatcher(table=DispatchTable()))
        analytic = _decisions(CostModelDispatcher())
        assert [d.engine for d in cold] == [d.engine for d in analytic]
        assert [d.prices for d in cold] == [d.prices for d in analytic]
        assert not any(d.tuned_backends for d in cold)

    def test_dispatchers_sharing_a_table_see_each_others_samples(self):
        # What a thread pool's shards do: one records packed, the other
        # blas, and both then price both backends from the table.
        table = DispatchTable(min_samples=1)
        first = CostModelDispatcher(table=table)
        second = CostModelDispatcher(table=table)
        spec = GemmSpec(m=256, k=128, n=64, bits_a=2, bits_b=2)
        first.record_timing(spec, "packed", 1e-6)
        second.record_timing(spec, "blas", 2e-6)
        for dispatcher in (first, second):
            decision = dispatcher.decide(256, 128, 64, 2, 2)
            assert set(decision.tuned_backends) == {"packed", "blas"}
            assert decision.engine == "packed"

    def test_record_timing_without_a_table_is_a_no_op(self):
        dispatcher = CostModelDispatcher()
        want = _decisions(dispatcher)
        dispatcher.record_timing(GemmSpec(m=64, k=64, n=16, bits_a=4, bits_b=4),
                                 "packed", 1e-12)
        assert dispatcher.table is None
        assert [d.prices for d in _decisions(dispatcher)] == [d.prices for d in want]

    def test_census_samples_price_only_their_band(self):
        # An adjacency sample recorded under its census prices the square
        # 1-bit product only while a census in the same band is observed.
        dispatcher = CostModelDispatcher(table=DispatchTable(min_samples=1))
        spec = GemmSpec(m=256, k=256, n=16, bits_a=1, bits_b=8)
        dispatcher.record_timing(spec, "packed", 1e-9, tile_fraction=0.1)
        assert bucket_for(spec, 0.1) in dispatcher.table
        assert not dispatcher.decide(256, 256, 16, 1, 8).tuned_backends
        dispatcher.observe_tile_fraction(0.1, nodes=256)
        decision = dispatcher.decide(256, 256, 16, 1, 8)
        assert decision.tuned_backends == ("packed",)
        assert decision.engine == "packed"
        dispatcher.observe_tile_fraction(0.9, nodes=256)
        assert not dispatcher.decide(256, 256, 16, 1, 8).tuned_backends


class TestDispatcherAsEngineArgument:
    def test_bitgemm_accepts_dispatcher(self, rng):
        a = rng.integers(0, 8, size=(40, 150), dtype=np.int64)
        b = rng.integers(0, 4, size=(150, 24), dtype=np.int64)
        packed_a = pack_matrix(a, 3, layout="col")
        packed_b = pack_matrix(b, 2, layout="row")
        out = bitgemm(packed_a, packed_b, engine=CostModelDispatcher())
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

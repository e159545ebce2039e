"""Tests for the cost-model engine dispatcher."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitgemm import bitgemm, matmul_int_reference
from repro.core.bitpack import pack_matrix
from repro.errors import ConfigError, ShapeError
from repro.plan import HostRates
from repro.serving.dispatch import CostModelDispatcher


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
        assert decision.memory_vetoed
        assert decision.engine == "packed"
        # Same shape passes with the default budget.
        assert not CostModelDispatcher().decide(512, 512, 64, 8, 8).memory_vetoed

    def test_huge_unpack_footprint_vetoed_by_default(self):
        # 8-bit x 8-bit at 8192^2: float32 plane temporaries > 2 GB.
        decision = CostModelDispatcher().decide(8192, 8192, 8192, 8, 8)
        assert decision.memory_vetoed
        assert decision.engine == "packed"

    def test_estimates_are_positive_and_footprint_exact(self):
        decision = CostModelDispatcher().decide(128, 256, 32, 2, 4)
        assert decision.packed_s > 0
        assert decision.blas_s > 0
        # One float32 GEMM (bound 256*3*15 < 2**24): both operands and the
        # product, whatever the bitwidths.
        assert decision.blas_bytes == 4 * (128 * 256 + 256 * 32 + 128 * 32)

    def test_invalid_budget(self):
        with pytest.raises(ConfigError):
            CostModelDispatcher(blas_bytes_budget=0)


class TestSparsePricing:
    def test_no_observation_means_no_sparse(self):
        # Until a census is observed the sparse price is infinite: the
        # dispatcher never guesses a sparsity it has not measured.
        decision = CostModelDispatcher().decide(2048, 2048, 64, 1, 8)
        assert decision.sparse_s == float("inf")
        assert decision.tile_fraction is None
        assert decision.engine in ("packed", "blas")

    def test_large_coalesced_batch_routes_to_sparse(self):
        # A 16-member block-diagonal round: measured fraction ~1/16 on a
        # big adjacency GEMM makes sparse the cheapest *word* engine — the
        # pick wherever the one-GEMM blas engine's float working set is
        # over budget.
        dispatch = CostModelDispatcher(blas_bytes_budget=1 << 20)
        dispatch.observe_tile_fraction(1 / 16)
        decision = dispatch.decide(2048, 2048, 64, 1, 8)
        assert decision.memory_vetoed
        assert decision.engine == "sparse"
        assert decision.tile_fraction == 1 / 16
        assert decision.sparse_s < decision.packed_s

    def test_small_batch_stays_dense(self):
        # The per-group gather overhead dominates tiny products.
        dispatch = CostModelDispatcher()
        dispatch.observe_tile_fraction(1 / 16)
        assert dispatch.decide(64, 64, 16, 1, 8).engine != "sparse"

    def test_dense_census_never_picks_sparse(self):
        # Fraction 1.0: sparse does packed's work plus gather overhead.
        dispatch = CostModelDispatcher()
        dispatch.observe_tile_fraction(1.0)
        for shape in [(256, 256, 64), (2048, 2048, 64)]:
            assert dispatch.decide(*shape, 1, 8).engine != "sparse"

    def test_census_applies_only_to_square_adjacency_shape(self):
        # Regression: the observed census describes the adjacency, so a
        # *dense* 1-bit product with a different shape (e.g. the update
        # GEMM of a 1-bit-activation session) must not inherit its
        # sparsity discount.
        dispatch = CostModelDispatcher()
        dispatch.observe_tile_fraction(1 / 16, nodes=2048)
        assert dispatch.decide(2048, 2048, 64, 1, 8).sparse_s < float("inf")
        # Non-square 1-bit product: census does not apply.
        rectangular = dispatch.decide(2048, 512, 64, 1, 8)
        assert rectangular.sparse_s == float("inf")
        assert rectangular.tile_fraction is None
        # Square but a different node count than observed: also excluded.
        other_square = dispatch.decide(512, 512, 64, 1, 8)
        assert other_square.sparse_s == float("inf")

    def test_multibit_left_operand_ineligible(self):
        # Only the 1-bit adjacency operand has a tile census.
        dispatch = CostModelDispatcher()
        dispatch.observe_tile_fraction(1 / 16)
        decision = dispatch.decide(2048, 64, 64, 8, 8)
        assert decision.sparse_s == float("inf")
        assert decision.tile_fraction is None
        assert decision.engine != "sparse"

    def test_rejects_invalid_fraction(self):
        dispatch = CostModelDispatcher()
        with pytest.raises(ConfigError):
            dispatch.observe_tile_fraction(-0.1)
        with pytest.raises(ConfigError):
            dispatch.observe_tile_fraction(1.5)


class TestHostRates:
    """Per-machine recalibration is a frozen value, not a subclass."""

    def test_default_rates_built_from_class_attributes(self):
        dispatch = CostModelDispatcher()
        assert dispatch.rates.packed_flops == CostModelDispatcher.PACKED_FLOPS
        assert (
            dispatch.rates.sparse_group_overhead_s
            == CostModelDispatcher.SPARSE_GROUP_OVERHEAD_S
        )

    def test_rates_value_changes_routing(self):
        # A shape the default calibration routes to blas...
        shape = (512, 64, 64, 8, 8)
        assert CostModelDispatcher().decide(*shape).engine == "blas"
        # ...flips to packed when this "machine" has a very fast popcount.
        fast_packed = HostRates(packed_flops=1e15, packed_pair_overhead_s=0.0)
        assert CostModelDispatcher(rates=fast_packed).decide(*shape).engine == "packed"

    def test_legacy_subclass_recalibration_still_works(self):
        class Recalibrated(CostModelDispatcher):
            PACKED_FLOPS = 1e15
            PACKED_PAIR_OVERHEAD_S = 0.0

        assert Recalibrated().decide(512, 64, 64, 8, 8).engine == "packed"

    def test_rejects_invalid_rates(self):
        with pytest.raises(ConfigError):
            HostRates(packed_flops=0.0)
        with pytest.raises(ConfigError):
            HostRates(sparse_group_overhead_s=-1.0)

    def test_prices_expose_every_backend(self):
        decision = CostModelDispatcher().decide(256, 128, 64, 2, 4)
        # Every registered backend appears (sparse is inf without a
        # census, but still reports).
        assert tuple(decision.prices) == ("packed", "blas", "sparse", "codegen")
        assert decision.prices["packed"].seconds == decision.packed_s
        assert decision.prices["blas"].bytes == decision.blas_bytes
        assert decision.prices["blas"].vetoed == decision.memory_vetoed


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

"""Tests for the backend registry: registration, capability metadata,
the static rule's reach, engine-name resolution, and end-to-end custom
backends."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.bitgemm import bitgemm, bitgemm_codes, matmul_int_reference
from repro.core.bitpack import pack_matrix
from repro.errors import ConfigError, ShapeError
from repro.plan import (
    Backend,
    BackendCaps,
    BackendRegistry,
    GemmSpec,
    builtin_backends,
    default_registry,
    register_backend,
    resolve_engine_name,
    static_backend,
)
from repro.plan.ir import compile_gemm_step
from repro.serving import CostModelDispatcher


def _reference_backend(name: str = "reference") -> Backend:
    """A custom backend: multiply the operands' codes in int64."""

    def run(a, b):
        return a.codes @ b.codes

    return Backend(name=name, run=run, caps=BackendCaps(summary="int64 oracle"))


class TestRegistry:
    def test_default_registry_is_packed_then_blas(self):
        # No other backend is registered by default.
        assert default_registry().names() == ("packed", "blas")

    def test_get_unknown_raises_with_known_names(self):
        registry = BackendRegistry(builtin_backends())
        with pytest.raises(ConfigError, match="packed"):
            registry.get("cuda")

    def test_duplicate_registration_rejected_unless_replace(self):
        registry = BackendRegistry(builtin_backends())
        clone = _reference_backend("packed")
        with pytest.raises(ConfigError):
            registry.register(clone)
        registry.register(clone, replace=True)
        assert registry.get("packed") is clone

    def test_unregister(self):
        registry = BackendRegistry([_reference_backend()])
        registry.unregister("reference")
        assert "reference" not in registry
        with pytest.raises(ConfigError):
            registry.unregister("reference")

    def test_iteration_and_len(self):
        registry = BackendRegistry(builtin_backends())
        assert len(registry) == 2
        assert [b.name for b in registry] == ["packed", "blas"]

    def test_backend_name_must_be_string(self):
        with pytest.raises(ConfigError):
            Backend(name="", run=lambda a, b, m=None: None)


class TestCaps:
    def test_supports_filters_bitwidths(self):
        caps = BackendCaps(max_bits_a=1)
        assert caps.supports(GemmSpec(8, 8, 8, 1, 8))
        assert not caps.supports(GemmSpec(8, 8, 8, 2, 8))

    def test_eligible_respects_caps(self):
        registry = BackendRegistry(
            [
                _reference_backend("wide"),
                Backend(
                    name="narrow",
                    run=lambda a, b, m=None: None,
                    caps=BackendCaps(max_bits_a=1),
                ),
            ]
        )
        spec = GemmSpec(8, 8, 8, 4, 4)
        assert [b.name for b in registry.eligible(spec)] == ["wide"]


class TestPricing:
    """A backend has no pricer: the static rule serves the built-ins, and
    a registered backend runs only where an ``engine=`` forces it."""

    SHAPES = [(8, 8, 8, 1, 1), (64, 64, 64, 2, 2), (12_000, 12_000, 64, 1, 8)]

    def test_backend_without_pricer_prices_infinite(self):
        backend = _reference_backend()
        assert not hasattr(backend, "pricer") and not hasattr(backend, "price")
        register_backend(backend)
        try:
            for shape in self.SHAPES:
                assert "reference" not in CostModelDispatcher().decide(*shape).prices
                assert static_backend(*shape) in ("blas", "packed")
            spec = GemmSpec(8, 8, 8, 1, 1)
            assert compile_gemm_step(spec, engine="reference").backend == "reference"
        finally:
            default_registry().unregister("reference")

    def test_price_all_skips_unpriceable(self):
        # Eligible by its caps, never served by the rule, whatever is
        # quarantined.
        registry = BackendRegistry(builtin_backends())
        registry.register(_reference_backend())
        spec = GemmSpec(64, 64, 64, 2, 2)
        assert [b.name for b in registry.eligible(spec)] == ["packed", "blas", "reference"]
        for quarantined in ((), ("blas",), ("packed",), ("blas", "packed")):
            for shape in self.SHAPES:
                assert static_backend(*shape, quarantined=quarantined) in ("blas", "packed")

    def test_vetoed_price_is_effectively_infinite(self):
        prices = CostModelDispatcher().decide(12_000, 12_000, 64, 1, 8).prices
        assert prices["blas"].vetoed and math.isinf(prices["blas"].seconds)
        assert not prices["packed"].vetoed and math.isfinite(prices["packed"].seconds)


class TestResolveEngineName:
    def test_literal_names_validated_against_registry(self):
        spec = GemmSpec(8, 8, 8, 1, 1)
        assert resolve_engine_name("blas", spec) == "blas"
        for unknown in ("cuda", "codegen"):
            with pytest.raises(ShapeError):
                resolve_engine_name(unknown, spec)

    def test_auto_threshold(self):
        assert resolve_engine_name("auto", GemmSpec(8, 128, 8, 1, 1)) == "packed"
        assert resolve_engine_name("auto", GemmSpec(512, 128, 512, 1, 1)) == "blas"

    def test_selector_return_validated(self):
        spec = GemmSpec(8, 8, 8, 1, 1)
        assert resolve_engine_name(lambda *a: "packed", spec) == "packed"
        with pytest.raises(ShapeError):
            resolve_engine_name(lambda *a: "gpu", spec)


class TestBlasIsTotal:
    """``blas`` picks an exact dtype from the spec's bound, so no reduction
    length is rejected at compile time or vetoed for exactness (the
    boundary cases live in ``tests/core/test_operand.py``); the memory
    budget is its only veto."""

    def test_any_k_compiles_and_only_memory_vetoes(self):
        spec = GemmSpec(m=8, k=1 << 24, n=8, bits_a=1, bits_b=1)
        assert compile_gemm_step(spec, engine="blas").backend == "blas"
        # float64 from 2**24 on: 8 * (2 * 2**24 + 1) bytes pass the budget,
        # 8 * (2 * 2**26 + 1) do not.
        assert static_backend(1, 1 << 24, 1, 1, 1) == "blas"
        assert static_backend(1, 1 << 26, 1, 1, 1) == "packed"

    def test_price_is_one_call_independent_of_bitwidths(self):
        # One float32 GEMM whatever the bitwidths (8192 * 7 * 7 < 2**24): the
        # budget reads one size, 4 * (m*k + k*n + m*n) bytes.
        for bits in (1, 2, 3):
            assert static_backend(8192, 8192, 4096, bits, bits) == "blas"
            assert static_backend(8192, 8192, 4097, bits, bits) == "packed"


class TestCustomBackendEndToEnd:
    def test_private_registry_through_bitgemm(self, small_codes):
        a, b = small_codes
        registry = BackendRegistry(builtin_backends())
        registry.register(_reference_backend())
        packed_a = pack_matrix(a, 3, layout="col")
        packed_b = pack_matrix(b, 2, layout="row")
        out = bitgemm(packed_a, packed_b, engine="reference", registry=registry)
        np.testing.assert_array_equal(out, matmul_int_reference(a, b))

    def test_registered_default_backend_reachable_by_name(self, small_codes):
        a, b = small_codes
        backend = register_backend(_reference_backend("oracle-e2e"))
        try:
            out = bitgemm_codes(a, b, 3, 2, engine="oracle-e2e")
            np.testing.assert_array_equal(out, matmul_int_reference(a, b))
            # Selector callables may return the custom name too.
            out = bitgemm_codes(a, b, 3, 2, engine=lambda *args: "oracle-e2e")
            np.testing.assert_array_equal(out, matmul_int_reference(a, b))
        finally:
            default_registry().unregister(backend.name)

"""Tests for paper Eq. 2 uniform quantization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quantization import (
    MAX_BITS,
    QuantConfig,
    QuantParams,
    calibrate,
    dequantize,
    quantization_error,
    quantize,
    quantize_into,
)
from repro.core.bitgemm import exact_gemm_dtype
from repro.errors import BitwidthError, ConfigError


class TestQuantParams:
    def test_levels_and_alpha_max(self):
        p = QuantParams(bits=3, alpha_min=-1.0, scale=0.25)
        assert p.levels == 8
        assert p.alpha_max == pytest.approx(-1.0 + 0.25 * 8)

    def test_rejects_bad_bits(self):
        with pytest.raises(BitwidthError):
            QuantParams(bits=0, alpha_min=0.0, scale=1.0)
        with pytest.raises(BitwidthError):
            QuantParams(bits=MAX_BITS + 1, alpha_min=0.0, scale=1.0)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ConfigError):
            QuantParams(bits=4, alpha_min=0.0, scale=0.0)
        with pytest.raises(ConfigError):
            QuantParams(bits=4, alpha_min=0.0, scale=-1.0)

    def test_rejects_nonfinite_alpha_min(self):
        with pytest.raises(ConfigError):
            QuantParams(bits=4, alpha_min=float("nan"), scale=1.0)


class TestQuantConfig:
    def test_defaults_valid(self):
        cfg = QuantConfig()
        assert cfg.adjacency_bits == 1
        assert not cfg.is_full_precision

    def test_full_precision_flag(self):
        assert QuantConfig(feature_bits=32, weight_bits=32).is_full_precision

    def test_adjacency_must_be_one_bit(self):
        with pytest.raises(ConfigError):
            QuantConfig(adjacency_bits=2)

    def test_clip_quantile_range(self):
        with pytest.raises(ConfigError):
            QuantConfig(clip_quantile=0.5)


class TestQuantize:
    def test_codes_in_range(self, rng):
        vals = rng.normal(size=(50, 20))
        for bits in (1, 2, 4, 8):
            codes, params = quantize(vals, bits=bits)
            assert codes.min() >= 0
            assert codes.max() <= (1 << bits) - 1
            assert params.bits == bits

    def test_needs_params_or_bits(self):
        with pytest.raises(ConfigError):
            quantize(np.zeros(3))

    def test_monotone_in_value(self, rng):
        vals = np.sort(rng.normal(size=1000))
        codes, _ = quantize(vals, bits=4)
        assert np.all(np.diff(codes) >= 0)

    def test_constant_tensor(self):
        codes, params = quantize(np.full((4, 4), 3.14), bits=4)
        assert np.all(codes == codes.flat[0])
        assert params.scale > 0

    def test_top_value_maps_to_top_code(self):
        # Eq. 2 alone would map alpha_max to 2**q; the top bucket must close.
        vals = np.linspace(0.0, 1.0, 17)
        codes, _ = quantize(vals, bits=2)
        assert codes.max() == 3

    def test_explicit_params_reused(self, rng):
        vals = rng.normal(size=100)
        _, params = quantize(vals, bits=4)
        codes2, params2 = quantize(vals * 0.5, params)
        assert params2 is params
        assert codes2.max() <= 15

    def test_calibrate_with_explicit_bounds(self):
        p = calibrate(np.array([5.0]), 4, alpha_min=0.0, alpha_max=16.0)
        assert p.alpha_min == 0.0
        assert p.scale == pytest.approx(1.0)

    def test_calibrate_empty_raises(self):
        with pytest.raises(ConfigError):
            calibrate(np.array([]), 4)

    def test_clip_quantile_tightens_range(self, rng):
        vals = np.concatenate([rng.normal(size=1000), [100.0, -100.0]])
        p_exact = calibrate(vals, 8)
        p_clip = calibrate(vals, 8, clip_quantile=0.01)
        assert p_clip.scale < p_exact.scale


class TestRoundTrip:
    def test_error_bounded_by_half_scale(self, rng):
        vals = rng.uniform(-3, 7, size=500)
        codes, params = quantize(vals, bits=6)
        recon = dequantize(codes, params)
        assert np.max(np.abs(vals - recon)) <= params.scale / 2 + 1e-12

    def test_error_decreases_with_bits(self, rng):
        vals = rng.normal(size=2000)
        errs = [quantization_error(vals, b) for b in (2, 4, 8, 12)]
        assert errs == sorted(errs, reverse=True)

    @settings(max_examples=50, deadline=None)
    @given(
        bits=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_roundtrip_property(self, bits, seed):
        vals = np.random.default_rng(seed).uniform(-5, 5, size=64)
        codes, params = quantize(vals, bits=bits)
        recon = dequantize(codes, params)
        # Mid-bucket reconstruction: error strictly below one bucket width.
        assert np.max(np.abs(vals - recon)) < params.scale


def eq2_reference(values: np.ndarray, params: QuantParams) -> np.ndarray:
    """Eq. 2 written the allocating way ``quantize`` ran it before the
    one-buffer rewrite: the independent oracle for the codes."""
    arr = np.asarray(values, dtype=np.float64)
    codes = np.floor((arr - params.alpha_min) / params.scale)
    np.clip(codes, 0, params.levels - 1, out=codes)
    return codes.astype(np.int64)


class TestQuantizeInto:
    """The fused quantizer emits ``quantize``'s codes, code for code, in
    whatever dtype the consuming GEMM is exact in."""

    @staticmethod
    def _values(bits, alpha_min, scale, dtype, seed, rows):
        """Interior points, exact bucket edges, alpha_max, values below
        alpha_min, both infinities and an empty row's worth of nothing."""
        rng = np.random.default_rng(seed)
        levels = 1 << bits
        alpha_max = alpha_min + scale * levels
        edges = alpha_min + scale * rng.integers(0, levels, size=6)
        special = [alpha_min, alpha_max, alpha_min - 3 * scale, alpha_max + scale,
                   np.inf, -np.inf, np.nextafter(alpha_max, -np.inf)]
        body = rng.uniform(alpha_min - scale, alpha_max + scale, size=rows * 5)
        flat = np.concatenate([edges, special, body])[: rows * 5]
        return flat.reshape(rows, 5).astype(dtype)

    @settings(max_examples=120)
    @given(
        bits=st.sampled_from([1, 2, 4, 8, 16, 32]),
        alpha_min=st.floats(-50.0, 50.0),
        scale=st.floats(1e-6, 10.0),
        dtype=st.sampled_from([np.float32, np.float64]),
        k=st.sampled_from([1, 64, 258, 259, 70_000]),
        other_bits=st.sampled_from([1, 8, 27, 32]),
        seed=st.integers(0, 2**16),
        rows=st.sampled_from([0, 1, 4, 9]),
    )
    def test_codes_equal_quantize_in_every_gemm_dtype(
        self, bits, alpha_min, scale, dtype, k, other_bits, seed, rows
    ):
        params = QuantParams(bits=bits, alpha_min=alpha_min, scale=scale)
        values = self._values(bits, alpha_min, scale, dtype, seed, rows)
        want = eq2_reference(values, params)
        codes, _ = quantize(values, params)
        assert codes.dtype == np.int64
        np.testing.assert_array_equal(codes, want)
        # The dtype of a GEMM these codes enter: float32, float64 or int64
        # as k and the other operand's bitwidth cross 2**24 and 2**53.
        target = exact_gemm_dtype(k, bits, other_bits)
        fused = quantize_into(values, params, target)
        assert fused.dtype == target and fused.shape == values.shape
        np.testing.assert_array_equal(fused.astype(np.int64), want)
        assert fused.size == 0 or (0 <= fused.min() and fused.max() < 1 << bits)

    @pytest.mark.parametrize(
        "gemm, dtype",
        [((258, 8, 8), np.float32), ((259, 8, 8), np.float64),
         ((1, 26, 27), np.float64), ((2, 26, 27), np.int64)],
    )
    def test_emitted_dtype_at_the_exactness_boundaries(self, gemm, dtype, rng):
        k, bits_a, bits_b = gemm
        assert exact_gemm_dtype(*gemm) == dtype
        values = rng.normal(size=(6, k))
        top = (1 << bits_a) - 1
        codes, params = quantize(values, bits=bits_a)
        fused = quantize_into(values, params, exact_gemm_dtype(*gemm))
        assert fused.dtype == dtype and int(fused.max()) == top == int(codes.max())
        np.testing.assert_array_equal(fused.astype(np.int64), codes)

    def test_constant_tensor_and_infinities_clip(self):
        params = calibrate(np.full((3, 2), 1.5), 4)
        np.testing.assert_array_equal(
            quantize_into(np.full((3, 2), 1.5), params, np.float32), np.zeros((3, 2))
        )
        edge = quantize_into(np.array([[-np.inf, np.inf]]), params, np.float32)
        np.testing.assert_array_equal(edge, [[0, 15]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    def test_nan_raises_instead_of_becoming_a_code(self, dtype):
        params = QuantParams(bits=8, alpha_min=-1.0, scale=0.01)
        with pytest.raises(BitwidthError, match="NaN"):
            quantize_into(np.array([[0.0, np.nan, 0.5]]), params, dtype)

    # ----------------------------------------------------------------- #
    # One bit: Eq. 2 is one comparison against ``QuantParams.threshold``
    # ----------------------------------------------------------------- #
    #: Every dtype ``exact_gemm_dtype`` can return.
    GEMM_DTYPES = (np.float32, np.float64, np.int64)

    @staticmethod
    def _one_bit_values(params, seed):
        """Both sides of the threshold to the last float64, the bounds, the
        zeros and infinities, and a body straddling the bucket edge."""
        t, top = params.threshold, params.alpha_max
        special = [t, np.nextafter(t, np.inf), np.nextafter(t, -np.inf),
                   params.alpha_min, top, np.inf, -np.inf, -0.0, 0.0,
                   np.nextafter(params.alpha_min, -np.inf), params.alpha_min - params.scale]
        rng = np.random.default_rng(seed)
        body = rng.uniform(-1.0, 3.0, size=20) * params.scale + params.alpha_min
        return np.concatenate([special, body])

    @settings(max_examples=200)
    @given(
        alpha_min=st.one_of(
            st.floats(-50.0, 50.0),
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0**52, -(2.0**52), 1e300, -1e-300]),
        ),
        scale=st.one_of(st.floats(1e-6, 10.0), st.sampled_from([1.0, 2.0**-52, 1e300])),
        ratio_log2=st.none() | st.integers(0, 52),
        seed=st.integers(0, 2**16),
    )
    def test_one_bit_compare_equals_the_divide_form(self, alpha_min, scale, ratio_log2, seed):
        if ratio_log2 is not None and alpha_min != 0.0:
            scale = abs(alpha_min) / 2.0**ratio_log2  # |alpha_min| / s up to 2**52
        params = QuantParams(bits=1, alpha_min=alpha_min, scale=scale)
        t = params.threshold
        # The defining property, on the divide form itself.
        assert eq2_reference(np.array([t]), params)[0] == 1
        assert eq2_reference(np.array([np.nextafter(t, -np.inf)]), params)[0] == 0
        values = self._one_bit_values(params, seed)
        with np.errstate(over="ignore"):  # 1e300 has no float32
            as_f32 = values.astype(np.float32)
        for inputs in (values, as_f32, values.reshape(-1, 1), values[:0]):
            want = eq2_reference(inputs, params)
            for dtype in self.GEMM_DTYPES:
                fused = quantize_into(inputs, params, dtype)
                assert fused.dtype == dtype and fused.shape == inputs.shape
                np.testing.assert_array_equal(fused.astype(np.int64), want)

    def test_one_bit_compare_runs_in_float64_on_float32_inputs(self):
        """A float32 tensor against a threshold float32 cannot hold: rounding
        ``t`` to the inputs' dtype would move the bucket edge."""
        params = QuantParams(bits=1, alpha_min=0.0, scale=1.0 + 2.0**-40)
        assert float(np.float32(params.threshold)) == 1.0 < params.threshold
        values = np.array([1.0, np.nextafter(np.float32(1.0), np.float32(2.0))], np.float32)
        for dtype in self.GEMM_DTYPES:
            np.testing.assert_array_equal(quantize_into(values, params, dtype), [0, 1])
        np.testing.assert_array_equal(eq2_reference(values, params), [0, 1])

    def test_threshold_is_derived_once_and_is_not_part_of_the_record(self):
        params = QuantParams(bits=1, alpha_min=-3.3, scale=0.7)
        shown = repr(params)
        assert "threshold" not in vars(params)
        t = params.threshold
        assert vars(params)["threshold"] == t == -2.5999999999999996
        assert repr(params) == shown and params == QuantParams(1, -3.3, 0.7)
        assert hash(params) == hash(QuantParams(1, -3.3, 0.7))

    @pytest.mark.parametrize("dtype", GEMM_DTYPES)
    def test_one_bit_nan_raises_the_same_error(self, dtype):
        eight = QuantParams(bits=8, alpha_min=-1.0, scale=0.01)
        one = QuantParams(bits=1, alpha_min=-1.0, scale=0.01)
        values = np.array([[0.0, np.nan, 0.5]])
        with pytest.raises(BitwidthError) as multi_bit:
            quantize_into(values, eight, dtype)
        with pytest.raises(BitwidthError) as one_bit:
            quantize_into(values.astype(np.float32), one, dtype)
        assert str(one_bit.value) == str(multi_bit.value)

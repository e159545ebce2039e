"""Uniform quantization of floating-point tensors (paper Eq. 2).

QGTC quantizes a 32-bit float :math:`\\alpha` to a ``q``-bit unsigned integer

.. math::

    \\alpha^{(q)} = \\left\\lfloor \\frac{\\alpha - \\alpha_{min}}{scale}
                    \\right\\rfloor,
    \\qquad scale = \\frac{|\\alpha_{max} - \\alpha_{min}|}{2^q}

where ``alpha_min`` / ``alpha_max`` are empirical bounds (per tensor by
default).  The quantized code lives in ``[0, 2^q - 1]`` so every code can be
bit-decomposed into exactly ``q`` binary planes — the representation the
Tensor Core emulator consumes.

This module provides the forward quantizer, the dequantizer used to read
results back into float space, and a :class:`QuantConfig` record that GNN
layers carry around so the whole pipeline agrees on bounds and bitwidths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import BitwidthError, ConfigError

__all__ = [
    "MAX_BITS",
    "QuantConfig",
    "QuantParams",
    "quantize",
    "quantize_into",
    "dequantize",
    "quantization_error",
    "calibrate",
]

#: Largest supported bitwidth.  32-bit codes are stored in int64 during
#: arithmetic so the bit-serial GEMM cannot overflow.
MAX_BITS = 32


def _check_bits(bits: int) -> int:
    if not isinstance(bits, (int, np.integer)):
        raise BitwidthError(f"bitwidth must be an int, got {type(bits).__name__}")
    bits = int(bits)
    if not 1 <= bits <= MAX_BITS:
        raise BitwidthError(f"bitwidth must be in [1, {MAX_BITS}], got {bits}")
    return bits


@dataclass(frozen=True)
class QuantParams:
    """Affine quantization parameters for one tensor.

    Attributes
    ----------
    bits:
        Number of bits of the integer code.
    alpha_min:
        Empirical lower bound mapped to code ``0``.
    scale:
        Width of one quantization bucket, ``(alpha_max - alpha_min) / 2**bits``.
    """

    bits: int
    alpha_min: float
    scale: float

    def __post_init__(self) -> None:
        _check_bits(self.bits)
        if not np.isfinite(self.alpha_min):
            raise ConfigError(f"alpha_min must be finite, got {self.alpha_min}")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ConfigError(f"scale must be positive and finite, got {self.scale}")

    @property
    def levels(self) -> int:
        """Number of representable codes, ``2**bits``."""
        return 1 << self.bits

    @property
    def alpha_max(self) -> float:
        """Upper bound of the representable float range."""
        return self.alpha_min + self.scale * self.levels

    @cached_property
    def threshold(self) -> float:
        """The float64 ``t`` such that Eq. 2's code of ``x`` is at least one
        exactly when ``x >= t`` — derived once per parameter set.

        ``x -> floor(fl(fl(x - alpha_min) / scale))`` is monotone (each
        rounded operation is), so the codes pass from 0 to 1 at one float64,
        found by bisecting the float64s in their order — that of their bit
        patterns, sign aside.  At one bit that comparison *is* the quantizer
        (:func:`quantize_into`).
        """

        def value(position: int) -> float:  # the float64s in ascending order, 0.0 at 0
            return math.copysign(float(np.int64(abs(position)).view(np.float64)), position)

        def code_is_one(position: int) -> bool:
            return (value(position) - self.alpha_min) / self.scale >= 1.0

        at = int(np.float64(np.inf).view(np.int64))  # +inf's code is not 0,
        below = -at  # -inf's is
        while at - below > 1:
            middle = (below + at) // 2
            below, at = (below, middle) if code_is_one(middle) else (middle, at)
        assert code_is_one(at) and not code_is_one(at - 1)
        return value(at)


@dataclass(frozen=True)
class QuantConfig:
    """Bitwidth configuration of a quantized GNN.

    The adjacency matrix is always 1-bit (edge present / absent).  Node
    embeddings use ``feature_bits`` and layer weights use ``weight_bits``;
    the paper's experiments set both to the same value (2/4/8/16/32).
    """

    feature_bits: int = 4
    weight_bits: int = 4
    adjacency_bits: int = field(default=1)
    #: Calibration percentile for (alpha_min, alpha_max); 0.0 means exact
    #: min/max, 0.01 clips 1% outliers on each side.
    clip_quantile: float = 0.0

    def __post_init__(self) -> None:
        _check_bits(self.feature_bits)
        _check_bits(self.weight_bits)
        if self.adjacency_bits != 1:
            raise ConfigError(
                "QGTC stores the adjacency matrix in exactly 1 bit; got "
                f"adjacency_bits={self.adjacency_bits}"
            )
        if not 0.0 <= self.clip_quantile < 0.5:
            raise ConfigError(
                f"clip_quantile must be in [0, 0.5), got {self.clip_quantile}"
            )

    @property
    def is_full_precision(self) -> bool:
        """True when both operands use the fp32-equivalent 32-bit path."""
        return self.feature_bits >= MAX_BITS and self.weight_bits >= MAX_BITS


def calibrate(
    values: np.ndarray,
    bits: int,
    *,
    clip_quantile: float = 0.0,
    alpha_min: float | None = None,
    alpha_max: float | None = None,
) -> QuantParams:
    """Derive :class:`QuantParams` from data.

    Parameters
    ----------
    values:
        Sample tensor used to estimate the representable range.
    bits:
        Target bitwidth.
    clip_quantile:
        Fraction of outliers to clip on each side when estimating bounds.
    alpha_min, alpha_max:
        Explicit bounds; when given they override the data-driven estimate
        (the paper lets "users or application settings" pick them).
    """
    bits = _check_bits(bits)
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ConfigError("cannot calibrate quantization on an empty tensor")
    if alpha_min is None:
        alpha_min = float(
            np.quantile(arr, clip_quantile) if clip_quantile > 0 else arr.min()
        )
    if alpha_max is None:
        alpha_max = float(
            np.quantile(arr, 1 - clip_quantile) if clip_quantile > 0 else arr.max()
        )
    if alpha_max <= alpha_min:
        # Degenerate (constant) tensor: use a unit range so codes are all 0.
        alpha_max = alpha_min + 1.0
    scale = (alpha_max - alpha_min) / (1 << bits)
    return QuantParams(bits=bits, alpha_min=alpha_min, scale=scale)


def quantize(
    values: np.ndarray,
    params: QuantParams | None = None,
    *,
    bits: int | None = None,
    clip_quantile: float = 0.0,
) -> tuple[np.ndarray, QuantParams]:
    """Quantize a float tensor to unsigned integer codes (paper Eq. 2).

    Either pass pre-computed ``params`` or a ``bits`` count (in which case
    the bounds are calibrated from ``values``).  Codes are clipped into
    ``[0, 2**bits - 1]`` — Eq. 2 alone would map ``alpha == alpha_max`` to
    ``2**bits``, one past the top code, so the top bucket is closed.

    Returns
    -------
    (codes, params):
        ``codes`` is an ``int64`` array with the same shape as ``values``.
    """
    if params is None:
        if bits is None:
            raise ConfigError("quantize() needs either `params` or `bits`")
        params = calibrate(values, bits, clip_quantile=clip_quantile)
    return quantize_into(values, params, np.int64), params


def quantize_into(values: np.ndarray, params: QuantParams, dtype) -> np.ndarray:
    """:func:`quantize`'s codes under given ``params``: Eq. 2 in one float64
    buffer, cast once to ``dtype`` (which must hold ``2**bits - 1`` exactly)
    and range-proven — the clip puts everything but NaN inside
    ``[0, 2**bits - 1]``, so one NaN-propagating reduction is the whole
    check and an :class:`~repro.core.bitpack.Operand` may take the codes as
    ``proven=True``.

    A 1-bit code is the one comparison ``values >= params.threshold``, run
    in float64 and written straight into ``dtype`` — code for code what the
    divide form yields, which stays the path for two bits and more.
    """
    if params.bits == 1:
        values = np.asarray(values)
        codes = np.greater_equal(
            values, params.threshold, out=np.empty(values.shape, dtype), signature="dd->?"
        )
        lowest = values.min(initial=0.0)
    else:
        codes = np.subtract(values, params.alpha_min, dtype=np.float64)
        np.divide(codes, params.scale, out=codes)
        np.floor(codes, out=codes)
        codes.clip(0, params.levels - 1, out=codes)
        lowest = codes.min(initial=0.0)
    if np.isnan(lowest):  # ``min`` propagates NaN; the clip and the compare hide it
        raise BitwidthError("cannot quantize NaN: codes must be non-negative integers")
    return codes.astype(dtype, copy=False)


def dequantize(codes: np.ndarray, params: QuantParams) -> np.ndarray:
    """Map integer codes back to (bucket-midpoint) float values.

    Using the bucket midpoint rather than its lower edge halves the worst
    case round-trip error and matches common uniform-quantizer practice.
    """
    codes = np.asarray(codes)
    return (codes.astype(np.float64) + 0.5) * params.scale + params.alpha_min


def quantization_error(values: np.ndarray, bits: int) -> float:
    """Mean absolute round-trip error of quantizing ``values`` at ``bits``.

    A convenience used by tests and the accuracy experiment to sanity-check
    that error shrinks monotonically (in expectation) as bits grow.
    """
    codes, params = quantize(values, bits=bits)
    recon = dequantize(codes, params)
    return float(np.mean(np.abs(np.asarray(values, dtype=np.float64) - recon)))

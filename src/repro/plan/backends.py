"""The built-in host backends (``packed``, ``blas``, ``sparse``).

Each :class:`~repro.plan.registry.Backend` couples an implementation
(built on the low-level kernels in :mod:`repro.core.bitgemm`) with its
capability metadata and the cost pricer the serving dispatcher consults.
Every ``run`` takes two :class:`~repro.core.bitpack.Operand`\\ s and
returns the reduced, exact ``(M, N)`` product: the word engines
shift-accumulate their 1-bit plane products pair by pair into int64,
``blas`` multiplies the integer codes once and returns the product in the
dtype that GEMM ran in.  Pricers consume the calibrated
:class:`~repro.plan.rates.HostRates`, so per-machine recalibration is a
value, not a subclass.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..core.bitgemm import (
    _sparse_plane_products,
    bmm_plane_packed,
    codes_gemm,
    exact_gemm_dtype,
)
from ..core.bitpack import Operand, tile_nonzero_mask
from ..errors import ShapeError
from .registry import Backend, BackendCaps, BackendPrice, PriceContext

__all__ = ["builtin_backends"]


# --------------------------------------------------------------------- #
# Implementations
# --------------------------------------------------------------------- #
def _run_packed(
    a: Operand, b: Operand, tile_masks: Sequence[np.ndarray] | None = None
) -> np.ndarray:
    """Word-at-a-time AND+popcount on the packed words (ignores masks)."""
    a_packed, b_packed = a.packed, b.packed
    m, n = a.logical_vectors, b.logical_vectors
    out = np.zeros((m, n), dtype=np.int64)
    for i in range(a.bits):
        for j in range(b.bits):
            full = bmm_plane_packed(a_packed.plane(i), b_packed.plane(j))
            out += full[:m, :n] << (i + j)
    return out


def _run_sparse(
    a: Operand, b: Operand, tile_masks: Sequence[np.ndarray] | None = None
) -> np.ndarray:
    """Zero-tile-skipping AND+popcount over only the non-zero 8x128 tiles
    of each A plane; bit-identical to ``packed`` (skipped tiles contribute
    nothing to any dot product)."""
    a_packed, b_packed = a.packed, b.packed
    m, n = a.logical_vectors, b.logical_vectors
    out = np.zeros((m, n), dtype=np.int64)
    grid = (a.padded_vectors // 8, a.k_words // 4)
    for i in range(a.bits):
        # One census per A plane, consumed by every B plane in a single
        # gathered pass (the host analogue of the §4.4 cross-tile schedule).
        mask = (
            np.asarray(tile_masks[i])
            if tile_masks is not None
            else tile_nonzero_mask(a_packed.plane(i))
        )
        if mask.shape != grid:
            raise ShapeError(
                f"tile mask shape {mask.shape} does not match the "
                f"{grid} tile grid of the plane"
            )
        full = _sparse_plane_products(a_packed.plane(i), b_packed.words, mask)
        for j in range(b.bits):
            out += full[j, :m, :n] << (i + j)
    return out


# --------------------------------------------------------------------- #
# Pricers (host seconds from HostRates; see serving.dispatch for context)
# --------------------------------------------------------------------- #
def _price_packed(ctx: PriceContext) -> BackendPrice:
    r = ctx.rates
    return BackendPrice(
        seconds=ctx.pairs * r.packed_pair_overhead_s + ctx.flops / r.packed_flops
    )


def _price_blas(ctx: PriceContext) -> BackendPrice:
    # What codes_gemm runs: one call, 2*M*K*N multiply-adds over a float
    # working set of both operands and the product.  (An upper bound for
    # the adjacency, which enters as CSR and touches only its non-zeros.)
    r, spec = ctx.rates, ctx.spec
    itemsize = exact_gemm_dtype(spec.k, spec.bits_a, spec.bits_b).itemsize
    working_set = itemsize * (spec.m * spec.k + spec.k * spec.n + spec.m * spec.n)
    seconds = (
        r.blas_call_overhead_s + 2.0 * spec.m * spec.k * spec.n / r.blas_flops
    )
    vetoed = (
        ctx.blas_bytes_budget is not None and working_set > ctx.blas_bytes_budget
    )
    return BackendPrice(seconds=seconds, bytes=working_set, vetoed=vetoed)


def _price_sparse(ctx: PriceContext) -> BackendPrice:
    # Only a 1-bit left operand (the adjacency) has a tile census, and only
    # an observed census makes the price a measurement rather than a guess.
    fraction = ctx.tile_fraction
    if ctx.spec.bits_a != 1 or fraction is None:
        return BackendPrice(seconds=math.inf)
    r = ctx.rates
    groups = min(
        max(ctx.spec.m // 8, 1), math.ceil(1.0 / max(fraction, 1e-9))
    )
    seconds = (
        ctx.pairs * r.packed_pair_overhead_s
        + ctx.flops * fraction / r.packed_flops
        + groups * r.sparse_group_overhead_s
    )
    return BackendPrice(seconds=seconds, tile_fraction=fraction)


def builtin_backends() -> tuple[Backend, Backend, Backend]:
    """Fresh instances of the three built-in backends, registration order
    ``packed``, ``blas``, ``sparse`` (ties in pricing resolve to the
    first)."""
    return (
        Backend(
            name="packed",
            run=_run_packed,
            caps=BackendCaps(
                summary="word-at-a-time popcount(a & b) on the uint32 storage"
            ),
            pricer=_price_packed,
        ),
        Backend(
            name="blas",
            run=codes_gemm,
            caps=BackendCaps(
                consumes_words=False,
                summary="one exact GEMM on the integer codes "
                "(float32/float64/int64 by bound; CSR adjacency)",
            ),
            pricer=_price_blas,
        ),
        Backend(
            name="sparse",
            run=_run_sparse,
            caps=BackendCaps(
                consumes_tile_masks=True,
                summary="zero-tile-skipping popcount over non-zero 8x128 tiles",
            ),
            pricer=_price_sparse,
        ),
    )

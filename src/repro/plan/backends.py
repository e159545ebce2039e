"""The built-in host backends (``packed``, ``blas``, ``sparse``).

The plane-product loops that used to be inline branches of
:func:`repro.core.bitgemm.bitgemm_planes` are expressed here as registry
entries: each :class:`~repro.plan.registry.Backend` couples the
implementation (built on the low-level kernels that remain in
:mod:`repro.core.bitgemm`) with its capability metadata and the cost
pricer the serving dispatcher consults.  Pricers consume the calibrated
:class:`~repro.plan.rates.HostRates`, so per-machine recalibration is a
value, not a subclass.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..core.bitgemm import BLAS_EXACT_K, _sparse_plane_products, bmm_plane_packed
from ..core.bitpack import PackedBits, tile_nonzero_mask
from ..errors import ShapeError
from .registry import Backend, BackendCaps, BackendPrice, PriceContext

__all__ = ["builtin_backends"]


# --------------------------------------------------------------------- #
# Plane-product implementations
# --------------------------------------------------------------------- #
def _run_packed(
    a_packed: PackedBits,
    b_packed: PackedBits,
    tile_masks: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Word-at-a-time AND+popcount on the packed words (ignores masks)."""
    m, n = a_packed.logical_vectors, b_packed.logical_vectors
    out = np.empty((a_packed.bits, b_packed.bits, m, n), dtype=np.int64)
    for i in range(a_packed.bits):
        for j in range(b_packed.bits):
            full = bmm_plane_packed(a_packed.plane(i), b_packed.plane(j))
            out[i, j] = full[:m, :n]
    return out


def _run_blas(
    a_packed: PackedBits,
    b_packed: PackedBits,
    tile_masks: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Unpack the planes to float32 and multiply with BLAS — exact for 0/1
    dot products of length ``K < BLAS_EXACT_K``, which plan compilation
    enforces (``compile_gemm_step`` rejects, the pricer vetoes)."""
    m, n = a_packed.logical_vectors, b_packed.logical_vectors
    out = np.empty((a_packed.bits, b_packed.bits, m, n), dtype=np.int64)
    a_planes = a_packed.to_planes().astype(np.float32)  # (ba, M, K)
    b_planes = b_packed.to_planes().astype(np.float32)  # (bb, K, N)
    for i in range(a_packed.bits):
        for j in range(b_packed.bits):
            out[i, j] = (a_planes[i] @ b_planes[j]).astype(np.int64)
    return out


def _run_sparse(
    a_packed: PackedBits,
    b_packed: PackedBits,
    tile_masks: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Zero-tile-skipping AND+popcount over only the non-zero 8x128 tiles
    of each A plane; bit-identical to ``packed`` (skipped tiles contribute
    nothing to any dot product)."""
    m, n = a_packed.logical_vectors, b_packed.logical_vectors
    out = np.empty((a_packed.bits, b_packed.bits, m, n), dtype=np.int64)
    grid = (a_packed.padded_vectors // 8, a_packed.k_words // 4)
    for i in range(a_packed.bits):
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
        out[i] = full[:, :m, :n]
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
    r, spec = ctx.rates, ctx.spec
    plane_bytes = 4 * (
        spec.bits_a * spec.m * spec.k + spec.bits_b * spec.k * spec.n
    )
    seconds = (
        ctx.pairs * r.blas_pair_overhead_s
        + ctx.flops / r.blas_flops
        + plane_bytes / r.unpack_bytes_per_s
    )
    # Two resource vetoes: the unpacked-plane memory budget, and the
    # float32 exactness bound _run_blas relies on but never checks.
    vetoed = spec.k >= BLAS_EXACT_K or (
        ctx.blas_bytes_budget is not None and plane_bytes > ctx.blas_bytes_budget
    )
    return BackendPrice(seconds=seconds, bytes=plane_bytes, vetoed=vetoed)


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
            run_planes=_run_packed,
            caps=BackendCaps(
                summary="word-at-a-time popcount(a & b) on the uint32 storage"
            ),
            pricer=_price_packed,
        ),
        Backend(
            name="blas",
            run_planes=_run_blas,
            caps=BackendCaps(
                summary="unpack planes to float32, exact BLAS matmul"
            ),
            pricer=_price_blas,
        ),
        Backend(
            name="sparse",
            run_planes=_run_sparse,
            caps=BackendCaps(
                consumes_tile_masks=True,
                summary="zero-tile-skipping popcount over non-zero 8x128 tiles",
            ),
            pricer=_price_sparse,
        ),
    )

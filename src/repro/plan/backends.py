"""The built-in host backends (``packed``, ``blas``).

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

import numpy as np

from ..core.bitgemm import bmm_plane_packed, codes_gemm, exact_gemm_dtype
from ..core.bitpack import Operand
from .registry import Backend, BackendCaps, BackendPrice, PriceContext

__all__ = ["builtin_backends"]


# --------------------------------------------------------------------- #
# Implementations
# --------------------------------------------------------------------- #
def _run_packed(a: Operand, b: Operand) -> np.ndarray:
    """Word-at-a-time AND+popcount on the packed words."""
    a_packed, b_packed = a.packed, b.packed
    m, n = a.logical_vectors, b.logical_vectors
    out = np.zeros((m, n), dtype=np.int64)
    for i in range(a.bits):
        for j in range(b.bits):
            full = bmm_plane_packed(a_packed.plane(i), b_packed.plane(j))
            out += full[:m, :n] << (i + j)
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


def builtin_backends() -> tuple[Backend, Backend]:
    """Fresh instances of the two built-in backends, registration order
    ``packed``, ``blas`` (ties in pricing resolve to the first)."""
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
    )

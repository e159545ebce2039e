"""The built-in host backends (``packed``, ``blas``).

Each :class:`~repro.plan.registry.Backend` couples an implementation
(built on the low-level kernels in :mod:`repro.core.bitgemm`) with its
capability metadata.  Every ``run`` takes two
:class:`~repro.core.bitpack.Operand`\\ s and returns the reduced, exact ``(M, N)`` product: the word engines
shift-accumulate their 1-bit plane products pair by pair into int64,
``blas`` multiplies the integer codes once and returns the product in the
dtype that GEMM ran in.  :func:`~repro.plan.registry.static_backend` picks
between them.
"""

from __future__ import annotations

import numpy as np

from ..core.bitgemm import bmm_plane_packed, codes_gemm
from ..core.bitpack import Operand
from .registry import Backend, BackendCaps

__all__ = ["builtin_backends"]


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


def builtin_backends() -> tuple[Backend, Backend]:
    """Fresh instances of the two built-in backends, registration order
    ``packed``, ``blas``."""
    return (
        Backend(
            name="packed",
            run=_run_packed,
            caps=BackendCaps(
                summary="word-at-a-time popcount(a & b) on the uint32 storage"
            ),
        ),
        Backend(
            name="blas",
            run=codes_gemm,
            caps=BackendCaps(
                consumes_words=False,
                summary="one exact GEMM on the integer codes "
                "(float32/float64/int64 by bound; CSR adjacency)",
            ),
        ),
    )

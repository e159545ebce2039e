"""Warp Matrix Multiply-Accumulate emulation (paper §2.3, Listing 1).

Reproduces the four WMMA operations QGTC's CUDA kernels use, operating on
the packed word storage of :mod:`repro.core.bitpack`:

* :func:`load_matrix_sync` — stage an 8x128-bit operand tile into a fragment,
* :func:`bmma_sync` — the 1-bit ``D = popc(A & B) + C`` tile product,
* :func:`store_matrix_sync` — write an 8x8 accumulator tile back,
* :meth:`Fragment.fill` — ``wmma::fill_fragment``.

Every call optionally charges a :class:`~repro.tc.counters.KernelCounters`
so higher-level kernels account traffic exactly where it occurs.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .counters import KernelCounters
from .fragments import FRAG_A_SHAPE, Fragment

__all__ = ["load_matrix_sync", "bmma_sync", "store_matrix_sync"]

#: Bytes of one 8x128-bit operand tile (8 rows x 4 words x 4 bytes).
TILE_OPERAND_BYTES = 8 * 4 * 4
#: Bytes of one 8x8 uint32 accumulator tile.
TILE_ACCUM_BYTES = 8 * 8 * 4


def load_matrix_sync(
    role: str,
    words: np.ndarray,
    tile_row: int,
    tile_kword: int,
    *,
    counters: KernelCounters | None = None,
) -> Fragment:
    """Load one operand tile from packed global memory into a fragment.

    Parameters
    ----------
    role:
        ``"matrix_a"`` or ``"matrix_b"``.
    words:
        Packed plane, shape ``(vectors, k_words)`` uint32 — rows of ``A``
        (column-wise compression) or columns of ``B`` (row-wise).
    tile_row:
        Tile index along the vector axis (each tile covers 8 vectors).
    tile_kword:
        Tile index along K (each tile covers 4 words = 128 bits).
    """
    if role not in ("matrix_a", "matrix_b"):
        raise ShapeError(f"operand role must be matrix_a/matrix_b, got {role!r}")
    if words.ndim != 2 or words.dtype != np.uint32:
        raise ShapeError("packed plane must be a 2-D uint32 array")
    r0, w0 = tile_row * 8, tile_kword * 4
    if r0 + 8 > words.shape[0] or w0 + 4 > words.shape[1]:
        raise ShapeError(
            f"tile ({tile_row}, {tile_kword}) out of bounds for plane {words.shape}"
        )
    frag = Fragment(role=role, data=np.ascontiguousarray(words[r0 : r0 + 8, w0 : w0 + 4]))
    if counters is not None:
        if role == "matrix_a":
            counters.frag_loads_a += 1
        else:
            counters.frag_loads_b += 1
        counters.global_bytes_read += TILE_OPERAND_BYTES
    return frag


def bmma_sync(
    c_frag: Fragment,
    a_frag: Fragment,
    b_frag: Fragment,
    *,
    shift: int = 0,
    counters: KernelCounters | None = None,
) -> Fragment:
    """1-bit tensor-core tile product: ``C += popc(A_row & B_col) << shift``.

    ``shift`` implements the bit-position weighting of the composed
    any-bitwidth GEMM (Eq. 5/6): hardware bmma always accumulates at weight
    1, and QGTC's kernel shifts partial tiles during the epilogue; folding
    the shift here keeps the emulation single-pass without changing the
    arithmetic.
    """
    if a_frag.role != "matrix_a" or b_frag.role != "matrix_b":
        raise ShapeError("bmma_sync operand fragments have wrong roles")
    if c_frag.role != "accumulator":
        raise ShapeError("bmma_sync accumulator fragment has wrong role")
    if a_frag.data.shape != FRAG_A_SHAPE:
        raise ShapeError("malformed A fragment")
    # popcount(a & b) summed over the 4 K-words = 1-bit dot product of the
    # 128-bit row/column pair (paper Eq. 7).
    anded = a_frag.data[:, None, :] & b_frag.data[None, :, :]
    if hasattr(np, "bitwise_count"):
        dots = np.bitwise_count(anded).sum(axis=-1, dtype=np.int64)
    else:  # pragma: no cover - exercised only on NumPy < 2.0
        from ..core.bitops import popcount_table

        dots = popcount_table(anded).sum(axis=-1, dtype=np.int64)
    c_frag.data += dots << shift
    if counters is not None:
        counters.mma_ops += 1
    return c_frag


def store_matrix_sync(
    out: np.ndarray,
    c_frag: Fragment,
    tile_row: int,
    tile_col: int,
    *,
    counters: KernelCounters | None = None,
) -> None:
    """Store an accumulator tile into the int64 result matrix."""
    if c_frag.role != "accumulator":
        raise ShapeError("store_matrix_sync expects an accumulator fragment")
    r0, c0 = tile_row * 8, tile_col * 8
    if r0 + 8 > out.shape[0] or c0 + 8 > out.shape[1]:
        raise ShapeError(
            f"tile ({tile_row}, {tile_col}) out of bounds for output {out.shape}"
        )
    out[r0 : r0 + 8, c0 : c0 + 8] = c_frag.data
    if counters is not None:
        counters.frag_stores += 1
        counters.global_bytes_written += TILE_ACCUM_BYTES

"""Bit decomposition and recomposition of integer codes (paper §3.1).

QGTC's central algorithmic idea is that any ``q``-bit integer tensor can be
split into ``q`` binary *bit planes* — plane ``i`` holds bit ``i`` of every
element — and that arithmetic between quantized tensors reduces to 1-bit
arithmetic between planes followed by shift-and-add (paper Eq. 5/6).

Planes are stored LSB-first: ``planes[0]`` is the 2^0 plane.  This matches
Algorithm 1 in the paper where ``X_list[i]`` contributes at bit position
``i``.
"""

from __future__ import annotations

import numpy as np

from ..errors import BitwidthError, ShapeError
from .quantization import MAX_BITS

__all__ = ["bit_decompose", "bit_compose", "check_codes", "required_bits"]


def required_bits(codes: np.ndarray) -> int:
    """Smallest bitwidth that can represent every value in ``codes``.

    Returns 1 for an all-zero tensor (a 0-bit tensor is not a thing in the
    TC pipeline — the adjacency matrix of an empty graph still occupies one
    plane).
    """
    arr = np.asarray(codes)
    if arr.size == 0:
        return 1
    top = int(arr.max(initial=0))
    if int(arr.min(initial=0)) < 0:
        raise BitwidthError("bit decomposition requires non-negative codes")
    return max(1, int(top).bit_length())


def check_codes(codes: np.ndarray, bits: int) -> np.ndarray:
    """``codes`` as ``int64``, checked to be non-negative integers that fit
    in ``bits`` bits — the precondition of plane splitting and of the exact
    GEMM's dtype bound (:func:`~repro.core.bitgemm.exact_gemm_dtype`)."""
    if not 1 <= bits <= MAX_BITS:
        raise BitwidthError(f"bits must be in [1, {MAX_BITS}], got {bits}")
    arr = np.asarray(codes)
    if arr.dtype.kind not in "iu":
        if arr.dtype.kind == "f" and np.all(arr == np.floor(arr)):
            arr = arr.astype(np.int64)
        else:
            raise BitwidthError(
                f"bit_decompose expects an integer array, got dtype {arr.dtype}"
            )
    arr = arr.astype(np.int64, copy=False)
    if arr.size:
        lo = int(arr.min())
        hi = int(arr.max())
        if lo < 0:
            raise BitwidthError("bit decomposition requires non-negative codes")
        if hi >= (1 << bits):
            raise BitwidthError(
                f"value {hi} does not fit in {bits} bits (max {(1 << bits) - 1})"
            )
    return arr


def bit_decompose(codes: np.ndarray, bits: int) -> np.ndarray:
    """Split integer codes into ``bits`` binary planes, LSB first.

    Parameters
    ----------
    codes:
        Non-negative integer array; every element must fit in ``bits`` bits.
    bits:
        Number of planes to produce.

    Returns
    -------
    ``uint8`` array of shape ``(bits, *codes.shape)`` with values in {0, 1}.
    """
    arr = check_codes(codes, bits)
    shifts = np.arange(bits, dtype=np.int64).reshape((bits,) + (1,) * arr.ndim)
    planes = (arr[None, ...] >> shifts) & 1
    return planes.astype(np.uint8)


def bit_compose(planes: np.ndarray) -> np.ndarray:
    """Inverse of :func:`bit_decompose`: shift-and-add the planes.

    Accepts any array whose leading axis indexes planes (LSB first) and
    whose values are {0, 1}.  Returns ``int64``.
    """
    arr = np.asarray(planes)
    if arr.ndim < 1:
        raise ShapeError("bit_compose expects at least one plane axis")
    bits = arr.shape[0]
    if bits > MAX_BITS:
        raise BitwidthError(f"too many planes: {bits} > {MAX_BITS}")
    if arr.size and (arr.min() < 0 or arr.max() > 1):
        raise BitwidthError("bit planes must be binary (0/1)")
    weights = (np.int64(1) << np.arange(bits, dtype=np.int64)).reshape(
        (bits,) + (1,) * (arr.ndim - 1)
    )
    return np.sum(arr.astype(np.int64) * weights, axis=0)

"""Any-bitwidth matrix multiplication via 1-bit composition (paper §3).

The product of an ``s``-bit matrix ``A`` and a ``t``-bit matrix ``B`` is
assembled from ``s * t`` one-bit GEMMs: plane ``i`` of ``A`` times plane
``j`` of ``B`` contributes at bit position ``i + j`` (paper Eq. 5/6 and
Algorithm 1):

.. math::

    C = \\sum_{i<s} \\sum_{j<t} \\mathrm{BMM}(A_i, B_j) \\ll (i + j)

Each 1-bit GEMM is an AND + popcount over the packed K dimension
(paper Eq. 7).  That decomposition is what a Tensor Core needs; a host
engine may equally multiply the integer codes directly, so a GEMM operand
is an :class:`~repro.core.bitpack.Operand` — codes and/or packed words,
each derived from the other on first use — and every engine returns the
reduced, exact ``(M, N)`` product, as int64 or as the float dtype
:func:`exact_gemm_dtype` proves exact (:func:`bitgemm` hands back int64):

* ``"packed"`` — word-at-a-time ``popcount(a & b)`` on the uint32 storage,
  exactly what the emulated Tensor Core executes, shift-accumulated pair
  by pair.  Memory-blocked.
* ``"blas"`` — :func:`codes_gemm`: *one* GEMM on the integer codes, in the
  narrowest dtype that is provably exact (:func:`exact_gemm_dtype`), with
  a codes-less 1-bit left operand (the adjacency) entering as CSR.

The paper's §4.3 zero-tile jumping is not a host engine: the tile census
(:meth:`~repro.core.bitpack.Operand.tile_masks`) feeds the emulated
kernel's modeled counters and its literal fragment loop
(:mod:`repro.tc.kernel`), which skip exactly the tiles it marks.

All engines are tested against each other and against an int64 reference.
:func:`bitgemm_planes` / :func:`reduce_plane_products` keep Algorithm 1's
intermediate — the ``bits_a x bits_b`` stack of 1-bit products — as a view
built on the packed kernel.

Engines are *registered objects*: each lives in the
:class:`~repro.plan.registry.BackendRegistry` as a
:class:`~repro.plan.registry.Backend` carrying capability metadata and a
cost pricer (see :mod:`repro.plan.backends` for the two built-ins).  The
``engine=`` parameters here are a compatibility shim over that registry:
they accept the literal names above, any custom backend name registered
via :func:`repro.plan.register_backend`, *or* an :data:`EngineSelector` —
a callable ``(m, k, n, bits_a, bits_b) -> name`` — so callers such as the
serving dispatcher (:mod:`repro.serving.dispatch`) can pick the engine per
product from a cost model instead of the built-in size threshold.  Pass
``registry=`` to resolve names against a non-default registry.

Scalar- and vector-level decomposed products (Eq. 5/6 verbatim) are included
as executable documentation; the test-suite uses them as independent oracles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Union

import numpy as np

from ..errors import BitwidthError, ShapeError
from .bitdecomp import bit_decompose
from .bitops import and_popcount
from .bitpack import Operand, PackedBits, as_operand, check_pair

if TYPE_CHECKING:  # pragma: no cover - typing only (plan layers above core)
    from ..plan.registry import BackendRegistry

__all__ = [
    "ENGINE_NAMES",
    "Engine",
    "EngineSelector",
    "scalar_mul_decomposed",
    "vector_dot_decomposed",
    "bmm_plane_packed",
    "bitgemm_planes",
    "bitgemm",
    "bitgemm_codes",
    "codes_gemm",
    "exact_gemm_dtype",
    "matmul_int_reference",
    "reduce_plane_products",
]

#: A pluggable engine chooser: ``(m, k, n, bits_a, bits_b) -> engine name``.
EngineSelector = Callable[[int, int, int, int, int], str]
#: ``"auto"``, a registered backend name, or a selector callable.
Engine = Union[str, EngineSelector]

#: Names of the built-in backends (the default registry may hold more;
#: see :func:`repro.plan.register_backend`).
ENGINE_NAMES = ("packed", "blas")

#: Row-block size of the packed engine; caps the broadcast temporary at
#: roughly ``block * N * k_words * 4`` bytes.
_PACKED_ROW_BLOCK = 128


def scalar_mul_decomposed(a: int, b: int, bits_a: int, bits_b: int) -> int:
    """Multiply two quantized scalars by explicit bit composition (Eq. 5).

    Decomposes ``a`` into ``bits_a`` bits and ``b`` into ``bits_b`` bits,
    forms every cross term ``a_i * b_j`` and accumulates it at bit position
    ``i + j``.  Used as an oracle in tests; the array code below is the same
    arithmetic vectorized.
    """
    if a < 0 or b < 0:
        raise BitwidthError("decomposed multiply requires non-negative codes")
    if a >= (1 << bits_a) or b >= (1 << bits_b):
        raise BitwidthError("operand does not fit its declared bitwidth")
    total = 0
    for i in range(bits_a):
        for j in range(bits_b):
            total += ((a >> i) & 1) * ((b >> j) & 1) << (i + j)
    return total


def vector_dot_decomposed(
    va: np.ndarray, vb: np.ndarray, bits_a: int, bits_b: int
) -> int:
    """Dot product of two quantized vectors by bit composition (Eq. 6/7).

    For every pair of bit positions, the partial result is
    ``popcount(a_bits & b_bits)`` — the AND + popcount identity the Tensor
    Core path relies on.
    """
    va = np.asarray(va, dtype=np.int64)
    vb = np.asarray(vb, dtype=np.int64)
    if va.shape != vb.shape or va.ndim != 1:
        raise ShapeError(f"expected equal-length vectors, got {va.shape}, {vb.shape}")
    pa = bit_decompose(va, bits_a).astype(bool)
    pb = bit_decompose(vb, bits_b).astype(bool)
    total = 0
    for i in range(bits_a):
        for j in range(bits_b):
            total += int(np.count_nonzero(pa[i] & pb[j])) << (i + j)
    return total


def matmul_int_reference(a_codes: np.ndarray, b_codes: np.ndarray) -> np.ndarray:
    """Exact int64 matrix product — the oracle every engine must match."""
    a = np.asarray(a_codes, dtype=np.int64)
    b = np.asarray(b_codes, dtype=np.int64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"incompatible matmul shapes {a.shape} x {b.shape}")
    return a @ b


def bmm_plane_packed(
    a_words: np.ndarray, b_words: np.ndarray, *, row_block: int = _PACKED_ROW_BLOCK
) -> np.ndarray:
    """1-bit GEMM on packed words: ``C[m, n] = popcnt(Arow_m & Bcol_n)``.

    ``a_words`` is ``(M, W)``, ``b_words`` is ``(N, W)`` (both packed along
    K).  Blocked over rows of ``A`` so the broadcast temporary stays small —
    the software analogue of walking TC fragments tile by tile.
    """
    a_words = np.asarray(a_words)
    b_words = np.asarray(b_words)
    if a_words.ndim != 2 or b_words.ndim != 2:
        raise ShapeError("bmm_plane_packed expects 2-D packed word arrays")
    if a_words.shape[1] != b_words.shape[1]:
        raise ShapeError(
            f"packed K-word axes differ: {a_words.shape[1]} vs {b_words.shape[1]}"
        )
    m = a_words.shape[0]
    out = np.empty((m, b_words.shape[0]), dtype=np.int64)
    for start in range(0, m, row_block):
        stop = min(start + row_block, m)
        out[start:stop] = and_popcount(
            a_words[start:stop, None, :], b_words[None, :, :]
        )
    return out


def exact_gemm_dtype(k: int, bits_a: int, bits_b: int) -> np.dtype:
    """Narrowest dtype in which a ``bits_a x bits_b``-bit product of
    reduction length ``k`` accumulates exactly.

    No output element exceeds ``k * (2**bits_a - 1) * (2**bits_b - 1)``,
    and every partial sum of non-negative integers is bounded by the final
    one — so below ``2**24`` float32 (below ``2**53`` float64) represents
    each intermediate exactly under any summation order or FMA.  Past that,
    int64 (wrapping exactly as the oracle's int64 does).
    """
    bound = k * ((1 << bits_a) - 1) * ((1 << bits_b) - 1)
    if bound < 1 << 24:
        return np.dtype(np.float32)
    if bound < 1 << 53:
        return np.dtype(np.float64)
    return np.dtype(np.int64)


def codes_gemm(a: Operand, b: Operand, _masks: object = None) -> np.ndarray:
    """The exact product as one GEMM on the integer codes, each operand —
    and the result — in :func:`exact_gemm_dtype`'s dtype (a packed
    adjacency as CSR — see :meth:`~repro.core.bitpack.Operand.matrix`).
    The ``blas`` backend's ``run``.  An operand quantized straight into
    that dtype says so (``gemm_dtype``).  A third argument is ignored, so
    a wrapper written for the old ``(a, b, tile_masks)`` runner still
    calls it."""
    dtype = a.gemm_dtype if a.gemm_dtype is not None else b.gemm_dtype
    if dtype is None:
        dtype = exact_gemm_dtype(a.logical_k, a.bits, b.bits)
    return a.matrix(dtype) @ b.matrix(dtype)


def _resolve_backend(
    engine: Engine,
    a: Operand,
    b: Operand,
    registry: "BackendRegistry | None" = None,
):
    """Compatibility shim: resolve an ``engine=`` argument to a registered
    :class:`~repro.plan.registry.Backend` (imported lazily — the plan layer
    sits above core)."""
    from ..plan.registry import default_registry, resolve_engine_name

    # None check, not truthiness: an empty caller registry (falsy — it
    # defines __len__) must not silently become the default backend set.
    if registry is None:
        registry = default_registry()
    spec = None  # a literal name is validated against the registry alone
    if callable(engine) or engine == "auto":
        from ..plan.ir import GemmSpec

        spec = GemmSpec(
            m=a.logical_vectors, k=a.logical_k, n=b.logical_vectors,
            bits_a=a.bits, bits_b=b.bits,
        )
    return registry.get(resolve_engine_name(engine, spec, registry))


def bitgemm_planes(a_packed: PackedBits, b_packed: PackedBits) -> np.ndarray:
    """All pairwise 1-bit plane products of two packed matrices.

    Returns an int64 array of shape ``(bits_a, bits_b, M, N)`` where entry
    ``[i, j]`` is ``BMM(A_i, B_j)`` on the *logical* (unpadded) shapes —
    the partial bit-matrices Algorithm 1 stores before its shift-add
    reduction (:func:`reduce_plane_products`).  The executable view of the
    paper's decomposition, computed by the packed AND+popcount kernel; no
    serving backend materializes it (each returns the reduced product).
    """
    check_pair(a_packed, b_packed)
    m, n = a_packed.logical_vectors, b_packed.logical_vectors
    out = np.empty((a_packed.bits, b_packed.bits, m, n), dtype=np.int64)
    for i in range(a_packed.bits):
        for j in range(b_packed.bits):
            out[i, j] = bmm_plane_packed(a_packed.plane(i), b_packed.plane(j))[:m, :n]
    return out


def reduce_plane_products(partial: np.ndarray) -> np.ndarray:
    """Shift-add a ``(bits_a, bits_b, M, N)`` plane-product stack into the
    exact int64 GEMM result (the reduction step of Algorithm 1)."""
    bits_a, bits_b = partial.shape[0], partial.shape[1]
    shifts = np.arange(bits_a)[:, None] + np.arange(bits_b)[None, :]
    weights = (np.int64(1) << shifts.astype(np.int64))[:, :, None, None]
    return np.sum(partial * weights, axis=(0, 1), dtype=np.int64)


def bitgemm(
    a: "Operand | PackedBits",
    b: "Operand | PackedBits",
    *,
    engine: Engine = "auto",
    registry: "BackendRegistry | None" = None,
) -> np.ndarray:
    """Any-bitwidth GEMM on a registered backend.

    Returns the exact int64 product of the underlying integer matrices,
    shape ``(M, N)``.  Operands are :class:`~repro.core.bitpack.Operand`\\ s
    (a bare :class:`PackedBits` is wrapped); the backend resolved from
    ``engine`` reads whichever form it consumes.
    """
    a, b = as_operand(a), as_operand(b)
    check_pair(a, b)
    product = _resolve_backend(engine, a, b, registry).run(a, b)
    return product.astype(np.int64, copy=False)


def bitgemm_codes(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    bits_a: int,
    bits_b: int,
    *,
    engine: Engine = "auto",
    registry: "BackendRegistry | None" = None,
) -> np.ndarray:
    """Convenience wrapper: multiply two integer-code matrices in one call."""
    return bitgemm(
        Operand(a_codes, bits_a, "col"),
        Operand(b_codes, bits_b, "row"),
        engine=engine,
        registry=registry,
    )

"""3D-stacked bit compression (paper §4.2).

A quantized ``q``-bit matrix is stored as ``q`` binary planes stacked along a
*z* axis, each plane packed into 32-bit little-endian words along the GEMM
reduction dimension ``K``:

* **column-wise compression** for the left operand ``A`` (shape ``M x K``):
  each *row* of ``A`` is packed along ``K`` so the kernel streams coalesced
  words while walking a row.  Padded to ``PAD8(M) x PAD128(K)`` (or
  ``PAD128(M)`` when the result feeds the next layer as a new ``A``).
* **row-wise compression** for the right operand ``B`` (shape ``K x N``):
  each *column* of ``B`` is packed along ``K``.  Padded to
  ``PAD128(K) x PAD8(N)`` (or ``PAD128(N)`` for hidden layers).

Both layouts store, for logical vector ``i``, the word array
``words[plane, i, w]`` where bit ``j`` of word ``w`` is element ``32*w + j``
of the vector (little-endian, as in the paper's Figure 4).  The paper-order
shape for row-wise compression — ``bits x K/32 x N`` — is the transpose of
our storage and available via :meth:`PackedBits.paper_order`.

Padding uses zeros, which are exact for AND+popcount arithmetic: padded
positions contribute nothing to any dot product, and padded output rows /
columns are sliced away on unpack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
import scipy.sparse as sp

from ..errors import PackingError, ShapeError
from .bitdecomp import bit_compose, bit_decompose, check_codes
from .bitops import WORD_BITS

__all__ = [
    "TC_M",
    "TC_N",
    "TC_K",
    "pad_to",
    "Operand",
    "PackedBits",
    "as_operand",
    "bit_address",
    "block_diagonal",
    "check_pair",
    "pack_bit_planes",
    "pack_edges",
    "pack_matrix",
    "tile_nonzero_mask",
    "unpack_bit_planes",
    "unpack_matrix",
]

#: 1-bit WMMA tile dimensions on Turing/Ampere: ``m8 n8 k128``.
TC_M = 8
TC_N = 8
TC_K = 128

Layout = Literal["col", "row"]


def pad_to(n: int, multiple: int) -> int:
    """Round ``n`` up to the next multiple of ``multiple`` (PAD8 / PAD128)."""
    if n < 0 or multiple <= 0:
        raise ShapeError(f"cannot pad {n} to a multiple of {multiple}")
    return ((n + multiple - 1) // multiple) * multiple


@dataclass(frozen=True)
class PackedBits:
    """A bit-compressed matrix: ``bits`` planes of packed 32-bit words.

    Attributes
    ----------
    words:
        ``uint32`` array of shape ``(bits, padded_vectors, k_words)``;
        ``words[p, i, w]`` packs elements ``[32w, 32w+32)`` of logical
        vector ``i`` (a row of ``A`` for column-wise layout, a column of
        ``B`` for row-wise layout) at bit position ``p``.
    bits:
        Number of bit planes (the quantization bitwidth).
    layout:
        ``"col"`` (left operand, packed along K per row) or ``"row"``
        (right operand, packed along K per column).
    logical_vectors:
        Unpadded count of logical vectors (``M`` for col, ``N`` for row).
    logical_k:
        Unpadded reduction length ``K``.
    pad_vectors:
        The multiple the vector axis was padded to (8 or 128).
    """

    words: np.ndarray
    bits: int
    layout: Layout
    logical_vectors: int
    logical_k: int
    pad_vectors: int

    def __post_init__(self) -> None:
        if self.layout not in ("col", "row"):
            raise PackingError(f"unknown layout {self.layout!r}")
        if self.words.dtype != np.uint32:
            raise PackingError(f"packed words must be uint32, got {self.words.dtype}")
        if self.words.ndim != 3:
            raise PackingError(
                f"packed words must be (bits, vectors, kwords), got {self.words.shape}"
            )
        if self.words.shape[0] != self.bits:
            raise PackingError(
                f"plane count {self.words.shape[0]} != bits {self.bits}"
            )
        # Degenerate (empty) matrices still occupy one padded tile — the
        # same ``max(n, 1)`` rule :func:`pack_bit_planes` pads with.
        expected_vectors = pad_to(max(self.logical_vectors, 1), self.pad_vectors)
        if self.words.shape[1] != expected_vectors:
            raise PackingError(
                f"padded vector axis {self.words.shape[1]} != "
                f"PAD{self.pad_vectors}({self.logical_vectors}) = {expected_vectors}"
            )
        expected_words = pad_to(max(self.logical_k, 1), TC_K) // WORD_BITS
        if self.words.shape[2] != expected_words:
            raise PackingError(
                f"k-word axis {self.words.shape[2]} != "
                f"PAD128({self.logical_k})/32 = {expected_words}"
            )

    # ------------------------------------------------------------------ #
    # Shape metadata
    # ------------------------------------------------------------------ #
    @property
    def padded_vectors(self) -> int:
        """Vector count after PAD8/PAD128 padding."""
        return self.words.shape[1]

    @property
    def k_words(self) -> int:
        """Number of 32-bit words along the packed K axis."""
        return self.words.shape[2]

    @property
    def padded_k(self) -> int:
        """Reduction length after PAD128 padding."""
        return self.k_words * WORD_BITS

    @property
    def logical_shape(self) -> tuple[int, int]:
        """Unpadded matrix shape: ``(M, K)`` for col, ``(K, N)`` for row."""
        if self.layout == "col":
            return (self.logical_vectors, self.logical_k)
        return (self.logical_k, self.logical_vectors)

    @property
    def nbytes(self) -> int:
        """Bytes of packed storage — what travels over the emulated PCIe bus."""
        return self.words.nbytes

    def plane(self, index: int) -> np.ndarray:
        """Packed words of one bit plane, shape ``(padded_vectors, k_words)``."""
        if not 0 <= index < self.bits:
            raise PackingError(f"plane {index} out of range [0, {self.bits})")
        return self.words[index]

    def paper_order(self) -> np.ndarray:
        """Words in the paper's published axis order.

        Column-wise: ``bits x PAD(M) x K/32`` (same as storage).
        Row-wise: ``bits x K/32 x PAD(N)`` (transpose of storage).
        """
        if self.layout == "col":
            return self.words
        return self.words.transpose(0, 2, 1)

    # ------------------------------------------------------------------ #
    # Round-trip
    # ------------------------------------------------------------------ #
    def to_codes(self) -> np.ndarray:
        """Unpack and recompose to the original integer codes."""
        return unpack_matrix(self)


def _pack_planes_along_last(planes: np.ndarray) -> np.ndarray:
    """Pack a ``(bits, vectors, K)`` binary array along K into uint32 words."""
    bits, vectors, k = planes.shape
    padded_k = pad_to(max(k, 1), TC_K)
    if padded_k != k:
        planes = np.pad(planes, ((0, 0), (0, 0), (0, padded_k - k)))
    packed_bytes = np.packbits(planes, axis=-1, bitorder="little")
    # 4 consecutive little-endian bytes form one little-endian uint32, so bit
    # j of word w is element 32w + j — the layout of paper Figure 4.
    return (
        np.ascontiguousarray(packed_bytes)
        .view(np.uint32)
        .reshape(bits, vectors, padded_k // WORD_BITS)
    )


def pack_bit_planes(
    planes: np.ndarray,
    layout: Layout = "col",
    *,
    pad_vectors: int = TC_M,
) -> PackedBits:
    """Pack pre-decomposed binary planes into a :class:`PackedBits`.

    Parameters
    ----------
    planes:
        ``(bits, M, K)`` for ``layout="col"`` — planes of the left operand —
        or ``(bits, K, N)`` for ``layout="row"`` — planes of the right
        operand.
    layout:
        Which GEMM side this matrix sits on (see module docstring).
    pad_vectors:
        8 for output-layer operands, 128 when the GEMM result becomes the
        next layer's left operand (paper §4.2 hidden-layer padding rule).
    """
    arr = np.asarray(planes, dtype=np.uint8)
    if arr.ndim != 3:
        raise ShapeError(f"planes must be 3-D (bits, rows, cols), got {arr.shape}")
    if arr.size and arr.max() > 1:
        raise PackingError("bit planes must be binary (0/1)")
    if pad_vectors not in (TC_M, TC_K):
        raise PackingError(f"pad_vectors must be 8 or 128, got {pad_vectors}")
    bits = arr.shape[0]
    if layout == "col":
        vec_planes = arr  # (bits, M, K): rows are the logical vectors
        logical_vectors, logical_k = arr.shape[1], arr.shape[2]
    elif layout == "row":
        vec_planes = arr.transpose(0, 2, 1)  # (bits, N, K): columns of B
        logical_vectors, logical_k = arr.shape[2], arr.shape[1]
    else:
        raise PackingError(f"unknown layout {layout!r}")
    padded_vectors = pad_to(max(logical_vectors, 1), pad_vectors)
    if padded_vectors != logical_vectors:
        vec_planes = np.pad(
            vec_planes, ((0, 0), (0, padded_vectors - logical_vectors), (0, 0))
        )
    words = _pack_planes_along_last(np.ascontiguousarray(vec_planes))
    return PackedBits(
        words=words,
        bits=bits,
        layout=layout,
        logical_vectors=max(logical_vectors, 0),
        logical_k=logical_k,
        pad_vectors=pad_vectors,
    )


def pack_matrix(
    codes: np.ndarray,
    bits: int,
    layout: Layout = "col",
    *,
    pad_vectors: int = TC_M,
) -> PackedBits:
    """Bit-decompose an integer matrix and pack it in one call."""
    arr = np.asarray(codes)
    if arr.ndim != 2:
        raise ShapeError(f"pack_matrix expects a 2-D matrix, got shape {arr.shape}")
    planes = bit_decompose(arr, bits)
    return pack_bit_planes(planes, layout, pad_vectors=pad_vectors)


def bit_address(index):
    """``(word, mask)`` of element ``index`` along a packed K axis.

    Bit ``j`` of word ``w`` is element ``32*w + j`` (module docstring), so
    element ``index`` lives in word ``index // 32`` under the single-bit
    ``uint32`` mask ``1 << (index % 32)``.  Accepts one integer or an
    integer array; :func:`pack_edges` and the dynamic-graph bit flips both
    address words through here, so the layout is known to this module only.
    """
    shift = np.asarray(index % WORD_BITS, dtype=np.uint32)
    return index // WORD_BITS, np.uint32(1) << shift


def pack_edges(
    rows: np.ndarray,
    cols: np.ndarray,
    num_vectors: int,
    num_k: int,
    *,
    pad_vectors: int = TC_M,
) -> PackedBits:
    """Pack a 0/1 matrix given as coordinates, without densifying it.

    Equal to ``pack_matrix(dense, 1, "col", pad_vectors=...)`` for the
    ``num_vectors x num_k`` matrix ``dense`` holding a one at every
    ``(rows[i], cols[i])``, but in ``O(E + packed size)`` time and memory:
    the words are zeroed once and each coordinate ORs its bit in.
    Duplicate coordinates are idempotent; a coordinate outside the logical
    shape raises :class:`~repro.errors.ShapeError`.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.ndim != 1 or rows.shape != cols.shape:
        raise ShapeError(
            f"coordinates must be two equal-length 1-D arrays, got "
            f"{rows.shape} and {cols.shape}"
        )
    if num_vectors < 0 or num_k < 0:
        raise ShapeError(f"matrix dims must be non-negative, got {(num_vectors, num_k)}")
    if pad_vectors not in (TC_M, TC_K):
        raise PackingError(f"pad_vectors must be 8 or 128, got {pad_vectors}")
    if rows.size and (
        rows.min() < 0 or rows.max() >= num_vectors or cols.min() < 0 or cols.max() >= num_k
    ):
        raise ShapeError(
            f"coordinate outside the {num_vectors} x {num_k} logical matrix"
        )
    words = np.zeros(
        (
            1,
            pad_to(max(num_vectors, 1), pad_vectors),
            pad_to(max(num_k, 1), TC_K) // WORD_BITS,
        ),
        dtype=np.uint32,
    )
    word, mask = bit_address(cols)
    np.bitwise_or.at(words[0], (rows, word), mask)
    return PackedBits(
        words=words,
        bits=1,
        layout="col",
        logical_vectors=num_vectors,
        logical_k=num_k,
        pad_vectors=pad_vectors,
    )


def unpack_bit_planes(packed: PackedBits) -> np.ndarray:
    """Unpack to binary planes of the logical (unpadded) matrix.

    Returns ``(bits, M, K)`` for column-wise layout and ``(bits, K, N)`` for
    row-wise layout.
    """
    words = np.ascontiguousarray(packed.words)
    as_bytes = words.view(np.uint8).reshape(
        packed.bits, packed.padded_vectors, packed.k_words * 4
    )
    planes = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    planes = planes[:, : packed.logical_vectors, : packed.logical_k]
    if packed.layout == "row":
        planes = planes.transpose(0, 2, 1)
    return planes


def unpack_matrix(packed: PackedBits) -> np.ndarray:
    """Unpack and shift-add back to the original integer codes (int64)."""
    return bit_compose(unpack_bit_planes(packed))


class Operand:
    """One GEMM operand, held as integer codes and/or packed words.

    The paper's bit decomposition exists because a Tensor Core multiplies
    1-bit planes; a host engine may as well multiply the integer codes.
    An operand is built from whichever form its producer has —
    ``Operand(codes, bits, layout)`` for freshly quantized activations,
    ``Operand(packed=...)`` for a cached :class:`PackedBits`,
    ``Operand(csr=...)`` for a 1-bit column-compressed matrix known by its
    coordinates (a canonical ``scipy`` CSR of ones), ``Operand(blocks=...)``
    for one known by the canonical int32 CSRs of its diagonal blocks (a
    batch adjacency: its members' self-looped CSRs, trusted as their
    producer proved them; :attr:`csr` concatenates them on first read) —
    and derives the others on first use, memoised, so only a backend that
    reads words pays for packing (:func:`pack_edges` for coordinates) and
    only one that reads codes for unpacking.  (A first-use race recomputes
    an identical value; nothing needs a lock.)  Words may carry their
    coordinates too (``packed=..., csr=...``) and are then never decoded.

    Codes are range-checked against ``bits`` on entry — the exact GEMM's
    dtype bound depends on it — unless their producer proved the range
    (``proven=True``, :func:`~repro.core.quantization.quantize_into`); such
    codes travel in any dtype that holds them exactly, the GEMM's own, and
    become ``int64`` only when something packs or reads :attr:`codes`.  The
    padded geometry follows from the logical dims by the
    :func:`pack_bit_planes` rule, so kernel counters never force a pack.
    """

    def __init__(
        self,
        codes: np.ndarray | None = None,
        bits: int | None = None,
        layout: Layout = "col",
        *,
        packed: PackedBits | None = None,
        pad_vectors: int = TC_M,
        csr: sp.csr_matrix | None = None,
        blocks: tuple | None = None,
        proven: bool = False,
    ) -> None:
        if (codes is None) == (packed is None and csr is None and blocks is None):
            raise PackingError("build an operand from codes, packed words or a CSR of ones")
        self._views: dict = {}
        self._codes: np.ndarray | None = None
        #: The dtype a ``proven`` producer quantized the codes into — its
        #: GEMM's exact one (``quantize_into``'s contract) — else ``None``.
        self.gemm_dtype: np.dtype | None = None
        self._packed = packed
        self._csr = csr
        #: The diagonal blocks' ``(indptr, indices, ...)`` (a CSR is its own
        #: one block), or ``None``.
        self.blocks = ((csr.indptr, csr.indices),) if csr is not None else blocks
        if packed is not None:
            bits, layout, pad_vectors = packed.bits, packed.layout, packed.pad_vectors
            vectors, k = packed.logical_vectors, packed.logical_k
        elif csr is not None:
            bits, layout, (vectors, k) = 1, "col", csr.shape
        elif blocks is not None:
            vectors = k = sum(block[0].size - 1 for block in blocks)
            bits, layout = 1, "col"
        else:
            arr = np.asarray(codes)
            if arr.ndim != 2:
                raise ShapeError(f"an operand is a 2-D matrix, got shape {arr.shape}")
            self._codes = arr if proven else check_codes(arr, bits)
            self.gemm_dtype = arr.dtype if proven else None
            vectors, k = arr.shape if layout == "col" else arr.shape[::-1]
        self.bits, self.layout, self.pad_vectors = bits, layout, pad_vectors
        self.logical_vectors, self.logical_k = vectors, k
        #: Whether a GEMM on codes multiplies this operand as a CSR of ones.
        self._sparse = bits == 1 and layout == "col"
        # Canonical: a repeated coordinate would count twice in a GEMM on the
        # CSR and once in the words.
        if csr is not None and not (
            self._sparse and csr.shape == (vectors, k) and csr.has_canonical_format
        ):
            raise PackingError(
                f"coordinates {csr.shape} are not a canonical CSR describing a "
                f"{bits}-bit {layout!r} {vectors} x {k} operand"
            )

    @property
    def csr(self) -> sp.csr_matrix | None:
        """The producer's coordinates as a canonical CSR of ones (never a
        decoded view) — its blocks concatenated on first read — or ``None``."""
        if self._csr is None and self.blocks is not None:
            csr = block_diagonal(self.blocks, copy=False)
            csr.data.setflags(write=False)
            csr.has_canonical_format = True
            self._csr = csr
        return self._csr

    @property
    def csr_nbytes(self) -> int:
        """Bytes of :attr:`csr`'s arrays — by the blocks' geometry, built
        yet or not (:func:`block_diagonal`'s dtypes); 0 without coordinates."""
        if self._csr is None and self.blocks is not None:
            nnz = sum(block[1].size for block in self.blocks)
            return 4 * nnz + np.dtype(_index_dtype(nnz)).itemsize * (nnz + self.logical_vectors + 1)
        csr = self._csr
        return 0 if csr is None else csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes

    @property
    def padded_vectors(self) -> int:
        """Vector count after PAD8/PAD128 padding."""
        return pad_to(max(self.logical_vectors, 1), self.pad_vectors)

    @property
    def k_words(self) -> int:
        """Number of 32-bit words along the packed K axis."""
        return pad_to(max(self.logical_k, 1), TC_K) // WORD_BITS

    @property
    def packed_nbytes(self) -> int:
        """Size of :attr:`packed`'s words — by the geometry, packed or not."""
        return self.bits * self.padded_vectors * self.k_words * (WORD_BITS // 8)

    @property
    def codes(self) -> np.ndarray:
        """The ``int64`` codes on the logical shape (unpacked on first use)."""
        if self._codes is None:
            self._codes = unpack_matrix(self.packed)
        elif self._codes.dtype != np.int64:  # proven codes in a GEMM dtype
            self._codes = self._codes.astype(np.int64)
        return self._codes

    def pack(self) -> "Operand":
        """Derive the packed words now — inside the caller's timing window
        rather than the first consumer's — and return ``self``.  Derived
        words are read-only: an operand is shared, so its forms are too."""
        if self._packed is None:
            if self.csr is not None:
                coo = self.csr.tocoo()
                packed = pack_edges(coo.row, coo.col, *coo.shape, pad_vectors=self.pad_vectors)
            else:
                packed = pack_matrix(
                    self.codes, self.bits, self.layout, pad_vectors=self.pad_vectors
                )
            packed.words.setflags(write=False)
            self._packed = packed
        return self

    @property
    def packed(self) -> PackedBits:
        """The bit-packed words (decomposed and packed on first use)."""
        return self.pack()._packed

    def matrix(self, dtype):
        """The operand as a ``dtype`` factor of a GEMM on codes, memoised
        per dtype — a cached operand converts once, not per replay.

        Dense codes, except that a 1-bit column-compressed operand without
        codes (a packed adjacency) is a ``scipy`` CSR matrix of ones — the
        coordinates it was built with, else decoded from the words in
        ``O(words + set bits)`` — never anything ``n x n`` wider than a bit.
        """
        key = np.dtype(dtype)
        view = self._views.get(key)
        if view is None:
            if self.csr is not None:
                source = self.csr
            elif self._codes is not None:  # held codes convert exactly as they are
                source = self._codes
            else:  # words only
                source = self._csr_from_words(key) if self._sparse else self.codes
            view = self._views[key] = source.astype(key, copy=False)
        return view

    def tile_masks(self) -> tuple[np.ndarray, ...]:
        """The §4.3 zero-tile ballot of every plane (see
        :func:`tile_nonzero_mask`), taken from the cheapest form held:
        coordinates in ``O(E)``, else words, else — 1-bit column-compressed
        — the codes, summed per k-tile by one float32 GEMM against a 0/1
        indicator (exact whatever the codes' dtype: a tile sums at most 128
        ones) and OR-ed over 8-row groups; only multi-bit codes pack.
        """
        if self.csr is None and (self._packed is not None or not self._sparse):
            return tuple(tile_nonzero_mask(plane) for plane in self.packed.words)
        kt = self.k_words * WORD_BITS // TC_K
        if self.csr is None:
            k_tile = np.arange(self.logical_k)[:, None] // TC_K
            indicator = (k_tile == np.arange(kt)).astype(np.float32)
            sums = self.matrix(np.float32) @ indicator
            live = np.zeros((self.padded_vectors, kt), dtype=bool)
            np.not_equal(sums, 0, out=live[: self.logical_vectors])
            return (live.reshape(-1, TC_M, kt).any(axis=1),)
        mask = np.zeros((self.padded_vectors // TC_M, kt), dtype=bool)
        rows = np.arange(self.logical_vectors)
        tile = np.repeat(rows // TC_M * kt, np.diff(self.csr.indptr))
        mask.reshape(-1)[tile + self.csr.indices // TC_K] = True
        return (mask,)

    def _csr_from_words(self, dtype: np.dtype) -> sp.csr_matrix:
        vectors, k_words = self.logical_vectors, self.k_words
        words = self._packed.words[0, :vectors].reshape(-1)
        # Row-major order keeps rows, then columns, ascending.  (The
        # boolean views are what makes ``nonzero`` fast.)
        live = np.flatnonzero(words != 0)
        bits = np.unpackbits(words[live].view(np.uint8), bitorder="little")
        hit = np.flatnonzero(bits.view(bool))
        word = live[hit // WORD_BITS]
        indices = (word % k_words) * WORD_BITS + hit % WORD_BITS
        indptr = np.zeros(vectors + 1, dtype=np.intp)
        np.cumsum(np.bincount(word // k_words, minlength=vectors), out=indptr[1:])
        return sp.csr_matrix(
            (np.ones(indices.size, dtype=dtype), indices, indptr),
            shape=(vectors, self.logical_k),
        )


def block_diagonal(blocks, *, copy: bool = True) -> sp.csr_matrix:
    """The float32 CSR of ones whose diagonal blocks are ``blocks`` —
    ``(indptr, indices, ...)`` at consecutive offsets — in ``O(E)``, in
    int32 up to ``2**31`` entries; without ``copy`` a lone block already so
    is taken as it is."""
    nnz = np.cumsum([0] + [block[1].size for block in blocks]).tolist()
    dtype = _index_dtype(nnz[-1])
    if not copy and len(blocks) == 1 and blocks[0][0].dtype == blocks[0][1].dtype == dtype:
        indptr, indices = blocks[0][:2]
    else:
        indptr = np.zeros(sum(block[0].size - 1 for block in blocks) + 1, dtype)
        indices = np.empty(nnz[-1], dtype)
        at = 0
        for (ptr, idx, *_), base in zip(blocks, nnz):
            np.add(ptr[1:], base, out=indptr[at + 1 : at + ptr.size], dtype=dtype)
            np.add(idx, at, out=indices[base : base + idx.size], dtype=dtype)
            at += ptr.size - 1
    n = indptr.size - 1
    return sp.csr_matrix((np.ones(nnz[-1], np.float32), indices, indptr), shape=(n, n))


def _index_dtype(entries: int) -> type:
    """A CSR's index dtype for ``entries``: int32 while it holds them."""
    return np.int32 if entries < 2**31 else np.int64


def as_operand(value: "Operand | PackedBits") -> Operand:
    """``value`` as an :class:`Operand` (a :class:`PackedBits` is wrapped)."""
    return value if isinstance(value, Operand) else Operand(packed=value)


def check_pair(a: "Operand | PackedBits", b: "Operand | PackedBits") -> None:
    """Validate that ``a @ b`` is a well-formed bit-GEMM operand pair:
    column-compressed left, row-compressed right, equal reduction length."""
    if a.layout != "col":
        raise PackingError("left operand must use column-wise compression")
    if b.layout != "row":
        raise PackingError("right operand must use row-wise compression")
    if a.logical_k != b.logical_k:
        raise ShapeError(
            f"reduction dims differ: A has K={a.logical_k}, B has K={b.logical_k}"
        )


def tile_nonzero_mask(plane_words: np.ndarray) -> np.ndarray:
    """Boolean mask of non-zero ``8 x 128``-bit tiles of a packed plane.

    The vectorized form of the paper's §4.3 zero-tile ballot: 8 threads each
    OR their ``uint4`` (4 consecutive words = one tile row), and a warp
    ballot combines the 8 lane predicates — a zero ballot marks a tile the
    kernel can jump.  Lives in ``core`` because :class:`Operand` ballots
    its own census with it; the TC emulator's jump logic
    (:mod:`repro.tc.kernel`) consumes it.

    Parameters
    ----------
    plane_words:
        Packed 1-bit plane, shape ``(padded_vectors, k_words)`` uint32 with
        ``padded_vectors % 8 == 0`` and ``k_words % 4 == 0`` (guaranteed by
        PAD8/PAD128 packing).

    Returns
    -------
    ``(padded_vectors // 8, k_words // 4)`` boolean array; ``True`` marks a
    tile that contains at least one set bit and must be processed.
    """
    if plane_words.ndim != 2:
        raise ShapeError("expected a 2-D packed plane")
    rows, kwords = plane_words.shape
    if rows % 8 or kwords % 4:
        raise ShapeError(
            f"plane shape {plane_words.shape} is not a whole number of 8x128 tiles"
        )
    tiles = plane_words.reshape(rows // 8, 8, kwords // 4, 4)
    # Per-thread uint4 OR (axis -1), then the warp-ballot across the 8 rows
    # (axis 1): nonzero ballot == tile has an edge.
    per_row = np.bitwise_or.reduce(tiles, axis=-1)
    return np.bitwise_or.reduce(per_row, axis=1) != 0

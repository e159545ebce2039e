"""The QGTC batched bit-GEMM kernel emulator (paper §4).

Combines the pieces of §4 into one kernel:

* operands arrive 3D-stacked bit-compressed (§4.2),
* all-zero ``8 x 128`` tiles of the left operand are jumped (§4.3),
* non-zero tiles are either re-loaded per bit plane (*cross-bit reduction*)
  or loaded once and used for every bit plane (*cross-tile reduction*,
  the non-zero tile reuse of §4.4).

Two execution paths produce **identical** results and counters:

* :meth:`BitGemmKernel.run_tile_loop` — a literal WMMA fragment loop.  This
  is the executable specification and the one host execution that jumps
  zero tiles: every fragment load, ballot check and bmma is performed one
  tile at a time.  O(python) per tile, so tests use small shapes.
* :meth:`BitGemmKernel.run` — the fast path.  The functional result comes
  from any registered host backend (zero tiles contribute nothing, so
  whether a backend skips them never changes the product), and the
  counters are derived in closed form from the operands' padded geometry
  and the *measured* per-plane zero-tile masks (:class:`TileSkipPlan`, the
  §4.3 census) — never from what the host engine ran.  The test suite
  asserts tile-loop and fast-path equality on outputs and counters for
  every registered backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

from ..core.bitgemm import Engine, _resolve_backend
from ..core.bitpack import Operand, PackedBits, as_operand, check_pair, tile_nonzero_mask
from ..errors import ShapeError
from .counters import KernelCounters
from .fragments import make_fragment
from .wmma import TILE_ACCUM_BYTES, TILE_OPERAND_BYTES, bmma_sync, load_matrix_sync, store_matrix_sync

__all__ = [
    "ReuseMode",
    "KernelConfig",
    "BitGemmKernel",
    "KernelResult",
    "TileSkipPlan",
    "derive_tile_counters",
    "plan_tile_skip",
]

ReuseMode = Literal["cross-bit", "cross-tile"]


@dataclass(frozen=True)
class TileSkipPlan:
    """Per-plane non-zero tile censuses of a packed left operand (§4.3).

    The single source of truth for which ``8 x 128`` tiles a zero-tile
    jumping execution touches: the kernel emulator derives its skipped-tile
    counters from it, ``codegen`` bakes it into its skip kernels, and a
    serving session caches it per batch so the ballot is taken once per
    adjacency rather than once per request.
    """

    #: One ``(mt, kt)`` boolean mask per bit plane of the left operand.
    masks: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.masks:
            raise ShapeError("a tile-skip plan needs at least one plane mask")
        first = self.masks[0].shape
        for mask in self.masks:
            if mask.ndim != 2 or mask.shape != first:
                raise ShapeError("plane masks must share one 2-D tile grid")
        # Census masks are shared by reference across cached plans, codegen
        # kernel keys, and serving sessions: freeze them so an in-place
        # mutation (e.g. a dynamic-graph delta census) cannot silently
        # invalidate a published plan.  Writable inputs are copied first so
        # the caller's array stays writable.
        frozen = []
        for mask in self.masks:
            if mask.flags.writeable:
                mask = mask.copy()
                mask.setflags(write=False)
            frozen.append(mask)
        object.__setattr__(self, "masks", tuple(frozen))

    @cached_property
    def derived(self) -> dict:
        """Memo of pure functions of this census (kernel counters, modeled
        reports): a replay looks them up, eviction drops them with it."""
        return {}

    @property
    def bits(self) -> int:
        return len(self.masks)

    @property
    def tile_grid(self) -> tuple[int, int]:
        """``(mt, kt)`` tile counts of each plane."""
        return self.masks[0].shape

    @property
    def total_tiles(self) -> int:
        """Tiles across all planes — what a non-jumping kernel processes."""
        return self.masks[0].size * self.bits

    @cached_property
    def nonzero_tiles(self) -> int:
        """Tiles that survive the ballot and must be computed."""
        return sum(int(mask.sum()) for mask in self.masks)

    @property
    def nonzero_fraction(self) -> float:
        """Fraction of tiles a jumping execution still processes."""
        if self.total_tiles == 0:
            return 0.0
        return self.nonzero_tiles / self.total_tiles

    def processed_per_plane(self) -> list[int]:
        """Surviving tile count of each plane (feeds the counter closed forms)."""
        return [int(mask.sum()) for mask in self.masks]

    def matches(self, operand: "Operand | PackedBits") -> bool:
        """Whether this plan describes ``operand``'s plane/tile geometry."""
        return self.bits == operand.bits and self.tile_grid == (
            operand.padded_vectors // 8,
            operand.k_words // 4,
        )


def plan_tile_skip(operand: "Operand | PackedBits") -> TileSkipPlan:
    """Census every plane of a left operand into a reusable plan — from
    whichever form it holds (:meth:`~repro.core.bitpack.Operand.tile_masks`)."""
    return TileSkipPlan(masks=as_operand(operand).tile_masks())


@dataclass(frozen=True)
class KernelConfig:
    """Optimization switches of the emulated kernel.

    Attributes
    ----------
    zero_tile_jumping:
        Skip all-zero left-operand tiles (§4.3).  Only engages when the
        left operand is 1-bit (the adjacency matrix); multi-bit left
        operands (the node-update GEMM) are dense by construction.
    reuse:
        ``"cross-tile"`` enables non-zero tile reuse (§4.4): each surviving
        A tile is loaded once and consumed by every B bit plane.
        ``"cross-bit"`` is the naive schedule that re-walks A per plane.
    """

    zero_tile_jumping: bool = True
    reuse: ReuseMode = "cross-tile"

    def __post_init__(self) -> None:
        if self.reuse not in ("cross-bit", "cross-tile"):
            raise ShapeError(f"unknown reuse mode {self.reuse!r}")


@dataclass(frozen=True)
class KernelResult:
    """Output of one emulated kernel launch."""

    #: Exact product on the logical (unpadded) shape ``(M, N)``: int64, or
    #: the float dtype the backend's GEMM on codes ran in.
    output: np.ndarray
    #: Measured event counts for the launch (may be a memoised, shared
    #: object: merge them into a fresh one, never in place).
    counters: KernelCounters


def derive_tile_counters(
    *,
    mt: int,
    kt: int,
    nt: int,
    bits_a: int,
    bits_b: int,
    processed_per_plane: list[int],
    jumping: bool,
    config: KernelConfig,
) -> KernelCounters:
    """Closed-form event counts for one kernel launch.

    Shared by the fast execution path (which feeds *measured* per-plane
    non-zero tile counts) and by the analytic benchmarks of Figures 7c/9 and
    Table 3 (which feed synthetic densities).  ``processed_per_plane[i]`` is
    the number of left-operand tiles of plane ``i`` that survive the
    zero-tile check (equal to ``mt * kt`` when jumping is off or the
    operand is dense).

    Accounting rules (validated tile-by-tile by
    :meth:`BitGemmKernel.run_tile_loop` in the test-suite):

    * one bmma per surviving A tile x B bit plane x output column tile;
    * cross-bit reloads each surviving A tile once per B plane, cross-tile
      loads it once (§4.4's O(n) -> O(1) claim);
    * B tiles are staged through shared memory once per (k-tile, n-tile,
      plane pair) under either schedule;
    * the zero-tile ballot's wasted traffic is one 128-byte read per
      *zero* tile visit — a surviving tile's read is charged to its
      fragment load;
    * cross-tile keeps C in registers and stores each output tile once;
      cross-bit completes the output per bit level (Figure 6a), paying a
      read-modify-write of every C tile on each subsequent pass.
    """
    if len(processed_per_plane) != bits_a:
        raise ShapeError(
            f"processed_per_plane must have {bits_a} entries, "
            f"got {len(processed_per_plane)}"
        )
    total_mk = mt * kt
    for count in processed_per_plane:
        if not 0 <= count <= total_mk:
            raise ShapeError(
                f"processed tile count {count} outside [0, {total_mk}]"
            )
    cross_tile = config.reuse == "cross-tile"
    processed = sum(processed_per_plane)

    c = KernelCounters(schedule=config.reuse, launches=1)
    c.tiles_total = total_mk * bits_a
    c.tiles_processed = processed
    c.tiles_skipped = c.tiles_total - processed
    c.mma_ops = processed * bits_b * nt
    c.frag_loads_a = processed * (1 if cross_tile else bits_b)
    c.frag_loads_b = kt * nt * bits_a * bits_b

    zero_visits = (c.tiles_total - processed) * (1 if cross_tile else bits_b)
    check_bytes = zero_visits * TILE_OPERAND_BYTES if jumping else 0

    out_tiles = mt * nt
    if cross_tile:
        c.frag_stores = out_tiles
        c_bytes_written = out_tiles * TILE_ACCUM_BYTES
        c_bytes_read = 0
    else:
        passes = bits_a * bits_b
        c.frag_stores = out_tiles * passes
        c_bytes_written = out_tiles * passes * TILE_ACCUM_BYTES
        c_bytes_read = out_tiles * max(passes - 1, 0) * TILE_ACCUM_BYTES

    c.global_bytes_read = (
        c.frag_loads_a * TILE_OPERAND_BYTES
        + c.frag_loads_b * TILE_OPERAND_BYTES
        + check_bytes
        + c_bytes_read
    )
    c.global_bytes_written = c_bytes_written
    c.tags = {
        "tiles_mk": total_mk,
        "bits": (bits_a, bits_b),
        "jumping": jumping,
    }
    return c


class BitGemmKernel:
    """Emulated QGTC GEMM kernel; see module docstring."""

    def __init__(self, config: KernelConfig | None = None):
        self.config = config or KernelConfig()

    # ------------------------------------------------------------------ #
    # Fast path
    # ------------------------------------------------------------------ #
    def run(
        self,
        a: "Operand | PackedBits",
        b: "Operand | PackedBits",
        *,
        engine: Engine = "auto",
        plan: TileSkipPlan | None = None,
        registry=None,
    ) -> KernelResult:
        """Execute the kernel: vectorized math + closed-form counters.

        The closed forms are derived from the actual zero-tile masks of the
        packed operand, so sparsity effects are measured, not assumed.
        ``plan`` optionally supplies a precomputed census of ``a`` (e.g.
        from a serving session's tile-mask cache); it feeds both the
        counters and any mask-consuming backend (``codegen``), so a cached
        plan is balloted exactly once per operand instead of once per
        launch.  ``registry``
        resolves ``engine`` against a non-default
        :class:`~repro.plan.registry.BackendRegistry`.

        Operands are :class:`~repro.core.bitpack.Operand`\\ s (a bare
        :class:`PackedBits` is wrapped); nothing here forces a pack.
        """
        a, b = as_operand(a), as_operand(b)
        return self.launch(_resolve_backend(engine, a, b, registry), a, b, plan)

    def launch(self, backend, a: Operand, b: Operand, plan=None, memo=None) -> KernelResult:
        """:meth:`run` on an already resolved
        :class:`~repro.plan.registry.Backend` — what a plan step, bound to
        its backend once, calls on every replay.  ``memo``, a dict on the
        plan step of a census-less launch, keeps its counters for replays."""
        check_pair(a, b)
        if plan is not None and not plan.matches(a):
            raise ShapeError(
                f"tile-skip plan for grid {plan.tile_grid} x {plan.bits} planes "
                f"does not describe the left operand "
                f"({a.padded_vectors // 8}, {a.k_words // 4}) x {a.bits}"
            )
        if plan is None and (self.config.zero_tile_jumping and a.bits == 1):
            plan = plan_tile_skip(a)
        # Pure in (geometry, census, config): memoised on the census, else in ``memo``.
        if plan is not None:
            memo = plan.derived
        elif memo is None:
            memo = {}
        config = self.config  # flat key: a launch hashes no dataclass
        key = (
            config.zero_tile_jumping, config.reuse, a.logical_vectors, a.logical_k,
            b.logical_vectors, a.bits, b.bits, a.pad_vectors, b.pad_vectors,
        )
        counters = memo.get(key)
        if counters is None:
            counters = memo[key] = self._derive_counters(a, b, plan)
        output = backend.run(a, b, plan.masks if plan is not None else None)
        return KernelResult(output=output, counters=counters)

    def _derive_counters(
        self, a: Operand, b: Operand, plan: TileSkipPlan | None
    ) -> KernelCounters:
        mt = a.padded_vectors // 8
        kt = a.k_words // 4
        nt = b.padded_vectors // 8
        jumping = self.config.zero_tile_jumping and a.bits == 1
        processed = plan.processed_per_plane() if jumping else [mt * kt] * a.bits
        counters = derive_tile_counters(
            mt=mt, kt=kt, nt=nt, bits_a=a.bits, bits_b=b.bits,
            processed_per_plane=processed, jumping=jumping, config=self.config,
        )
        counters.tags["shape"] = (a.logical_vectors, a.logical_k, b.logical_vectors)
        return counters

    # ------------------------------------------------------------------ #
    # Literal tile loop (executable specification)
    # ------------------------------------------------------------------ #
    def run_tile_loop(self, a: PackedBits, b: PackedBits) -> KernelResult:
        """Run the kernel one WMMA fragment at a time.

        Semantically identical to :meth:`run`; kept separate because it is
        O(interpreted-python) per tile.  Used by tests and by anyone who
        wants to trace exactly what the CUDA kernel would do.
        """
        check_pair(a, b)
        mt = a.padded_vectors // 8
        kt = a.k_words // 4
        nt = b.padded_vectors // 8
        jumping = self.config.zero_tile_jumping and a.bits == 1
        cross_tile = self.config.reuse == "cross-tile"

        counters = KernelCounters(schedule=self.config.reuse, launches=1)
        out_padded = np.zeros((a.padded_vectors, b.padded_vectors), dtype=np.int64)
        # Census identical to the fast path (Figure 8 metric).
        for i in range(a.bits):
            mask = tile_nonzero_mask(a.plane(i))
            counters.tiles_total += mask.size
            if jumping:
                counters.tiles_processed += int(mask.sum())
                counters.tiles_skipped += int(mask.size - mask.sum())
            else:
                counters.tiles_processed += mask.size

        # Stage B through "shared memory" (charged once per tile/plane).
        for _ in range(kt * nt * a.bits * b.bits):
            counters.frag_loads_b += 1
            counters.global_bytes_read += TILE_OPERAND_BYTES

        accum = {}  # (m, n) -> accumulator fragment held across k/bit loops

        def visit_tile(ai: int, m: int, k: int, planes_b: range) -> None:
            """Process A tile (plane ai, m, k) against the given B planes."""
            if jumping:
                tile = a.plane(ai)[m * 8 : m * 8 + 8, k * 4 : k * 4 + 4]
                if not tile.any():
                    # Wasted ballot read: the 128 bytes were inspected and
                    # discarded.  (A surviving tile's read is charged to
                    # its fragment load below.)
                    counters.global_bytes_read += TILE_OPERAND_BYTES
                    return
            a_frag = load_matrix_sync("matrix_a", a.plane(ai), m, k, counters=counters)
            for bj in planes_b:
                for n in range(nt):
                    b_frag = load_matrix_sync(
                        "matrix_b", b.plane(bj), n, k
                    )  # shared-memory hit: bytes charged above
                    c_frag = accum.setdefault((m, n), make_fragment("accumulator"))
                    bmma_sync(c_frag, a_frag, b_frag, shift=ai + bj, counters=counters)

        if cross_tile:
            # §4.4: load each surviving A tile once, emit all bit levels.
            for ai in range(a.bits):
                for m in range(mt):
                    for k in range(kt):
                        visit_tile(ai, m, k, range(b.bits))
            # Every output tile is stored, including ones whose A row was
            # entirely jumped (their accumulators hold zeros).
            zero_frag = make_fragment("accumulator")
            for m in range(mt):
                for n in range(nt):
                    frag = accum.get((m, n), zero_frag)
                    store_matrix_sync(out_padded, frag, m, n, counters=counters)
        else:
            # Figure 6a: complete the output at each bit level in turn,
            # read-modify-writing the C tiles between passes.
            first_pass = True
            for ai in range(a.bits):
                for bj in range(b.bits):
                    accum.clear()
                    for m in range(mt):
                        for k in range(kt):
                            visit_tile(ai, m, k, range(bj, bj + 1))
                    for m in range(mt):
                        for n in range(nt):
                            if not first_pass:
                                counters.global_bytes_read += TILE_ACCUM_BYTES
                            frag = accum.get((m, n))
                            if frag is not None:
                                out_padded[m * 8 : m * 8 + 8, n * 8 : n * 8 + 8] += (
                                    frag.data
                                )
                            counters.frag_stores += 1
                            counters.global_bytes_written += TILE_ACCUM_BYTES
                    first_pass = False

        counters.tags = {
            "shape": (a.logical_vectors, a.logical_k, b.logical_vectors),
            "bits": (a.bits, b.bits),
            "tiles_mk": mt * kt,
            "jumping": jumping,
        }
        output = out_padded[: a.logical_vectors, : b.logical_vectors]
        return KernelResult(output=output, counters=counters)

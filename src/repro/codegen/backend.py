"""The ``codegen`` backend: compiled kernels behind the standard registry.

Glue between the LoopIR pipeline and the rest of the system:

* a process-wide, thread-safe **kernel segment** —
  :func:`kernel_cache_segment` — holding :class:`CompiledKernel` entries
  under content keys (shape/bitwidth constants + the census digest +
  emitter version).  Serving sessions mount this very segment as the
  ``"kernel"`` kind of their :class:`~repro.plan.cache.PlanCache`, so
  kernel hits/compiles appear in the same telemetry surface as packed
  weights and compiled plans, and a second replay of the same plan
  performs zero compiles;
* :func:`_run_codegen`, the registered ``run`` implementation:
  lower-or-hit, call the compiled kernel, shift-add what it returns;
* :func:`prepare_plan_kernels`, the serving engine's pre-execution hook
  that compiles a plan's aggregation kernels ahead of the GEMM window
  and reports ``plan_lower`` / ``kernel_compile`` seconds for the PAG.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.bitgemm import reduce_plane_products
from ..core.bitpack import TC_K, TC_M, Operand, pad_to, tile_nonzero_mask
from ..core.bitops import WORD_BITS
from ..errors import ShapeError
from ..plan.cache import ThreadSafeLRUCache, artifact_digest
from ..plan.registry import Backend, BackendCaps, BackendPrice, PriceContext
from .emit import compile_program
from .loopir import EMIT_VERSION, Program
from .lower import lower_gemm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..plan.ir import ExecutionPlan

__all__ = [
    "CompiledKernel",
    "census_digest",
    "codegen_backend",
    "gemm_kernel",
    "gemm_kernel_key",
    "kernel_cache_segment",
    "prepare_plan_kernels",
]


@dataclass(frozen=True)
class CompiledKernel:
    """One compiled kernel: the program, its callable, and build costs."""

    program: Program
    fn: object
    #: Program digest (source + env + emitter version) — the recompile
    #: trigger the cache key carries.
    digest: str
    #: Seconds spent lowering (census grouping, IR construction).
    lower_s: float
    #: Seconds spent in ``compile()``/``exec``.
    compile_s: float

    @property
    def nbytes(self) -> int:
        """Cache-accounted bytes: rendered source plus baked constants."""
        return len(self.program.source()) + sum(
            np.asarray(v).nbytes for v in self.program.env.values()
        )


def _kernel_nbytes(value: object) -> int:
    return int(getattr(value, "nbytes", 0) or 0)


#: The process-wide kernel segment.  One segment per process — not per
#: session — because a compiled kernel is pure (keyed by content, closed
#: over nothing mutable) and compilation is the cost being amortized.
#: Verified: every hit re-checks the kernel's program digest, so a
#: poisoned entry is discarded and recompiled instead of replayed.
_KERNEL_SEGMENT = ThreadSafeLRUCache(
    256, size_of=_kernel_nbytes, digest_of=artifact_digest
)


def kernel_cache_segment() -> ThreadSafeLRUCache:
    """The shared ``"kernel"`` cache segment (mounted by serving sessions)."""
    return _KERNEL_SEGMENT


def census_digest(mask: np.ndarray | None) -> str:
    """Content digest of a zero-tile census mask (``"dense"`` when absent).

    The census component of every gemm kernel key: a structure mutation
    that changes the census changes this digest, which changes the key —
    the property that makes a stale compiled kernel unreachable after a
    dynamic-graph mutation.
    """
    if mask is None:
        return "dense"
    arr = np.ascontiguousarray(np.asarray(mask, dtype=bool))
    h = hashlib.blake2b(digest_size=8)
    h.update(f"{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def gemm_kernel_key(
    *,
    m: int,
    n: int,
    bits_a: int,
    bits_b: int,
    a_padded_vectors: int,
    a_k_words: int,
    tile_mask: np.ndarray | None = None,
) -> tuple:
    """The kernel-segment content key :func:`gemm_kernel` caches under.

    Public so invalidation paths (the dynamic-graph session retiring
    kernels compiled against a superseded census) can reconstruct and
    discard the exact key without recompiling anything.
    """
    return (
        "kernel",
        "gemm",
        bits_a,
        bits_b,
        m,
        n,
        a_padded_vectors,
        a_k_words,
        census_digest(tile_mask),
        EMIT_VERSION,
    )


def _build_kernel(builder, jit: bool = False) -> CompiledKernel:
    """Lower + compile, timing the two stages separately."""
    t0 = time.perf_counter()
    program = builder()
    t1 = time.perf_counter()
    fn = compile_program(program, jit=jit)
    t2 = time.perf_counter()
    return CompiledKernel(
        program=program,
        fn=fn,
        digest=program.digest(),
        lower_s=t1 - t0,
        compile_s=t2 - t1,
    )


def gemm_kernel(
    *,
    m: int,
    n: int,
    bits_a: int,
    bits_b: int,
    a_padded_vectors: int,
    a_k_words: int,
    tile_mask: np.ndarray | None = None,
) -> CompiledKernel:
    """Fetch-or-compile the specialized kernel for one product shape.

    The cache key is pure content: the baked shape/bitwidth constants,
    the census digest (``"dense"`` when no census applies), and the
    emitter version.  Same plan → same key → the compiled kernel is
    reused with zero lowering work; a mutated census or bitwidth changes
    the key and recompiles.
    """
    key = gemm_kernel_key(
        m=m,
        n=n,
        bits_a=bits_a,
        bits_b=bits_b,
        a_padded_vectors=a_padded_vectors,
        a_k_words=a_k_words,
        tile_mask=tile_mask,
    )
    return _KERNEL_SEGMENT.get_or_build(
        key,
        lambda: _build_kernel(
            lambda: lower_gemm(
                m=m,
                n=n,
                bits_a=bits_a,
                bits_b=bits_b,
                a_padded_vectors=a_padded_vectors,
                a_k_words=a_k_words,
                tile_mask=tile_mask,
            )
        ),
    )


# --------------------------------------------------------------------- #
# The registered backend
# --------------------------------------------------------------------- #
def _run_codegen(
    a: Operand, b: Operand, tile_masks: Sequence[np.ndarray] | None = None
) -> np.ndarray:
    """The product through a plan-specialized compiled kernel.

    1-bit left operands are executed through the skip-specialized kernel
    of their census (supplied ``tile_masks`` or balloted here); wider
    operands take the dense unrolled kernel, which is correct regardless
    of any census (it computes every tile, and zero tiles contribute
    nothing).  The emitted kernel returns
    Algorithm 1's plane products; they are shift-added here.
    """
    a_packed, b_packed = a.packed, b.packed
    mask = None
    if a.bits == 1:
        mask = (
            np.asarray(tile_masks[0])
            if tile_masks is not None
            else tile_nonzero_mask(a_packed.plane(0))
        )
        grid = (a.padded_vectors // 8, a.k_words // 4)
        if mask.shape != grid:
            raise ShapeError(
                f"tile mask shape {mask.shape} does not match the "
                f"{grid} tile grid of the plane"
            )
    kernel = gemm_kernel(
        m=a.logical_vectors,
        n=b.logical_vectors,
        bits_a=a.bits,
        bits_b=b.bits,
        a_padded_vectors=a.padded_vectors,
        a_k_words=a.k_words,
        tile_mask=mask,
    )
    return reduce_plane_products(
        kernel.fn(
            np.ascontiguousarray(a_packed.words), np.ascontiguousarray(b_packed.words)
        )
    )


#: Analytic-pricer constants of the codegen backend.  Deliberately
#: conservative: the analytic estimate always sits above ``packed``'s, the
#: word engine the kernels specialize, so on a cold table the dispatcher
#: never picks codegen and it is routed *only* when the autotuner's
#: measured medians say it wins — the acceptance mode of this backend.
CODEGEN_CALL_OVERHEAD_S = 80e-6
CODEGEN_PRICE_MARGIN = 1.05


def _price_codegen(ctx: PriceContext) -> BackendPrice:
    """``packed``'s price, scaled and offset (see the constants above)."""
    r = ctx.rates
    seconds = CODEGEN_PRICE_MARGIN * (
        ctx.pairs * r.packed_pair_overhead_s + ctx.flops / r.packed_flops
    )
    return BackendPrice(seconds=seconds + CODEGEN_CALL_OVERHEAD_S)


def codegen_backend() -> Backend:
    """A fresh instance of the ``codegen`` registry entry."""
    return Backend(
        name="codegen",
        run=_run_codegen,
        caps=BackendCaps(
            consumes_tile_masks=True,
            summary="LoopIR-lowered kernels compiled per plan "
            "(unrolled planes, baked census skip loops)",
        ),
        pricer=_price_codegen,
    )


# --------------------------------------------------------------------- #
# Serving integration
# --------------------------------------------------------------------- #
def prepare_plan_kernels(plan: "ExecutionPlan", adjacency) -> tuple[float, float]:
    """Compile a plan's codegen kernels ahead of its GEMM windows.

    Walks the plan's steps and fetches-or-compiles the kernel of every
    ``codegen``-dispatched product whose operand constants are known
    before execution: censused aggregations specialize against
    ``adjacency`` (a :class:`~repro.gnn.quantized.PackedAdjacency`), and
    multi-bit updates take the dense kernel of their padded shape.
    (1-bit *update* products census their packed activations at run
    time, so their kernels compile lazily inside the GEMM window.)

    Returns ``(lower_seconds, compile_seconds)`` summed over the fresh
    builds only — a fully warmed plan reports ``(0.0, 0.0)`` because
    every fetch is a kernel-segment hit.
    """
    lower_s = 0.0
    compile_s = 0.0
    before = _KERNEL_SEGMENT.stats.insertions
    kernels: list[CompiledKernel] = []
    for step in plan.gemm_steps():
        if step.backend != "codegen":
            continue
        spec = step.spec
        if spec.role == "aggregate" and spec.bits_a == 1:
            kernels.append(
                gemm_kernel(
                    m=spec.m,
                    n=spec.n,
                    bits_a=spec.bits_a,
                    bits_b=spec.bits_b,
                    a_padded_vectors=adjacency.operand.padded_vectors,
                    a_k_words=adjacency.operand.k_words,
                    tile_mask=adjacency.plan.masks[0],
                )
            )
        elif spec.bits_a > 1:
            kernels.append(
                gemm_kernel(
                    m=spec.m,
                    n=spec.n,
                    bits_a=spec.bits_a,
                    bits_b=spec.bits_b,
                    a_padded_vectors=pad_to(max(spec.m, 1), TC_M),
                    a_k_words=pad_to(max(spec.k, 1), TC_K) // WORD_BITS,
                )
            )
    if _KERNEL_SEGMENT.stats.insertions > before:
        # Only fresh builds charge compile phases; hits replay for free.
        lower_s = sum(k.lower_s for k in kernels)
        compile_s = sum(k.compile_s for k in kernels)
    return lower_s, compile_s

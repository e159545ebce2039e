"""Plan-specialized kernel generation: LoopIR → emitted numpy → callable.

The ROADMAP's "Plan IR → generated kernels, Exo/SYS_ATL-style" item.
Instead of dispatching every GEMM to a fully generic engine, a compiled
:class:`~repro.plan.ir.ExecutionPlan` is lowered through a small
schedulable loop IR (:mod:`repro.codegen.loopir`) into kernels
specialized to that plan's bitwidths, padded shapes, and measured tile
census — bit-plane loops unrolled to constants, the
:class:`~repro.tc.kernel.TileSkipPlan` baked in as precomputed
nonzero-tile index lists.  Emission
(:mod:`repro.codegen.emit`) is textual Python/numpy source compiled with
``compile()``/``exec`` — zero new hard dependencies, optional numba JIT
when importable — and compiled kernels live in the content-keyed
``kernel`` segment shared with serving :class:`~repro.plan.cache.PlanCache`
instances.  The whole pipeline is surfaced as the ``codegen`` entry of
the standard backend registry, so dispatch, measured timing, plan
exchange, and differential testing all sweep it with no special cases.
"""

from .backend import (
    CompiledKernel,
    census_digest,
    codegen_backend,
    gemm_kernel,
    gemm_kernel_key,
    kernel_cache_segment,
    prepare_plan_kernels,
)
from .emit import compile_program, maybe_jit, popcount64
from .loopir import EMIT_VERSION, Block, Line, Loop, Program, substitute, unroll
from .lower import lower_gemm, unroll_bit_planes

__all__ = [
    "EMIT_VERSION",
    "Block",
    "CompiledKernel",
    "Line",
    "Loop",
    "Program",
    "census_digest",
    "codegen_backend",
    "compile_program",
    "gemm_kernel",
    "gemm_kernel_key",
    "kernel_cache_segment",
    "lower_gemm",
    "maybe_jit",
    "popcount64",
    "prepare_plan_kernels",
    "substitute",
    "unroll",
    "unroll_bit_planes",
]

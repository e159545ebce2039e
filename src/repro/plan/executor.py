"""Replay of compiled single-GEMM steps on fresh operands.

The smallest plan/execute loop: :func:`compile_gemm_plan` freezes one
product's backend choice (and operand layout/bitwidth expectations) into
a :class:`~repro.plan.ir.GemmStep`; :func:`execute_gemm_plan` replays it
on new :class:`~repro.core.bitpack.Operand`\\ s of the planned shape,
validating that the plan actually describes them — a mutated shape raises
instead of silently executing a stale decision.  The differential suite uses this to assert that replayed
plans are bit-identical to eager execution for every registered backend.

The forward-pass executor (whole layers, affine corrections, calibration)
lives in :func:`repro.gnn.quantized.execute_forward_plan`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.bitgemm import bitgemm
from ..core.bitpack import Operand, PackedBits, as_operand, check_pair
from ..errors import ShapeError
from .ir import GemmSpec, GemmStep, compile_gemm_step
from .registry import BackendRegistry

__all__ = ["compile_gemm_plan", "execute_gemm_plan"]


def compile_gemm_plan(
    m: int,
    k: int,
    n: int,
    bits_a: int,
    bits_b: int,
    *,
    engine: object = "auto",
    registry: BackendRegistry | None = None,
    role: str = "gemm",
) -> GemmStep:
    """Compile one standalone product into a replayable :class:`GemmStep`."""
    spec = GemmSpec(m=m, k=k, n=n, bits_a=bits_a, bits_b=bits_b, role=role)
    return compile_gemm_step(spec, engine=engine, registry=registry)


def execute_gemm_plan(
    step: GemmStep,
    a: "Operand | PackedBits",
    b: "Operand | PackedBits",
    *,
    tile_masks: Sequence[np.ndarray] | None = None,
    registry: BackendRegistry | None = None,
) -> np.ndarray:
    """Replay a compiled step on operands of the planned shape.

    Returns the exact int64 product, shape ``(M, N)``.  Raises
    :class:`~repro.errors.ShapeError` when the operands do not match the
    plan's shape/bitwidth expectations — a stale plan is an error, never
    a silent wrong answer.
    """
    a, b = as_operand(a), as_operand(b)
    check_pair(a, b)
    spec = step.spec
    got = (a.logical_vectors, a.logical_k, b.logical_vectors)
    if got != (spec.m, spec.k, spec.n):
        raise ShapeError(
            f"plan compiled for a {spec.m}x{spec.k}x{spec.n} product does not "
            f"describe {got[0]}x{got[1]}x{got[2]} operands; compile a fresh plan"
        )
    if (a.bits, b.bits) != (spec.bits_a, spec.bits_b):
        raise ShapeError(
            f"plan compiled for {spec.bits_a}x{spec.bits_b}-bit operands does "
            f"not describe {a.bits}x{b.bits}-bit operands; compile a fresh plan"
        )
    return bitgemm(
        a, b, engine=step.backend, tile_masks=tile_masks, registry=registry
    )

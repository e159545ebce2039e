"""Replay of compiled single-GEMM steps on fresh operands.

The smallest plan/execute loop: :func:`compile_gemm_plan` freezes one
product's backend choice (and operand layout/bitwidth expectations) into
a :class:`~repro.plan.ir.GemmStep`; :func:`execute_gemm_plan` replays it
on new operands of the planned shape, validating that the plan actually
describes them — a mutated shape raises instead of silently executing a
stale decision.  The differential suite uses this to assert that replayed
plans are bit-identical to eager execution for every registered backend.

The forward-pass executor (whole layers, affine corrections, calibration)
lives in :func:`repro.gnn.quantized.execute_forward_plan`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.bitgemm import bitgemm
from ..core.bitpack import PackedBits, pack_matrix
from ..errors import ShapeError
from .ir import GemmSpec, GemmStep, compile_gemm_step
from .registry import BackendRegistry

__all__ = ["compile_gemm_plan", "execute_gemm_plan", "execute_gemm_plan_codes"]


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


def _check_operands(step: GemmStep, a_packed: PackedBits, b_packed: PackedBits) -> None:
    spec = step.spec
    got = (a_packed.logical_vectors, a_packed.logical_k, b_packed.logical_vectors)
    if got != (spec.m, spec.k, spec.n):
        raise ShapeError(
            f"plan compiled for a {spec.m}x{spec.k}x{spec.n} product does not "
            f"describe {got[0]}x{got[1]}x{got[2]} operands; compile a fresh plan"
        )
    if (a_packed.bits, b_packed.bits) != (spec.bits_a, spec.bits_b):
        raise ShapeError(
            f"plan compiled for {spec.bits_a}x{spec.bits_b}-bit operands does "
            f"not describe {a_packed.bits}x{b_packed.bits}-bit operands; "
            "compile a fresh plan"
        )
    if a_packed.layout != step.pack_a.layout or b_packed.layout != step.pack_b.layout:
        raise ShapeError(
            f"plan expects layouts ({step.pack_a.layout!r}, {step.pack_b.layout!r}), "
            f"got ({a_packed.layout!r}, {b_packed.layout!r})"
        )


def execute_gemm_plan(
    step: GemmStep,
    a_packed: PackedBits,
    b_packed: PackedBits,
    *,
    tile_masks: Sequence[np.ndarray] | None = None,
    registry: BackendRegistry | None = None,
) -> np.ndarray:
    """Replay a compiled step on packed operands of the planned shape.

    Returns the exact int64 product, shape ``(M, N)``.  Raises
    :class:`~repro.errors.ShapeError` when the operands do not match the
    plan's shape/bitwidth/layout expectations — a stale plan is an error,
    never a silent wrong answer.
    """
    _check_operands(step, a_packed, b_packed)
    return bitgemm(
        a_packed,
        b_packed,
        engine=step.backend,
        tile_masks=tile_masks,
        registry=registry,
    )


def execute_gemm_plan_codes(
    step: GemmStep,
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    *,
    registry: BackendRegistry | None = None,
) -> np.ndarray:
    """Convenience replay from integer codes: pack per the plan, execute."""
    spec = step.spec
    a_packed = pack_matrix(a_codes, spec.bits_a, layout=step.pack_a.layout)
    b_packed = pack_matrix(b_codes, spec.bits_b, layout=step.pack_b.layout)
    return execute_gemm_plan(step, a_packed, b_packed, registry=registry)

"""Public bit-Tensor computation API (paper §5).

QGTC's PyTorch extension exposes two GEMM entry points:

* ``bitMM2Int(C, A, B, bit_A, bit_B)`` — any-bitwidth matrix multiply that
  accumulates into a full int32 tensor (used at the output layer, where the
  softmax needs full precision), and
* ``bitMM2Bit(C, A, B, bit_A, bit_B, bit_C)`` — the same multiply whose
  result is immediately requantized to ``bit_C`` bits and re-encoded as a
  bit-Tensor (used between hidden layers, the fused path of §4.5).

We reproduce both with NumPy in/out, returning results instead of writing
into a preallocated ``C`` (the CUDA calling convention does not translate to
NumPy idiom; the arithmetic is identical).

Every entry point takes an ``engine`` argument — ``"auto"``, any backend
name registered in the :class:`~repro.plan.registry.BackendRegistry`
(built-ins: ``"packed"``/``"blas"``), or an
:data:`~repro.core.bitgemm.EngineSelector` callable that picks the engine
per product from the GEMM shape — the hook the serving layer
(:mod:`repro.serving`) uses to dispatch requests through its cost model.
The string/callable form is a compatibility shim over the registry; pass
``registry=`` to resolve against a non-default one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import BitwidthError, ShapeError
from .bitgemm import Engine, EngineSelector, bitgemm
from .bittensor import BitTensor, requantize_codes, to_bit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..plan.registry import BackendRegistry

__all__ = [
    "Engine",
    "EngineSelector",
    "bit_mm_to_int",
    "bit_mm_to_bit",
    "bitMM2Int",
    "bitMM2Bit",
]


def _check_operands(a: BitTensor, b: BitTensor) -> None:
    if not isinstance(a, BitTensor) or not isinstance(b, BitTensor):
        raise ShapeError("bitMM operands must be BitTensor instances")
    if a.layout != "col":
        raise ShapeError(
            "left operand must be column-wise compressed (layout='col'); "
            "use BitTensor.with_layout('col')"
        )
    if b.layout != "row":
        raise ShapeError(
            "right operand must be row-wise compressed (layout='row'); "
            "use BitTensor.with_layout('row')"
        )
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")


def bit_mm_to_int(
    a: BitTensor,
    b: BitTensor,
    *,
    engine: Engine = "auto",
    registry: "BackendRegistry | None" = None,
) -> np.ndarray:
    """Any-bitwidth GEMM with full-precision (int64) output.

    Equivalent of the paper's ``bitMM2Int``: every 1-bit plane product is
    accumulated with its shift weight into a full-width integer result.
    """
    _check_operands(a, b)
    return bitgemm(a.packed, b.packed, engine=engine, registry=registry)


def bit_mm_to_bit(
    a: BitTensor,
    b: BitTensor,
    bit_c: int,
    *,
    layout_c: str = "col",
    pad_vectors_c: int = 128,
    engine: Engine = "auto",
    registry: "BackendRegistry | None" = None,
) -> BitTensor:
    """Any-bitwidth GEMM whose output is requantized to ``bit_c`` bits.

    Equivalent of the paper's ``bitMM2Bit``.  The hidden-layer convention
    packs the result column-wise with PAD128 so it can serve as the next
    layer's left operand without repadding (paper §4.2 last paragraph).
    """
    if bit_c < 1 or bit_c > 32:
        raise BitwidthError(f"bit_C must be in [1, 32], got {bit_c}")
    full = bit_mm_to_int(a, b, engine=engine, registry=registry)
    codes = requantize_codes(full, bit_c)
    return to_bit(codes, bit_c, layout=layout_c, pad_vectors=pad_vectors_c)


# Paper-style aliases ----------------------------------------------------- #
#: Alias matching the published API name ``bitMM2Int``.
bitMM2Int = bit_mm_to_int
#: Alias matching the published API name ``bitMM2Bit``.
bitMM2Bit = bit_mm_to_bit

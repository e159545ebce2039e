"""Emulated GPU Tensor Core: WMMA tiles, the QGTC kernel with zero-tile
jumping and non-zero tile reuse, and the calibrated cost model (paper §4)."""

from .costmodel import MMA_FLOPS, TCCostModel, TimeBreakdown, tflops, useful_flops
from .counters import KernelCounters
from .fragments import FRAG_A_SHAPE, FRAG_B_SHAPE, FRAG_C_SHAPE, Fragment, make_fragment
from .hardware import A100, LAPTOP_GPU, RTX3090, DeviceSpec, get_device
from ..core.bitpack import tile_nonzero_mask
from .kernel import (
    BitGemmKernel,
    KernelConfig,
    KernelResult,
    ReuseMode,
    TileSkipPlan,
    derive_tile_counters,
    plan_tile_skip,
)
from .wmma import bmma_sync, load_matrix_sync, store_matrix_sync

__all__ = [
    "A100",
    "FRAG_A_SHAPE",
    "FRAG_B_SHAPE",
    "FRAG_C_SHAPE",
    "LAPTOP_GPU",
    "MMA_FLOPS",
    "RTX3090",
    "BitGemmKernel",
    "DeviceSpec",
    "Fragment",
    "KernelConfig",
    "KernelCounters",
    "KernelResult",
    "ReuseMode",
    "TCCostModel",
    "TileSkipPlan",
    "TimeBreakdown",
    "bmma_sync",
    "derive_tile_counters",
    "get_device",
    "load_matrix_sync",
    "make_fragment",
    "plan_tile_skip",
    "store_matrix_sync",
    "tflops",
    "tile_nonzero_mask",
    "useful_flops",
]

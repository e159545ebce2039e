"""QGTC reproduction — any-bitwidth quantized GNNs on an emulated GPU Tensor Core.

Reproduces *QGTC: Accelerating Quantized Graph Neural Networks via GPU
Tensor Core* (Wang, Feng, Ding — PPoPP 2022) as a pure-Python library:

* :mod:`repro.core` — quantization, bit decomposition, 3D-stacked bit
  compression, any-bitwidth bit-GEMM, and the bit-Tensor API.
* :mod:`repro.plan` — the plan/execute split: an ExecutionPlan IR
  (per-GEMM quantize/pack/census/backend nodes), the pluggable backend
  registry with capability metadata and the static dispatch rule, and the
  unified content-keyed plan cache.
* :mod:`repro.tc` — a functional + analytical Tensor Core emulator (WMMA
  tiles, zero-tile jumping, non-zero tile reuse, cost model).
* :mod:`repro.graph` — CSR graphs, synthetic dataset generators matching the
  paper's Table 1, subgraph batching.
* :mod:`repro.partition` — a METIS-like multilevel partitioner plus the
  BFS and clustering baselines the paper discusses.
* :mod:`repro.gnn` — Cluster-GCN / Batched-GIN models, fp32 reference path,
  quantization-aware training.
* :mod:`repro.runtime` — PCIe transfer model, bandwidth-optimized subgraph
  packing, inter-layer fusion, end-to-end executor.
* :mod:`repro.baselines` — DGL-like fp32, cuBLAS-int8 and CUTLASS-int4
  execution models.
* :mod:`repro.serving` — session-based inference serving: compiled-plan
  replay over a unified plan cache, request coalescing, static backend
  dispatch.
* :mod:`repro.experiments` — one harness per paper table/figure.

Quickstart::

    import numpy as np
    from repro import to_bit, bitMM2Int

    a = to_bit(np.random.randint(0, 8, (64, 128)), 3, layout="col")
    b = to_bit(np.random.randint(0, 4, (128, 16)), 2, layout="row")
    c = bitMM2Int(a, b)          # exact int product via 1-bit composition
"""

from .core import (
    BitTensor,
    QuantConfig,
    QuantParams,
    bitMM2Bit,
    bitMM2Int,
    bit_mm_to_bit,
    bit_mm_to_int,
    bitgemm,
    bitgemm_codes,
    dequantize,
    pack_matrix,
    quantize,
    to_bit,
)
from .errors import (
    BitwidthError,
    ConfigError,
    DeviceError,
    PackingError,
    PartitionError,
    QGTCError,
    ShapeError,
)
from .version import __version__

__all__ = [
    "__version__",
    "BitTensor",
    "BitwidthError",
    "ConfigError",
    "DeviceError",
    "PackingError",
    "PartitionError",
    "QGTCError",
    "QuantConfig",
    "QuantParams",
    "ShapeError",
    "bitMM2Bit",
    "bitMM2Int",
    "bit_mm_to_bit",
    "bit_mm_to_int",
    "bitgemm",
    "bitgemm_codes",
    "dequantize",
    "pack_matrix",
    "quantize",
    "to_bit",
]

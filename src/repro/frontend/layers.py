"""Ready-made QGTC modules: quantized linear / graph-conv layers and the
compound subgraph buffer (paper §5 API surface + §4.6 packing).

These are the classes an end user of the published artifact would touch:

* :class:`BitLinear` — a linear layer whose matmul runs as a packed
  bit-GEMM (``bitMM2Int`` under the hood);
* :class:`BitGraphConv` — one quantized GCN layer (aggregate then update)
  on a dense-subgraph adjacency;
* :class:`CompoundSubgraphBuffer` — a module holding one batch's
  bit-compressed adjacency and features as registered buffers, giving the
  single-transaction PCIe payload of §4.6.
"""

from __future__ import annotations

import numpy as np

from ..core.api import bit_mm_to_int
from ..core.bittensor import to_bit
from ..core.quantization import quantize
from ..errors import ShapeError
from ..graph.batching import SubgraphBatch
from .module import Module, Parameter

__all__ = ["BitLinear", "BitGraphConv", "CompoundSubgraphBuffer"]


class BitLinear(Module):
    """``y = x @ W`` with both operands quantized and bit-composed.

    Weights are quantized once at construction (the cache the paper keeps
    across subgraphs); inputs are quantized per call.  The integer GEMM is
    exact; the float result carries only quantization error.
    """

    def __init__(
        self, weight: np.ndarray, *, weight_bits: int = 4, input_bits: int = 4
    ):
        super().__init__()
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2:
            raise ShapeError(f"weight must be 2-D, got {weight.shape}")
        self.weight = Parameter(weight)
        self.weight_bits = weight_bits
        self.input_bits = input_bits
        codes, params = quantize(weight, bits=weight_bits)
        self._w_bit = to_bit(codes, weight_bits, layout="row")
        self._w_params = params

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1] != self.weight.data.shape[0]:
            raise ShapeError(
                f"input dim {x.shape[1]} != weight rows {self.weight.data.shape[0]}"
            )
        codes, px = quantize(x, bits=self.input_bits)
        xb = to_bit(codes, self.input_bits, layout="col")
        prod = bit_mm_to_int(xb, self._w_bit).astype(np.float64)
        # Affine correction (see repro.gnn.quantized for the algebra).
        cw = self._w_params.alpha_min + self._w_params.scale / 2
        cx = px.alpha_min + px.scale / 2
        k = x.shape[1]
        return (
            px.scale * self._w_params.scale * prod
            + px.scale * cw * codes.sum(axis=1, dtype=np.float64)[:, None]
            + cx * self._w_params.scale * self._w_bit.to_val().sum(axis=0)[None, :]
            + k * cx * cw
        )


class BitGraphConv(Module):
    """One quantized GCN layer: ``relu(Â (X) W)`` on a dense subgraph."""

    def __init__(
        self, weight: np.ndarray, *, weight_bits: int = 4, input_bits: int = 4
    ):
        super().__init__()
        self.linear = BitLinear(
            weight, weight_bits=weight_bits, input_bits=input_bits
        )
        self.input_bits = input_bits

    def forward(self, adjacency: np.ndarray, x: np.ndarray) -> np.ndarray:
        adjacency = np.asarray(adjacency)
        if adjacency.shape[0] != adjacency.shape[1]:
            raise ShapeError(f"adjacency must be square, got {adjacency.shape}")
        if adjacency.shape[0] != x.shape[0]:
            raise ShapeError("adjacency and feature rows differ")
        adj_bit = to_bit(adjacency.astype(np.int64), 1, layout="col")
        codes, px = quantize(np.asarray(x, dtype=np.float64), bits=self.input_bits)
        xb = to_bit(codes, self.input_bits, layout="row")
        agg_codes = bit_mm_to_int(adj_bit, xb).astype(np.float64)
        degrees = adjacency.sum(axis=1).astype(np.float64)[:, None]
        agg = px.scale * agg_codes + (px.alpha_min + px.scale / 2) * degrees
        return np.maximum(self.linear(agg), 0.0)


class CompoundSubgraphBuffer(Module):
    """One batch's compressed operands as a single registered payload.

    The paper packs "the low-bit adjacent matrix and low-bit embedding
    matrix into a compound memory object (by using torch.nn.Module and
    register_buffer)" so the host-device copy is one transaction.  The
    ``adjacency`` buffer holds the 1-bit column-compressed words, the
    ``features`` buffer the s-bit row-compressed words;
    :meth:`Module.buffer_nbytes` is the payload the PCIe model charges.
    """

    def __init__(self, batch: SubgraphBatch, *, feature_bits: int = 4):
        super().__init__()
        self.feature_bits = feature_bits
        packed_adj = batch.packed_adjacency()
        codes, params = quantize(
            batch.features().astype(np.float64), bits=feature_bits
        )
        feat_bit = to_bit(codes, feature_bits, layout="row")
        self.register_buffer("adjacency", packed_adj.words)
        self.register_buffer("features", feat_bit.storage_words)
        self.quant_params = params
        self.num_nodes = batch.num_nodes

    def forward(self) -> dict[str, np.ndarray]:
        """Return the payload views (what the device kernel would receive)."""
        return {"adjacency": self.adjacency, "features": self.features}

    @property
    def payload_bytes(self) -> int:
        """Bytes crossing PCIe in the single compound transaction."""
        return self.buffer_nbytes()

"""Batch profiling: measure once, model many configurations.

A Figure 7 sweep times six bitwidths on the same partitioned dataset.  The
only data-dependent inputs to the cost model are the adjacency tile census
(how many 8x128 tiles are non-zero after batching) and the edge counts —
both independent of bitwidth.  :func:`profile_batches` packs each batch's
adjacency once and records those statistics; every configuration is then
modeled from the profiles in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.bitpack import Operand
from ..errors import ShapeError
from ..graph.batching import Subgraph, SubgraphBatch, batch_subgraphs

__all__ = ["BatchProfile", "profile_batch", "profile_batches"]


@dataclass(frozen=True)
class BatchProfile:
    """Bitwidth-independent statistics of one subgraph batch.

    ``mt``/``kt`` describe the adjacency tile grid (rows padded to 8,
    columns to 128); ``nnz_tiles`` is the measured non-zero tile count the
    zero-tile-jumping kernel processes; ``nnz_adj`` counts set bits of the
    batched adjacency including self loops (what SpMM baselines traverse).
    """

    num_nodes: int
    num_edges: int
    nnz_adj: int
    mt: int
    kt: int
    nnz_tiles: int

    @property
    def total_tiles(self) -> int:
        return self.mt * self.kt

    @property
    def nonzero_tile_fraction(self) -> float:
        """Figure 8's metric: fraction of tiles a jumping kernel processes."""
        if self.total_tiles == 0:
            return 0.0
        return self.nnz_tiles / self.total_tiles

    @property
    def adjacency_density(self) -> float:
        """Set-bit density of the batched adjacency (with self loops)."""
        if self.num_nodes == 0:
            return 0.0
        return self.nnz_adj / (self.num_nodes * self.num_nodes)


def profile_batch(batch: SubgraphBatch) -> BatchProfile:
    """Census one batch's adjacency tiles.

    The ballot is taken from the batch's CSR coordinates — ``O(E)``, no
    packed planes — so paper-scale graphs profile in seconds; the tests
    assert the count equals the ballot over the packed adjacency.
    """
    n = batch.num_nodes
    (mask,) = Operand(csr=batch.adjacency_csr()).tile_masks()
    return BatchProfile(
        num_nodes=n,
        num_edges=batch.num_edges,
        nnz_adj=2 * batch.num_edges + n,  # symmetric edges + self loops
        mt=mask.shape[0],
        kt=mask.shape[1],
        nnz_tiles=int(mask.sum()),
    )


def profile_batches(
    subgraphs: Sequence[Subgraph], batch_size: int
) -> list[BatchProfile]:
    """Profile every batch of a partitioned dataset."""
    if batch_size < 1:
        raise ShapeError(f"batch_size must be >= 1, got {batch_size}")
    return [profile_batch(b) for b in batch_subgraphs(subgraphs, batch_size)]

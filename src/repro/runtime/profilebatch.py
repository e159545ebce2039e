"""Batch profiling: measure once, model many configurations.

A Figure 7 sweep times six bitwidths on the same partitioned dataset.  The
only data-dependent inputs to the cost model are the adjacency tile census
(which 8x128 tiles are non-zero after batching) and the edge counts —
both independent of bitwidth.  :func:`profile_batches` censuses each
batch's adjacency once and records those statistics; every configuration
is then modeled from the profiles in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import ShapeError
from ..gnn.quantized import pack_batch_adjacency
from ..graph.batching import Subgraph, SubgraphBatch, batch_subgraphs
from ..tc.kernel import TileSkipPlan

__all__ = ["BatchProfile", "profile_batch", "profile_batches"]


@dataclass(frozen=True)
class BatchProfile:
    """Bitwidth-independent statistics of one subgraph batch.

    ``plan`` is the batch adjacency's zero-tile census (§4.3), the ballot
    a zero-tile-jumping kernel skips by; ``nnz_adj`` counts set bits of
    the batched adjacency including self loops (what SpMM baselines
    traverse).
    """

    num_nodes: int
    nnz_adj: int
    plan: TileSkipPlan


def profile_batch(batch: SubgraphBatch) -> BatchProfile:
    """Census one batch's adjacency tiles.

    The ballot is the one a served batch carries
    (:func:`~repro.gnn.quantized.pack_batch_adjacency`), taken from the
    batch's CSR coordinates — ``O(E)``, no packed planes — so paper-scale
    graphs profile in seconds.
    """
    n = batch.num_nodes
    return BatchProfile(
        num_nodes=n,
        nnz_adj=2 * batch.num_edges + n,  # symmetric edges + self loops
        plan=pack_batch_adjacency(batch).plan,
    )


def profile_batches(
    subgraphs: Sequence[Subgraph], batch_size: int
) -> list[BatchProfile]:
    """Profile every batch of a partitioned dataset."""
    if batch_size < 1:
        raise ShapeError(f"batch_size must be >= 1, got {batch_size}")
    return [profile_batch(b) for b in batch_subgraphs(subgraphs, batch_size)]

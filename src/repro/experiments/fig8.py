"""Figure 8 reproduction: zero-tile jumping efficiency.

For each dataset, the fraction of 8x128 adjacency tiles a jumping kernel
still processes, relative to processing every tile.  The paper measures
this on batched subgraphs, where the dominant zero-tile source is the
block-diagonal structure (no edges between batched subgraphs); a secondary
source is missing intra-subgraph edges.  We report both the measured ratio
and its decomposition into those two sources.

``measure=True`` additionally *executes* each batch's aggregation product
through the emulated kernel and records the skipped/processed tile counts
its launches report (balloted from the packed words the kernel runs on) —
the golden regression check that the modeled census (O(E), straight from
the CSR edge list) and what the kernel actually jumps can never drift
apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.bitpack import TC_M, pack_matrix
from ..graph.batching import batch_subgraphs
from ..graph.datasets import dataset_names
from ..tc.kernel import BitGemmKernel
from .common import format_table, prepare_dataset
from .paperdata import PAPER_FIG8_RATIO

__all__ = ["Fig8Row", "run_fig8", "format_fig8"]


@dataclass(frozen=True)
class Fig8Row:
    """One dataset's tile census."""

    dataset: str
    total_tiles: int
    nonzero_tiles: int
    processed_ratio: float
    #: Upper bound from batching alone: fraction of tiles inside diagonal
    #: blocks (everything off-diagonal is necessarily zero).
    diagonal_block_ratio: float
    paper_ratio: float
    #: Non-zero tiles the emulated kernel's launches actually
    #: processed (``None`` unless ``run_fig8(measure=True)``).  Must equal
    #: ``nonzero_tiles`` — the modeled census is a measurement too.
    measured_nonzero_tiles: int | None = None


def _measure_batch_tiles(batch) -> tuple[int, int]:
    """Execute one batch's aggregation GEMM through the emulated kernel and
    return its measured ``(processed, total)`` tile counts."""
    packed = batch.packed_adjacency()
    probe = pack_matrix(
        np.ones((batch.num_nodes, TC_M), dtype=np.int64), 1, layout="row"
    )
    result = BitGemmKernel().run(packed, probe)
    return result.counters.tiles_processed, result.counters.tiles_total


def run_fig8(
    *,
    datasets: list[str] | None = None,
    scale: float | None = None,
    batch_size: int = 16,
    seed: int = 0,
    measure: bool = False,
) -> list[Fig8Row]:
    """Census adjacency tiles with the paper's batched-subgraph setup."""
    rows = []
    for name in datasets or dataset_names():
        prepared = prepare_dataset(name, scale=scale, batch_size=batch_size, seed=seed)
        total = 0
        nnz = 0
        diag = 0
        measured = 0 if measure else None
        if measure:
            for batch in batch_subgraphs(prepared.subgraphs, batch_size):
                measured += _measure_batch_tiles(batch)[0]
        for profile, batch_members in zip(
            prepared.profiles,
            _batch_member_sizes(prepared, batch_size),
        ):
            total += profile.total_tiles
            nnz += profile.nnz_tiles
            # Tiles whose row range and column range intersect the same
            # member block can be non-zero; count them (with the member's
            # actual offset, since blocks are not tile-aligned) as the
            # batching upper bound.
            offset = 0
            for size in batch_members:
                row_tiles = (offset + size - 1) // 8 - offset // 8 + 1
                col_tiles = (offset + size - 1) // 128 - offset // 128 + 1
                diag += row_tiles * col_tiles
                offset += size
        rows.append(
            Fig8Row(
                dataset=name,
                total_tiles=total,
                nonzero_tiles=nnz,
                processed_ratio=nnz / total if total else 0.0,
                diagonal_block_ratio=min(diag / total, 1.0) if total else 0.0,
                paper_ratio=PAPER_FIG8_RATIO[name],
                measured_nonzero_tiles=measured,
            )
        )
    return rows


def _batch_member_sizes(prepared, batch_size: int) -> list[list[int]]:
    sizes = [s.num_nodes for s in prepared.subgraphs]
    return [
        sizes[i : i + batch_size] for i in range(0, len(sizes), batch_size)
    ]


def format_fig8(rows: list[Fig8Row]) -> str:
    headers = [
        "dataset",
        "tiles",
        "nonzero",
        "processed %",
        "diag-block bound %",
        "paper %",
    ]
    body = [
        [
            r.dataset,
            r.total_tiles,
            r.nonzero_tiles,
            f"{100 * r.processed_ratio:.1f}",
            f"{100 * r.diagonal_block_ratio:.1f}",
            f"{100 * r.paper_ratio:.1f}",
        ]
        for r in rows
    ]
    return format_table(
        headers, body, title="Figure 8: zero-tile jumping efficiency"
    )

"""Shared infrastructure for the paper-reproduction experiment harnesses.

Every Figure 7 / Figure 8 experiment needs the same preparation: generate
the dataset stand-in, METIS-partition it, induce subgraphs, and profile the
batches.  :func:`prepare_dataset` does that once and caches the result per
process — a six-bitwidth sweep re-uses one partitioning.

**Scaling protocol.**  Paper-size graphs (up to 2.4 M nodes) partition in
minutes, not seconds, so experiments default to a per-dataset ``scale`` and
shrink the partition count proportionally (``parts = round(1500 * scale)``).
That keeps the *subgraph size distribution* — the quantity every modeled
cost depends on — faithful to the paper's setup, and makes the projected
full-size epoch time simply ``modeled_time / scale``.  EXPERIMENTS.md
records the scale used for every reported number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import ConfigError
from ..graph.batching import Subgraph, induced_subgraphs
from ..graph.csr import CSRGraph
from ..graph.datasets import load_dataset
from ..partition.interface import PartitionResult, partition_graph
from ..runtime.profilebatch import BatchProfile, profile_batches

__all__ = [
    "DEFAULT_SCALES",
    "PAPER_NUM_PARTS",
    "PreparedDataset",
    "prepare_dataset",
    "format_table",
]

#: The paper partitions every graph into 1500 subgraphs (§6, Datasets).
PAPER_NUM_PARTS = 1500

#: Default scales chosen so each stand-in has ~5-10 k nodes and prepares in
#: a few seconds; override with ``scale=`` for larger runs.
DEFAULT_SCALES: dict[str, float] = {
    "Proteins": 0.20,
    "artist": 0.15,
    "BlogCatalog": 0.08,
    "PPI": 0.12,
    "ogbn-arxiv": 0.05,
    "ogbn-products": 0.003,
}


@dataclass(frozen=True)
class PreparedDataset:
    """A dataset ready for epoch modeling."""

    graph: CSRGraph
    partition: PartitionResult
    subgraphs: list[Subgraph]
    profiles: list[BatchProfile]
    scale: float
    batch_size: int

    @property
    def name(self) -> str:
        return self.graph.name

    @property
    def projection_factor(self) -> float:
        """Multiply a modeled scaled-epoch time by this to project the
        paper-size epoch (see module docstring)."""
        return 1.0 / self.scale


_CACHE: dict[tuple, PreparedDataset] = {}


def prepare_dataset(
    name: str,
    *,
    scale: float | None = None,
    batch_size: int = 1,
    method: str = "metis",
    seed: int = 0,
    with_features: bool = False,
) -> PreparedDataset:
    """Generate, partition, and profile one Table 1 dataset (cached)."""
    if scale is None:
        scale = DEFAULT_SCALES.get(name, 0.1)
    key = (name.lower(), scale, batch_size, method, seed, with_features)
    if key in _CACHE:
        return _CACHE[key]
    graph = load_dataset(name, scale=scale, seed=seed, with_features=with_features)
    num_parts = max(round(PAPER_NUM_PARTS * scale), 2)
    if num_parts > graph.num_nodes:
        raise ConfigError(
            f"scale {scale} leaves fewer nodes than partitions for {name}"
        )
    partition = partition_graph(graph, num_parts, method=method, seed=seed)
    subgraphs = induced_subgraphs(graph, partition.assignment)
    profiles = profile_batches(subgraphs, batch_size)
    prepared = PreparedDataset(
        graph=graph,
        partition=partition,
        subgraphs=subgraphs,
        profiles=profiles,
        scale=scale,
        batch_size=batch_size,
    )
    _CACHE[key] = prepared
    return prepared


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], *, title: str = ""
) -> str:
    """Render an aligned ASCII table for experiment output."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)

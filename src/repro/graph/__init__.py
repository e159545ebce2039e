"""Graph substrate: CSR containers, Table 1 synthetic datasets, and
Cluster-GCN-style subgraph batching."""

from .batching import (
    Subgraph,
    SubgraphBatch,
    batch_subgraphs,
    batch_subgraphs_by_nodes,
    induced_subgraphs,
    round_full,
)
from .csr import CSRGraph
from .datasets import TABLE1, DatasetSpec, dataset_names, get_spec, load_dataset
from .generators import caveman_graph, planted_partition_graph, random_graph

__all__ = [
    "TABLE1",
    "CSRGraph",
    "DatasetSpec",
    "Subgraph",
    "SubgraphBatch",
    "batch_subgraphs",
    "batch_subgraphs_by_nodes",
    "caveman_graph",
    "dataset_names",
    "get_spec",
    "induced_subgraphs",
    "load_dataset",
    "planted_partition_graph",
    "random_graph",
    "round_full",
]

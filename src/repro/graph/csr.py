"""CSR graph container used throughout the reproduction.

GNN frameworks (and the paper's data loader) store graphs in compressed
sparse row form; so do we.  Graphs are undirected and stored symmetrically:
every edge ``{u, v}`` appears as both ``(u, v)`` and ``(v, u)`` in the CSR
arrays.  Node features and labels ride along as optional dense arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..errors import ShapeError

__all__ = ["CSRGraph"]


@dataclass
class CSRGraph:
    """An undirected graph in CSR form with optional features/labels.

    Attributes
    ----------
    indptr:
        ``(num_nodes + 1,)`` int64 row pointers.
    indices:
        ``(num_directed_edges,)`` int64 column indices (symmetrized).
    features:
        Optional ``(num_nodes, dim)`` float32 node embedding matrix.
    labels:
        Optional ``(num_nodes,)`` int64 class labels.
    name:
        Human-readable dataset name for reports.
    """

    indptr: np.ndarray
    indices: np.ndarray
    features: np.ndarray | None = None
    labels: np.ndarray | None = None
    name: str = "graph"
    num_classes: int | None = None
    #: ``(indptr, indices, adjacency)``: :meth:`to_scipy`'s matrix and the
    #: arrays it was built over.
    _adj_cache: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.indptr.ndim != 1 or self.indptr.size < 1:
            raise ShapeError("indptr must be a 1-D array of length num_nodes + 1")
        if self.indptr[0] != 0 or np.any(np.diff(self.indptr) < 0):
            raise ShapeError("indptr must start at 0 and be non-decreasing")
        if self.indices.ndim != 1 or self.indptr[-1] != self.indices.size:
            raise ShapeError("indices length must equal indptr[-1]")
        n = self.num_nodes
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n):
            raise ShapeError("indices reference nodes outside the graph")
        if self.features is not None:
            self.features = np.asarray(self.features, dtype=np.float32)
            if self.features.shape[0] != n:
                raise ShapeError(
                    f"features rows {self.features.shape[0]} != num_nodes {n}"
                )
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (n,):
                raise ShapeError(f"labels shape {self.labels.shape} != ({n},)")

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: np.ndarray,
        *,
        features: np.ndarray | None = None,
        labels: np.ndarray | None = None,
        name: str = "graph",
        num_classes: int | None = None,
    ) -> "CSRGraph":
        """Build from an ``(E, 2)`` undirected edge list.

        Duplicate edges and self-loops are removed; each surviving edge is
        stored in both directions.
        """
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ShapeError(f"edges must be (E, 2), got {edges.shape}")
        if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
            raise ShapeError("edge endpoints outside [0, num_nodes)")
        # Canonicalize, drop self loops and duplicates.
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
        if lo.size:
            key = lo * np.int64(num_nodes) + hi
            _, unique_idx = np.unique(key, return_index=True)
            lo, hi = lo[unique_idx], hi[unique_idx]
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(
            indptr=indptr,
            indices=dst,
            features=features,
            labels=labels,
            name=name,
            num_classes=num_classes,
        )

    @classmethod
    def from_scipy(
        cls,
        adj: sp.spmatrix,
        *,
        features: np.ndarray | None = None,
        labels: np.ndarray | None = None,
        name: str = "graph",
        num_classes: int | None = None,
    ) -> "CSRGraph":
        """Build from any SciPy sparse adjacency (symmetrized, unweighted)."""
        coo = sp.coo_matrix(adj)
        edges = np.stack([coo.row, coo.col], axis=1)
        return cls.from_edges(
            adj.shape[0],
            edges,
            features=features,
            labels=labels,
            name=name,
            num_classes=num_classes,
        )

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return self.indptr.size - 1

    @property
    def num_directed_edges(self) -> int:
        """Stored (directed) edge count — twice the undirected count."""
        return self.indices.size

    @property
    def num_edges(self) -> int:
        """Undirected edge count."""
        return self.indices.size // 2

    @property
    def feature_dim(self) -> int:
        if self.features is None:
            raise ShapeError(f"graph {self.name!r} has no features")
        return self.features.shape[1]

    def degrees(self) -> np.ndarray:
        """Node degrees (int64)."""
        return np.diff(self.indptr)

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbor ids of ``node``."""
        if not 0 <= node < self.num_nodes:
            raise ShapeError(f"node {node} outside [0, {self.num_nodes})")
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_scipy(self) -> sp.csr_matrix:
        """Unweighted CSR adjacency (cached while ``indptr`` and ``indices``
        are the objects it was built over: rebinding either rebuilds it).

        The returned matrix aliases this graph's ``indptr``/``indices``
        buffers through read-only views: in-place scipy operations that
        would reorder or rewrite them (``sort_indices``, ``data *= ...``)
        raise instead of silently corrupting the graph — and every later
        ``to_scipy()`` call — behind the cache.
        """
        cache = self._adj_cache
        if cache is None or cache[0] is not self.indptr or cache[1] is not self.indices:
            n = self.num_nodes
            data = np.ones(self.indices.size, dtype=np.float32)
            indices = self.indices.view()
            indptr = self.indptr.view()
            for arr in (data, indices, indptr):
                arr.setflags(write=False)
            adj = sp.csr_matrix((data, indices, indptr), shape=(n, n), copy=False)
            cache = self._adj_cache = (self.indptr, self.indices, adj)
        return cache[2]

    def adjacency_dense(self) -> np.ndarray:
        """Dense 0/1 adjacency (small graphs only; used for packing)."""
        n = self.num_nodes
        if n > 65536:
            raise ShapeError(
                f"refusing to densify a {n}-node adjacency; use subgraphs"
            )
        dense = np.zeros((n, n), dtype=np.uint8)
        rows = np.repeat(np.arange(n), np.diff(self.indptr))
        dense[rows, self.indices] = 1
        return dense

    def subgraph(self, nodes: np.ndarray) -> "CSRGraph":
        """Induced subgraph on ``nodes`` (relabelled 0..len(nodes)-1).

        Features and labels are sliced along.  Node order in ``nodes`` is
        preserved, which batching relies on for block-diagonal layouts.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.ndim != 1:
            raise ShapeError("subgraph nodes must be a 1-D index array")
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self.num_nodes):
            raise ShapeError("subgraph nodes outside the graph")
        if np.unique(nodes).size != nodes.size:
            raise ShapeError("subgraph nodes must be unique")
        sub = self.to_scipy()[nodes][:, nodes].tocsr()
        sub.sort_indices()
        return CSRGraph(
            indptr=sub.indptr.astype(np.int64),
            indices=sub.indices.astype(np.int64),
            features=None if self.features is None else self.features[nodes],
            labels=None if self.labels is None else self.labels[nodes],
            name=f"{self.name}[{nodes.size}]",
            num_classes=self.num_classes,
        )

    def with_features(
        self, features: np.ndarray, labels: np.ndarray | None = None
    ) -> "CSRGraph":
        """A copy of this graph carrying the given features/labels."""
        return CSRGraph(
            indptr=self.indptr,
            indices=self.indices,
            features=features,
            labels=self.labels if labels is None else labels,
            name=self.name,
            num_classes=self.num_classes,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dim = self.features.shape[1] if self.features is not None else None
        return (
            f"CSRGraph(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, dim={dim})"
        )

"""Subgraph batching for Cluster-GCN-style mini-batch GNN computation
(paper §4.1).

After METIS partitioning, QGTC gathers several partitions into a *batch*:
the batch's adjacency matrix is block-diagonal (no edges cross partition
boundaries inside a batch — inter-partition edges are dropped, exactly as
Cluster-GCN does), its feature matrix is the row-concatenation of member
features.  Those cross-subgraph zero blocks are the dominant source of the
all-zero TC tiles that zero-tile jumping skips (paper §6.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from ..core import native
from ..core.bitpack import Operand, PackedBits, block_diagonal
from ..errors import PartitionError, ShapeError
from .csr import CSRGraph

__all__ = [
    "Subgraph",
    "SubgraphBatch",
    "induced_subgraphs",
    "batch_subgraphs",
    "batch_subgraphs_by_nodes",
    "round_full",
]


def round_full(
    members: int, nodes: int, next_nodes: int, max_nodes: int, max_members: int | None
) -> bool:
    """The greedy coalescing rule: would adding the next subgraph overflow?

    A round of ``members`` subgraphs totalling ``nodes`` nodes is full for
    a ``next_nodes``-node candidate when the node budget or the member cap
    would be exceeded.  An empty round is never full — an oversized single
    subgraph still gets its own batch.  Shared by
    :func:`batch_subgraphs_by_nodes` and the serving engine's stream
    coalescing so the two can never drift apart.
    """
    return members > 0 and (
        nodes + next_nodes > max_nodes
        or (max_members is not None and members >= max_members)
    )


@dataclass(frozen=True)
class Subgraph:
    """One partition: the induced graph plus its original node ids."""

    graph: CSRGraph
    original_nodes: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def memo(self, name: str, derive: Callable[[CSRGraph], Any]) -> Any:
        """``derive(self.graph)``, memoised on this member under ``name`` —
        the one rule every per-member memo follows.

        The structure arrays are frozen here once derived from (an in-place
        write raises), and the memo holds while ``graph.indptr`` /
        ``graph.indices`` are the same, still read-only objects: a rebound,
        thawed or unpickled array derives again — and so does a memo
        ``derive`` reads, which still sees the arrays thawed.  Arrays that
        borrow their memory (their owner can write) are never trusted.
        Racing threads derive an equal value.
        """
        graph, held = self.graph, self.__dict__.get(name)
        indptr, indices = graph.indptr, graph.indices
        if held and held[0] is indptr and held[1] is indices and not (
            indptr.flags.writeable or indices.flags.writeable
        ):
            return held[2]
        if not (indptr.flags.owndata and indices.flags.owndata):
            return derive(graph)
        held = self.__dict__[name] = (indptr, indices, derive(graph))
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return held[2]

    @property
    def self_looped_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of ``A + I`` as a canonical CSR — rows
        sorted, a stored self loop or repeated coordinate one entry — derived
        once per member (:meth:`memo`).  GCN aggregates ``N(v) ∪ {v}``."""
        return self.memo("_self_looped_csr", _self_looped)

    @property
    def csr_block(self) -> tuple:
        """:attr:`self_looped_csr` with its native row-block record
        (:func:`repro.core.native.csr_record`: the addresses of the two
        arrays it travels with, ``None`` if C cannot read them) as a third
        item, derived once per member."""
        return self.memo("_native_block", lambda graph: (*(loop := self.self_looped_csr),
                                                          native.csr_record(*loop)))

    @property
    def feature_rows(self) -> native.Rows | None:
        """``graph.features`` as :class:`repro.core.native.Rows`, kept while
        they are the same array: C reads their values per call, so a write
        in place is seen."""
        features, held = self.graph.features, self.__dict__.get("_native_rows")
        if held is None or held[0] is not features:
            held = self.__dict__["_native_rows"] = (features, native.feature_rows(features))
        return held[1]

    def __getstate__(self) -> dict:
        # A native record addresses this process's memory: it derives again where it lands.
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_native")}


def _self_looped(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    # Built from the arrays themselves, not ``graph.to_scipy()``: that cache
    # holds while the arrays are the same objects, so it would serve the old
    # structure after a thawed or borrowed array is written in place — the
    # very cases :meth:`Subgraph.memo` derives again for.
    n = graph.num_nodes
    ones = np.ones(graph.indices.size, np.float32)
    adj = sp.csr_matrix((ones, graph.indices, graph.indptr), shape=(n, n), copy=True)
    adj.sum_duplicates()
    adj = adj + sp.identity(n, dtype=np.float32, format="csr")
    for arr in (adj.indptr, adj.indices):
        arr.setflags(write=False)
    return adj.indptr, adj.indices


def induced_subgraphs(graph: CSRGraph, assignment: np.ndarray) -> list[Subgraph]:
    """Split a graph into induced subgraphs by a partition assignment.

    ``assignment[v]`` is the part id of node ``v``; ids must form the range
    ``0..num_parts-1``.  Empty parts are rejected — a partitioner that
    produces them is broken, and silently dropping them would skew the
    Figure 8 tile census.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (graph.num_nodes,):
        raise PartitionError(
            f"assignment shape {assignment.shape} != ({graph.num_nodes},)"
        )
    if assignment.size == 0:
        return []
    num_parts = int(assignment.max()) + 1
    if assignment.min() < 0:
        raise PartitionError("assignment contains negative part ids")
    counts = np.bincount(assignment, minlength=num_parts)
    if (counts == 0).any():
        empty = np.flatnonzero(counts == 0)
        raise PartitionError(f"empty partitions: {empty[:10].tolist()}")
    order = np.argsort(assignment, kind="stable")
    boundaries = np.cumsum(counts)[:-1]
    groups = np.split(order, boundaries)
    return [Subgraph(graph=graph.subgraph(g), original_nodes=g) for g in groups]


@dataclass(frozen=True)
class SubgraphBatch:
    """A batch of subgraphs processed in one GPU round (paper §4.1).

    The adjacency is block-diagonal over the members.  A serving round
    reads the members where they are (their CSRs and feature rows); the
    helper methods materialize the batch CSR, packed adjacency and stacked
    features, the references it is held to.
    """

    members: tuple[Subgraph, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise PartitionError("a batch needs at least one subgraph")

    # The member tuple is frozen, so its sums are computed once per batch.
    @cached_property
    def num_nodes(self) -> int:
        return sum(s.num_nodes for s in self.members)

    @cached_property
    def num_edges(self) -> int:
        return sum(s.num_edges for s in self.members)

    @cached_property
    def node_offsets(self) -> np.ndarray:
        """Start row of each member in the block-diagonal layout."""
        sizes = np.array([s.num_nodes for s in self.members], dtype=np.int64)
        return np.concatenate([[0], np.cumsum(sizes)[:-1]])

    def dense_adjacency(self, *, self_loops: bool = True) -> np.ndarray:
        """Block-diagonal 0/1 adjacency of the batch.

        ``self_loops`` adds the identity — GCN aggregation includes the
        node's own embedding (paper Eq. 1 aggregates ``N(v) ∪ {v}``).
        The ``n²``-byte reference the tests compare packed artifacts
        against; nothing on a serving path calls it.
        """
        n = self.num_nodes
        if n > 65536:
            raise ShapeError(f"batch of {n} nodes too large to densify")
        out = np.zeros((n, n), dtype=np.uint8)
        for sub, off in zip(self.members, self.node_offsets):
            out[off : off + sub.num_nodes, off : off + sub.num_nodes] = (
                sub.graph.adjacency_dense()
            )
        if self_loops:
            np.fill_diagonal(out, 1)
        return out

    def adjacency_csr(self) -> sp.csr_matrix:
        """The block-diagonal ``A + I`` as a canonical ``float32`` CSR of
        ones: a copy of the members' self-looped CSRs
        (:attr:`Subgraph.self_looped_csr`) at their node offsets, in
        ``O(E)`` — blocks of canonical rows stay canonical."""
        return block_diagonal([sub.self_looped_csr for sub in self.members])

    def packed_adjacency(self, *, pad_vectors: int = 8) -> PackedBits:
        """1-bit column-compressed adjacency — the kernel's left operand."""
        csr = self.adjacency_csr()
        return Operand(csr=csr, pad_vectors=pad_vectors).packed

    def features(self, dtype=None) -> np.ndarray:
        """Row-stacked member features, aligned with the adjacency rows —
        concatenated straight into ``dtype`` when one is given."""
        feats = []
        for sub in self.members:
            if sub.graph.features is None:
                raise ShapeError("batch member has no features")
            feats.append(sub.graph.features)
        return np.concatenate(feats, axis=0, dtype=dtype)

    def labels(self) -> np.ndarray:
        """Row-stacked member labels."""
        labs = []
        for sub in self.members:
            if sub.graph.labels is None:
                raise ShapeError("batch member has no labels")
            labs.append(sub.graph.labels)
        return np.concatenate(labs, axis=0)

    def member_slices(self) -> list[slice]:
        """Row ranges of each member inside the batch layout."""
        out, start = [], 0
        for sub in self.members:
            out.append(slice(start, start + sub.num_nodes))
            start += sub.num_nodes
        return out


def batch_subgraphs(
    subgraphs: Sequence[Subgraph], batch_size: int
) -> Iterator[SubgraphBatch]:
    """Group subgraphs into fixed-size batches (last batch may be short)."""
    if batch_size < 1:
        raise PartitionError(f"batch_size must be >= 1, got {batch_size}")
    for start in range(0, len(subgraphs), batch_size):
        yield SubgraphBatch(members=tuple(subgraphs[start : start + batch_size]))


def batch_subgraphs_by_nodes(
    subgraphs: Sequence[Subgraph],
    max_nodes: int,
    *,
    max_members: int | None = None,
) -> Iterator[SubgraphBatch]:
    """Greedy node-budget batching, order-preserving.

    Packs consecutive subgraphs into a batch while the member count stays
    within ``max_members`` and the total node count within ``max_nodes`` —
    the coalescing rule the serving engine uses so a batch's packed
    adjacency never outgrows its ``n^2 / 8``-byte budget.  A single subgraph
    larger than the budget still gets its own batch (it cannot be split).
    """
    if max_nodes < 1:
        raise PartitionError(f"max_nodes must be >= 1, got {max_nodes}")
    if max_members is not None and max_members < 1:
        raise PartitionError(f"max_members must be >= 1, got {max_members}")
    pending: list[Subgraph] = []
    nodes = 0
    for sub in subgraphs:
        if round_full(len(pending), nodes, sub.num_nodes, max_nodes, max_members):
            yield SubgraphBatch(members=tuple(pending))
            pending, nodes = [], 0
        pending.append(sub)
        nodes += sub.num_nodes
    if pending:
        yield SubgraphBatch(members=tuple(pending))

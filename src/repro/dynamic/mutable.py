"""Incrementally mutable adjacency: sorted edge keys + delta tile census.

The paper's 8x128 tile structure (§4.3) localizes edits: an edge sets
the positions ``(u, v)`` and ``(v, u)``, in at most two tiles.
:class:`MutableGraph` holds nothing ``n x n``: its live state is the
sorted keys ``u * n + v`` of ``A + I``'s set positions, their CSR (the
one :func:`repro.gnn.quantized.pack_batch_adjacency` builds) and the
zero-tile census.  A mutation batch splices its net edits into them and
moves only the dirty tiles' census; the §4.2 words are packed by their
first reader, if any (a ``blas`` serve binds the CSR).

Identity is a **chained structure digest**: every effective mutation
extends ``digest_{t+1} = H(digest_t || op || u || v)``, so the digest
changes whenever — and only when — the structure changes, in O(edits)
instead of O(E).  Cache keys derived from the digest therefore miss the
moment the structure moves, which is what makes a stale plan or operand
unreachable (see :mod:`repro.dynamic.session`).

Published artifacts are immutable: a mutation builds new arrays and
never writes into the old ones, so :meth:`MutableGraph.snapshot` shares
the live (read-only) arrays, and a reader replaying a snapshot can never
observe a concurrent mutation mid-flight.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable

import numpy as np

from ..core.bitpack import TC_K, TC_M, pad_to
from ..core.bitops import WORD_BITS
from ..errors import ShapeError
from ..gnn.quantized import PackedAdjacency, pack_batch_adjacency
from ..graph.batching import Subgraph, SubgraphBatch
from ..graph.csr import CSRGraph
from ..telemetry import Counters

__all__ = [
    "MutableGraph",
    "MutationDelta",
    "MutationStats",
    "dirty_tiles_for",
]


def dirty_tiles_for(u: int, v: int) -> frozenset[tuple[int, int]]:
    """The analytically-expected dirty tile set of one edge mutation.

    Flipping edge ``(u, v)`` flips adjacency bits ``(u, v)`` and
    ``(v, u)``; with 8-row x 128-column tiles those bits live in tiles
    ``(u // 8, v // 128)`` and ``(v // 8, u // 128)`` — one tile when the
    two coordinates land in the same tile.  The property tests assert
    :class:`MutableGraph` dirties exactly this set.
    """
    return frozenset({(u // TC_M, v // TC_K), (v // TC_M, u // TC_K)})


@dataclass(frozen=True)
class MutationDelta:
    """What one :meth:`MutableGraph.apply` batch actually changed."""

    #: Effective mutations in application order, as ``(op, u, v)`` with
    #: canonical ``u < v`` endpoints.  No-ops are excluded.
    applied: tuple[tuple[str, int, int], ...]
    #: Requested mutations that changed nothing (duplicate inserts,
    #: deletes of absent edges, self-loops).
    noops: int
    #: Tiles whose census was re-balloted by this batch.
    dirty_tiles: frozenset[tuple[int, int]]

    @property
    def mutated(self) -> bool:
        """True when the batch changed the structure (digest moved)."""
        return bool(self.applied)


@dataclass
class MutationStats(Counters):
    """Lifetime mutation counters of one :class:`MutableGraph`."""

    DERIVED = ("mutations_applied",)

    batches: int = 0
    edges_inserted: int = 0
    edges_deleted: int = 0
    noop_mutations: int = 0
    tiles_recensused: int = 0
    full_repacks: int = 0

    @property
    def mutations_applied(self) -> int:
        """Effective structural changes across all batches."""
        return self.edges_inserted + self.edges_deleted


class MutableGraph:
    """A mutable wrapper over the aggregation operand ``A + I``.

    Construct with :meth:`from_csr`; mutate with :meth:`insert_edge` /
    :meth:`delete_edge` / :meth:`apply`; publish with :meth:`snapshot`.
    The live arrays are private and read-only — a published artifact
    shares them — and the class-level invariant is that a snapshot is
    *bit-for-bit* equal to a fresh
    :func:`~repro.gnn.quantized.pack_batch_adjacency` of the mutated edge
    set (the differential harness in ``tests/dynamic`` pins this after
    every mutation).
    """

    def __init__(self, graph: CSRGraph) -> None:
        """Seed the live state from ``graph`` (see :meth:`from_csr`)."""
        self._features = graph.features
        self._labels = graph.labels
        self._name = graph.name
        self._num_classes = graph.num_classes
        self.num_nodes = n = graph.num_nodes
        if self.num_nodes <= 0:
            raise ShapeError("a mutable graph needs at least one node")
        # Canonical undirected edge set: (lo, hi) with lo < hi.  Deriving
        # it this way drops self-loops and direction duplicates, so a
        # graph that was not built by ``CSRGraph.from_edges`` is
        # canonicalized here before anything is packed or digested.
        lo = np.repeat(np.arange(self.num_nodes), graph.degrees())
        hi = graph.indices
        keep = lo < hi
        self._edges: set[tuple[int, int]] = {
            (int(a), int(b)) for a, b in zip(lo[keep], hi[keep])
        }
        self.version = 0
        self._csr_cache: tuple[int, CSRGraph] | None = None
        canonical = self.to_csr()
        # Seed the CSR and census through the exact serving pack path, so
        # state starts bit-identical by construction (no word is packed).
        adjacency = pack_batch_adjacency(self.to_batch())
        indptr, indices = adjacency.operand.csr.indptr, adjacency.operand.csr.indices
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        mask = adjacency.plan.masks[0]
        counts = np.zeros(mask.shape, np.int32)
        np.add.at(counts, (rows // TC_M, indices // TC_K), 1)
        #: Swapped whole by a mutation: the sorted keys ``u n + v`` of
        #: ``A + I``'s set positions, their CSR's ``indptr`` and ``indices``
        #: (``keys % n``), the key count of each 8x128 tile, and the census.
        self._state = (rows * n + indices, indptr, indices, counts, mask)
        for arr in self._state:
            arr.setflags(write=False)
        self.stats = MutationStats()
        self.stats.full_repacks += 1  # the seeding pack
        h = hashlib.blake2b(digest_size=16)
        h.update(struct.pack("<q", self.num_nodes))
        h.update(canonical.indptr.tobytes())
        h.update(b"|")
        h.update(canonical.indices.tobytes())
        self._digest = h.digest()

    @classmethod
    def from_csr(cls, graph: CSRGraph) -> "MutableGraph":
        """Wrap a static :class:`~repro.graph.csr.CSRGraph`."""
        return cls(graph)

    # ------------------------------------------------------------------ #
    # Identity and shape
    # ------------------------------------------------------------------ #
    @property
    def structure_digest(self) -> str:
        """Chained content digest of the current structure (hex).

        Equal digests imply identical mutation history from the same
        seed, hence identical structure; any effective mutation changes
        it.  This is the digest dynamic cache keys are derived from.
        """
        return self._digest.hex()

    @property
    def features(self) -> np.ndarray | None:
        """Node features carried over from the wrapped graph (immutable)."""
        return self._features

    @property
    def num_edges(self) -> int:
        """Undirected edge count (self-loops excluded, as in CSRGraph)."""
        return len(self._edges)

    @property
    def tile_grid(self) -> tuple[int, int]:
        """``(row_tiles, k_tiles)`` of the packed operand's census."""
        return self.census_mask().shape

    @property
    def nonzero_fraction(self) -> float:
        """Live census: fraction of 8x128 tiles with at least one bit."""
        return float(self.census_mask().mean())  # n >= 1: never an empty grid

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test on the canonical undirected edge set."""
        a, b = self._canonical(u, v)
        return a != b and (a, b) in self._edges

    def _canonical(self, u: int, v: int) -> tuple[int, int]:
        u, v = int(u), int(v)
        n = self.num_nodes
        if not (0 <= u < n and 0 <= v < n):
            raise ShapeError(f"edge ({u}, {v}) outside [0, {n})")
        return (u, v) if u <= v else (v, u)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def insert_edge(self, u: int, v: int) -> MutationDelta:
        """Insert one undirected edge (duplicate / self-loop is a no-op)."""
        return self.apply([("insert", u, v)])

    def delete_edge(self, u: int, v: int) -> MutationDelta:
        """Delete one undirected edge (absent / self-loop is a no-op)."""
        return self.apply([("delete", u, v)])

    def apply(
        self, mutations: Iterable[tuple[str, int, int]]
    ) -> MutationDelta:
        """Apply an ordered mutation stream as one delta batch.

        Each mutation is ``(op, u, v)`` with ``op`` in
        ``{"insert", "delete"}``.  Effectiveness is judged against the
        *evolving* edge set, so an insert-then-delete of the same edge
        within one batch round-trips exactly.  Self-loops are no-ops (the
        operand's diagonal is the fixed ``+ I`` term), as are duplicate
        inserts and deletes of absent edges — mirroring
        :meth:`CSRGraph.from_edges` canonicalization, which keeps the
        incremental state bit-comparable to a fresh pack.

        The whole batch is validated before any of it is committed: a bad
        mutation raises with the graph unchanged.  The net edits are spliced
        in (:meth:`_commit`); the digest advances once over the effective ones.
        """
        edits = []
        for op, u, v in mutations:
            a, b = self._canonical(u, v)
            if op not in ("insert", "delete"):
                raise ShapeError(f"unknown mutation op {op!r}")
            edits.append((op, a, b))
        applied: list[tuple[str, int, int]] = []
        net: dict[tuple[int, int], int] = {}  # +1 inserted, -1 deleted, 0 both
        for op, a, b in edits:
            edge, insert = (a, b), op == "insert"
            if a == b or (edge in self._edges) == insert:
                continue
            if insert:
                self._edges.add(edge)
                self.stats.edges_inserted += 1
            else:
                self._edges.remove(edge)
                self.stats.edges_deleted += 1
            net[edge] = net.get(edge, 0) + (1 if insert else -1)
            applied.append((op, a, b))
        dirty = frozenset().union(*(dirty_tiles_for(a, b) for _, a, b in applied))
        if applied:
            self._commit(net)
            h = hashlib.blake2b(digest_size=16)
            h.update(self._digest)
            for op, a, b in applied:
                h.update(struct.pack("<Bqq", 1 if op == "insert" else 0, a, b))
            self._digest = h.digest()
            self.version += 1
            self._csr_cache = None
        self.stats.tiles_recensused += len(dirty)
        self.stats.noop_mutations += len(edits) - len(applied)
        self.stats.batches += 1
        return MutationDelta(tuple(applied), len(edits) - len(applied), dirty)

    def _commit(self, net: dict[tuple[int, int], int]) -> None:
        """Swap in the state after ``net`` edits as new arrays: a published
        snapshot shares the old ones."""
        keys, indptr, indices, counts, _ = self._state
        n = self.num_nodes
        # (key, +1 insert / -1 delete), both directions, in key order.
        changes = sorted(
            (key, step) for (a, b), step in net.items() if step for key in (a * n + b, b * n + a)
        )
        # One splice of keys and indices (np.delete plus np.insert pass twice):
        # an insert goes before the key ``searchsorted`` finds; a delete is it.
        at = np.searchsorted(keys, [key for key, _ in changes]).tolist()
        parts, prev = [], 0
        for where, (key, step) in zip(at, changes):
            parts.append((keys[prev:where], indices[prev:where]))
            if step > 0:
                parts.append(([key], [key % n]))
            prev = where + (step < 0)
        parts.append((keys[prev:], indices[prev:]))
        columns = zip(*parts)  # the keys' parts, the indices' parts
        keys, indices = (np.concatenate(c, dtype=a.dtype) for c, a in zip(columns, (keys, indices)))
        # Every row offset past a changed key's row moves by its step.
        shifts = list(accumulate((step for _, step in changes), initial=0))
        bounds = [0] + [key // n + 1 for key, _ in changes] + [n + 1]
        indptr = indptr + np.repeat(np.array(shifts, indptr.dtype), np.diff(bounds))
        # The §4.3 re-ballot of the dirty tiles: each change moves its
        # tile's key count, and a tile is live iff its count is non-zero.
        counts = counts.copy()
        for key, step in changes:
            counts[key // n // TC_M, key % n // TC_K] += step
        state = (keys, indptr, indices, counts, counts != 0)
        for arr in state:  # read-only before a snapshot can share it
            arr.setflags(write=False)
        self._state = state

    # ------------------------------------------------------------------ #
    # Publication
    # ------------------------------------------------------------------ #
    def snapshot(self) -> PackedAdjacency:
        """A frozen :class:`~repro.gnn.quantized.PackedAdjacency` of the
        current structure, bit-identical to a fresh
        :func:`~repro.gnn.quantized.pack_batch_adjacency` of it: the live
        CSR of ones and census, shared, not copied — no CSR rebuild and no
        word packed.  Every array is read-only."""
        _, indptr, indices, _, mask = self._state  # sorted, distinct keys
        degrees = np.diff(indptr).astype(np.float64)[:, None]
        return PackedAdjacency.canonical(((indptr, indices),), degrees, mask)

    def census_mask(self) -> np.ndarray:
        """The live zero-tile census (read-only; a mutation replaces it)."""
        return self._state[4]

    def to_csr(self) -> CSRGraph:
        """Rebuild the current structure as a static CSR (cached per
        version) — the fresh-pack oracle's input, O(E)."""
        if self._csr_cache is not None and self._csr_cache[0] == self.version:
            return self._csr_cache[1]
        if self._edges:
            edges = np.array(sorted(self._edges), dtype=np.int64)
        else:
            edges = np.zeros((0, 2), dtype=np.int64)
        graph = CSRGraph.from_edges(
            self.num_nodes,
            edges,
            features=self._features,
            labels=self._labels,
            name=self._name,
            num_classes=self._num_classes,
        )
        self._csr_cache = (self.version, graph)
        return graph

    def to_batch(self) -> SubgraphBatch:
        """The current structure as a one-member batch (oracle input)."""
        return SubgraphBatch(members=(Subgraph(self.to_csr(), np.arange(self.num_nodes)),))

    def expected_words_shape(self) -> tuple[int, int, int]:
        """Shape of the packed plane array (for tests and docs)."""
        n = self.num_nodes
        return (1, pad_to(max(n, 1), TC_M), pad_to(max(n, 1), TC_K) // WORD_BITS)

"""Incrementally mutable adjacency: delta re-packing + delta tile census.

The paper's 8x128 tile structure (§4.3) localizes edits: flipping one
adjacency bit touches exactly one packed ``uint32`` word per direction and
dirties at most the two tiles containing the ``(u, v)`` / ``(v, u)``
positions.  :class:`MutableGraph` exploits that locality — it owns a live
copy of the packed 1-bit aggregation operand ``A + I`` (the exact operand
:func:`repro.gnn.quantized.pack_batch_adjacency` builds) and applies edge
insert/delete streams as in-place word updates, re-balloting *only* the
dirty tiles via :func:`repro.core.bitpack.recensus_tiles`.  A full
re-pack is O(E + n^2/32) after an O(E) CSR rebuild; a mutation batch is
O(edits).

Identity is a **chained structure digest**: every effective mutation
extends ``digest_{t+1} = H(digest_t || op || u || v)``, so the digest
changes whenever — and only when — the structure changes, in O(edits)
instead of O(E).  Cache keys derived from the digest therefore miss the
moment the structure moves, which is what makes a stale plan or operand
unreachable (see :mod:`repro.dynamic.session`).

Published artifacts are immutable: :meth:`MutableGraph.snapshot` hands out
*frozen copies* of the packed words, census and degrees, never views of
the live buffers — a reader replaying a snapshot can never observe a
concurrent mutation mid-flight.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..core.bitpack import (
    TC_K,
    TC_M,
    Operand,
    PackedBits,
    bit_address,
    pad_to,
    recensus_tiles,
)
from ..core.bitops import WORD_BITS
from ..errors import ShapeError
from ..gnn.quantized import PackedAdjacency, pack_batch_adjacency
from ..graph.batching import Subgraph, SubgraphBatch
from ..graph.csr import CSRGraph
from ..tc.kernel import TileSkipPlan
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
    """A mutable wrapper over the packed aggregation operand ``A + I``.

    Construct with :meth:`from_csr`; mutate with :meth:`insert_edge` /
    :meth:`delete_edge` / :meth:`apply`; publish with :meth:`snapshot`.
    The live packed planes, census and degrees are private — every
    published artifact is a frozen copy, and the class-level invariant is
    that the incremental state is *bit-for-bit* equal to a fresh
    :func:`~repro.gnn.quantized.pack_batch_adjacency` of the mutated edge
    set (the differential harness in ``tests/dynamic`` pins this after
    every mutation).
    """

    def __init__(self, graph: CSRGraph) -> None:
        """Seed the packed state from ``graph`` (see :meth:`from_csr`)."""
        self._features = graph.features
        self._labels = graph.labels
        self._name = graph.name
        self._num_classes = graph.num_classes
        self.num_nodes = graph.num_nodes
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
        # Seed packed planes / census / degrees through the exact serving
        # pack path, so state starts bit-identical by construction.
        adjacency = pack_batch_adjacency(self.to_batch())
        self._words = np.array(adjacency.packed.words)  # writable copy
        self._mask = np.array(adjacency.plan.masks[0])
        self._degrees = np.array(adjacency.degrees)
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
        return self._mask.shape

    @property
    def nonzero_fraction(self) -> float:
        """Live census: fraction of 8x128 tiles with at least one bit."""
        return float(self._mask.mean()) if self._mask.size else 0.0

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

        Bit-plane words are updated in place; only the dirty tiles are
        re-balloted.  The structure digest advances once per batch over
        the effective mutations.
        """
        applied: list[tuple[str, int, int]] = []
        dirty: set[tuple[int, int]] = set()
        noops = 0
        words = self._words[0]
        degrees = self._degrees
        for op, u, v in mutations:
            a, b = self._canonical(u, v)
            if op not in ("insert", "delete"):
                raise ShapeError(f"unknown mutation op {op!r}")
            if a == b:
                noops += 1
                continue
            edge = (a, b)
            if op == "insert":
                if edge in self._edges:
                    noops += 1
                    continue
                self._edges.add(edge)
                set_bit = True
                degrees[a, 0] += 1.0
                degrees[b, 0] += 1.0
                self.stats.edges_inserted += 1
            else:
                if edge not in self._edges:
                    noops += 1
                    continue
                self._edges.remove(edge)
                set_bit = False
                degrees[a, 0] -= 1.0
                degrees[b, 0] -= 1.0
                self.stats.edges_deleted += 1
            for row, col in ((a, b), (b, a)):
                word, bit = bit_address(col)
                if set_bit:
                    words[row, word] |= bit
                else:
                    words[row, word] &= ~bit
            dirty |= dirty_tiles_for(a, b)
            applied.append((op, a, b))
        if applied:
            recensused = recensus_tiles(words, self._mask, dirty)
            self.stats.tiles_recensused += recensused
            h = hashlib.blake2b(digest_size=16)
            h.update(self._digest)
            for op, a, b in applied:
                h.update(struct.pack("<Bqq", 1 if op == "insert" else 0, a, b))
            self._digest = h.digest()
            self.version += 1
            self._csr_cache = None
        self.stats.batches += 1
        self.stats.noop_mutations += noops
        return MutationDelta(
            applied=tuple(applied),
            noops=noops,
            dirty_tiles=frozenset(dirty if applied else ()),
        )

    # ------------------------------------------------------------------ #
    # Publication
    # ------------------------------------------------------------------ #
    def snapshot(self) -> PackedAdjacency:
        """A frozen :class:`~repro.gnn.quantized.PackedAdjacency` of the
        current structure.

        Every array is a read-only *copy* of the live state: later
        mutations never reach a published snapshot, and an attempt to
        write through one raises.  This is the incremental replacement
        for :func:`~repro.gnn.quantized.pack_batch_adjacency` — one copy
        instead of a CSR rebuild plus re-pack — and bit-identical to it.
        """
        words = self._words.copy()
        mask = self._mask.copy()
        degrees = self._degrees.copy()
        for arr in (words, mask, degrees):
            arr.setflags(write=False)
        packed = PackedBits(
            words=words,
            bits=1,
            layout="col",
            logical_vectors=self.num_nodes,
            logical_k=self.num_nodes,
            pad_vectors=TC_M,
        )
        return PackedAdjacency(
            operand=Operand(packed=packed), plan=TileSkipPlan(masks=(mask,)), degrees=degrees
        )

    def census_mask(self) -> np.ndarray:
        """A read-only copy of the live zero-tile census."""
        mask = self._mask.copy()
        mask.setflags(write=False)
        return mask

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
        return SubgraphBatch(
            members=(
                Subgraph(
                    graph=self.to_csr(),
                    original_nodes=np.arange(self.num_nodes),
                ),
            )
        )

    def expected_words_shape(self) -> tuple[int, int, int]:
        """Shape of the packed plane array (for tests and docs)."""
        n = self.num_nodes
        return (1, pad_to(max(n, 1), TC_M), pad_to(max(n, 1), TC_K) // WORD_BITS)

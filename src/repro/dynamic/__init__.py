"""Dynamic graphs as a first-class serving scenario.

The static pipeline packs an adjacency once, compiles a plan against its
zero-tile census, and replays both forever.  This package makes the
structure *mutable* without giving up any of that machinery:

* :class:`~repro.dynamic.mutable.MutableGraph` — in-place delta updates
  of the packed bit-planes and the §4.3 tile census (only dirty tiles
  re-balloted), identity tracked by a chained structure digest;
* :class:`~repro.dynamic.session.DynamicSession` — serving integration:
  digest-keyed artifacts, every plan bound from the engine's template for
  the graph's node count, eager invalidation of
  superseded cache entries (plans, adjacencies), a
  serve-time stale guard, and mutation counters surfaced to the perf PAG.

Everything is pinned bit-for-bit against the fresh pack-from-scratch
oracle by the mutation differential harness in ``tests/dynamic``.
"""

from .mutable import MutableGraph, MutationDelta, MutationStats, dirty_tiles_for
from .session import DynamicSession, DynamicStats

__all__ = [
    "DynamicSession",
    "DynamicStats",
    "MutableGraph",
    "MutationDelta",
    "MutationStats",
    "dirty_tiles_for",
]

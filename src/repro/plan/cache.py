"""Content-keyed caching of plan artifacts.

Home of the generic cache primitives (:class:`CacheStats`,
:class:`LRUCache`) and of :class:`PlanCache`, the *one* cache a serving
session holds.

Before this layer existed, serving juggled three separate LRUs — packed
weights, packed adjacencies/tile masks, and (implicitly) per-operand
ballot reuse inside the kernel.  A :class:`PlanCache` unifies them: every
plan artifact (packed weight, packed adjacency + census, compiled
:class:`~repro.plan.ir.ExecutionPlan`, the measured
:class:`~repro.plan.autotune.DispatchTable`, one per session) is
stored under a content-derived key whose first element names its *kind*.  Kinds occupy separate LRU
segments with independent capacities — so a burst of never-repeating
batches cannot evict the small, hot packed weights — but share one lookup
API, one byte accounting and one aggregated telemetry view.

Compiled artifacts (the ``plan`` and ``template`` kinds) carry
**digest verification**: each insert records the artifact's content
digest (:func:`artifact_digest`) and each hit compares the record with the
digest the artifact itself carries, sealed when it was first taken
(:attr:`ExecutionPlan.digest <repro.plan.ir.ExecutionPlan.digest>`) —
two strings, nothing re-hashed: the artifacts are immutable, so what a
hit can still catch is a rotted record or an entry that no longer holds
the artifact it was recorded for.  A
mismatch discards the poisoned entry (counted in ``CacheStats.poisoned``),
the lookup reports a miss, and the cache-through caller recompiles —
corruption costs one rebuild, never a wrong result replayed forever.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Mapping, TypeVar

from ..errors import ConfigError
from ..telemetry import Counters, emit_event

__all__ = [
    "CacheStats",
    "LRUCache",
    "PlanCache",
    "PlanKey",
    "artifact_digest",
    "artifact_nbytes",
]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: A plan-cache key: a tuple whose first element names the artifact kind,
#: e.g. ``("weight", layer, bits, engine)``, ``("adjacency", *digests)``,
#: ``("plan", *digests)``, ``("table", host, registry)``.
PlanKey = tuple


@dataclass
class CacheStats(Counters):
    """Running hit/miss/eviction counters of one cache."""

    DERIVED = ("lookups", "hit_rate")

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    insertions: int = 0
    #: Entries dropped by policy (:meth:`LRUCache.discard` — e.g. the
    #: stale-plan invalidation path), as opposed to capacity evictions.
    invalidations: int = 0
    #: Entries discarded because their recorded digest no longer matched
    #: the stored value on a hit (verified segments only).  Each poisoned
    #: discard also counts as a miss: the caller rebuilds the artifact.
    poisoned: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


class LRUCache(Generic[K, V]):
    """A capacity-bounded, thread-safe least-recently-used map with stats.

    ``capacity`` counts entries.  ``get`` and ``get_or_build`` refresh
    recency; insertion beyond capacity evicts the least recently used
    entry.  Optionally tracks the byte footprint of held values via
    ``size_of`` (e.g. ``PackedLayerWeight.nbytes``).

    One re-entrant lock serializes every counted read and every write
    (``peek`` and presence checks are single dict reads), so a segment
    can be mounted into several sessions at once (a pool's ``weight``
    and ``table`` segments).
    ``get_or_build`` holds it across the build: concurrent misses on one
    key build the value exactly once — for packed weights, one pack
    pool-wide.

    With ``digest_of`` set, the cache is *verified*: every ``put``
    records ``digest_of(value)`` and every hit compares it with that of
    the held value.  A mismatch discards the poisoned entry and
    reports a miss so cache-through callers rebuild.  ``fault_plan``
    optionally threads a :class:`~repro.faultinject.FaultPlan` whose
    ``cache`` site corrupts the recorded digest on a probed hit —
    exercising the real discard-and-recompile path deterministically.
    """

    def __init__(
        self,
        capacity: int,
        *,
        size_of: Callable[[V], int] | None = None,
        digest_of: Callable[[V], str] | None = None,
        fault_plan=None,
    ) -> None:
        if capacity < 1:
            raise ConfigError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._size_of = size_of
        self._digest_of = digest_of
        self._fault_plan = fault_plan
        self._lock = threading.RLock()
        self._bytes = 0
        self._entries: OrderedDict[K, V] = OrderedDict()
        #: Recorded content digests, parallel to ``_entries`` (verified
        #: caches only).
        self._digests: dict[K, str] = {}

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        """Presence check — does *not* count as a lookup or refresh LRU."""
        return key in self._entries

    def keys(self) -> list[K]:
        """Keys from least to most recently used."""
        with self._lock:
            return list(self._entries)

    @property
    def nbytes(self) -> int:
        """Byte footprint of held values (0 unless ``size_of`` was given)."""
        return self._bytes

    # ------------------------------------------------------------------ #
    def get(self, key: K) -> V | None:
        """Return the cached value and mark it most recently used.

        On a verified cache a hit whose recorded digest no longer
        matches the value's own is *poisoned*: the entry is discarded,
        ``stats.poisoned`` is bumped, and the lookup reports a miss so
        the caller rebuilds the artifact.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.stats.misses += 1
                return None
            if self._digest_of is not None:
                recorded = self._digests.get(key)
                if (
                    recorded is not None
                    and self._fault_plan is not None
                    and self._fault_plan.probe("cache", detail=repr(key))
                ):
                    recorded = "!injected-corruption"  # simulated artifact rot
                if recorded is not None and recorded != self._digest_of(value):
                    self._drop_poisoned(key, value)
                    return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def _drop_poisoned(self, key: K, value: V) -> None:
        """Remove a digest-mismatched entry; counts poisoned + miss."""
        self._entries.pop(key, None)
        self._digests.pop(key, None)
        self._bytes -= self._size_of(value) if self._size_of else 0
        self.stats.poisoned += 1
        self.stats.misses += 1
        emit_event(__name__, "poisoned_entry_discarded", key=artifact_digest(key))

    def corrupt(self, key: K) -> bool:
        """Flip the recorded digest of one entry (tests / chaos drills).

        Simulates artifact rot on a verified cache: the next ``get`` of
        ``key`` will detect the mismatch, discard the entry and rebuild.
        Returns whether the key was held.  Raises
        :class:`~repro.errors.ConfigError` on an unverified cache.
        """
        if self._digest_of is None:
            raise ConfigError("corrupt() needs a cache built with digest_of")
        with self._lock:
            if key not in self._digests:
                return False
            self._digests[key] = "corrupt:" + self._digests[key]
            return True

    def peek(self, key: K) -> V | None:
        """Return the cached value *without* counting a lookup or
        refreshing recency — the read an inspection pass (e.g. the
        stale-plan scan) uses so analysis never perturbs the telemetry
        or eviction order it is analyzing."""
        return self._entries.get(key)

    def discard(self, key: K) -> bool:
        """Drop one entry if present; returns whether it was held.

        Not an eviction (the entry is removed by policy, not capacity
        pressure), so it counts against ``stats.invalidations`` rather
        than ``stats.evictions``.
        """
        with self._lock:
            value = self._entries.pop(key, None)
            if value is None:
                return False
            self._digests.pop(key, None)
            self._bytes -= self._size_of(value) if self._size_of else 0
            self.stats.invalidations += 1
            return True

    def put(self, key: K, value: V) -> None:
        """Insert (or replace) a value, evicting LRU entries over capacity."""
        with self._lock:
            if key in self._entries:
                old = self._entries.pop(key)
                self._bytes -= self._size_of(old) if self._size_of else 0
            self._entries[key] = value
            self._bytes += self._size_of(value) if self._size_of else 0
            if self._digest_of is not None:
                self._digests[key] = self._digest_of(value)
            self.stats.insertions += 1
            while len(self._entries) > self.capacity:
                evicted_key, evicted = self._entries.popitem(last=False)
                self._digests.pop(evicted_key, None)
                self._bytes -= self._size_of(evicted) if self._size_of else 0
                self.stats.evictions += 1

    def get_or_build(self, key: K, builder: Callable[[], V]) -> V:
        """Cache-through read: build, insert and return on a miss (the
        build runs under the lock, so a key is built once)."""
        with self._lock:
            value = self.get(key)
            if value is None:
                value = builder()
                self.put(key, value)
            return value

    def clear(self) -> None:
        """Drop all entries (stats are preserved — they describe history)."""
        with self._lock:
            self._entries.clear()
            self._digests.clear()
            self._bytes = 0


def artifact_nbytes(value: object) -> int:
    """Byte footprint a :class:`PlanCache` budgets for an artifact.

    Packed operands expose ``nbytes``; pure-metadata artifacts (compiled
    plans are a handful of frozen dataclasses) count as zero.
    """
    return int(getattr(value, "nbytes", 0))


def artifact_digest(value: object) -> str:
    """The content digest recorded (and compared) by verified segments.

    Artifacts that carry their own sealed content digest (a compiled
    plan's :attr:`~repro.plan.ir.ExecutionPlan.digest`) answer with it —
    a hit re-hashes nothing; anything else (cache keys in event lines, plain
    values) digests its ``repr``.
    """
    own = getattr(value, "digest", None)
    if isinstance(own, str) and own:
        return own
    return hashlib.blake2b(repr(value).encode(), digest_size=16).hexdigest()


class PlanCache:
    """One content-keyed LRU for every plan artifact kind; see module doc.

    ``capacities`` maps kind names to per-segment entry capacities::

        cache = PlanCache({"weight": 32, "adjacency": 16, "plan": 16})
        w = cache.get_or_build(("weight", 0, 8, "cost"), build_weight)
        cache.segment("weight").stats.hits   # per-kind telemetry
        cache.total_stats().hits             # shared telemetry

    ``shared`` mounts pre-built segments (typically ones owned by a
    :class:`~repro.serving.pool.ServingPool`) under their kind names, so
    several caches can read and populate one segment — the pool's
    shard-local caches all alias one packed-weight segment while keeping
    private adjacency/plan segments.  A shared kind overrides any
    capacity given for the same name.
    """

    #: Every artifact kind the system produces.  Segment names are
    #: validated against this set at construction: a typo'd kind used to
    #: silently create an empty LRU that nothing would ever read, hiding
    #: the misconfiguration until cache hit rates cratered.
    KNOWN_KINDS = frozenset({"weight", "adjacency", "plan", "template", "table"})

    #: Kinds holding *compiled* artifacts, whose segments verify a
    #: recorded :func:`artifact_digest` on every hit and discard poisoned
    #: entries (counted in ``CacheStats.poisoned``) so corruption costs a
    #: recompile, never a wrong replay.
    VERIFIED_KINDS = frozenset({"plan", "template"})

    def __init__(
        self,
        capacities: Mapping[str, int],
        *,
        size_of: Callable[[object], int] = artifact_nbytes,
        shared: Mapping[str, LRUCache] | None = None,
        fault_plan=None,
    ) -> None:
        """Build one LRU segment per ``capacities`` entry, then mount any
        ``shared`` pre-built segments over their kind names.
        ``fault_plan`` threads a :class:`~repro.faultinject.FaultPlan`
        into the verified segments' ``cache`` injection site."""
        if not capacities and not shared:
            raise ConfigError("a plan cache needs at least one artifact kind")
        for kind in (*capacities, *(shared or ())):
            if str(kind) not in self.KNOWN_KINDS:
                raise ConfigError(
                    f"unknown artifact kind {kind!r}; known kinds: "
                    f"{tuple(sorted(self.KNOWN_KINDS))}"
                )
        self._segments: dict[str, LRUCache] = {
            str(kind): LRUCache(
                capacity,
                size_of=size_of,
                digest_of=(
                    artifact_digest
                    if str(kind) in self.VERIFIED_KINDS
                    else None
                ),
                fault_plan=(
                    fault_plan if str(kind) in self.VERIFIED_KINDS else None
                ),
            )
            for kind, capacity in capacities.items()
        }
        # Explicit None check: an *empty* shared mapping is falsy, and a
        # caller mounting an (initially empty) dict of segments it intends
        # to alias across sessions must not be handed private ones —
        # the same bug class as the shared-empty-calibration fix.
        if shared is None:
            shared = {}
        for kind, segment in shared.items():
            if not isinstance(segment, LRUCache):
                raise ConfigError(
                    f"shared segment {kind!r} must be an LRUCache, "
                    f"got {type(segment).__name__}"
                )
            self._segments[str(kind)] = segment

    # ------------------------------------------------------------------ #
    def kinds(self) -> tuple[str, ...]:
        """The artifact kinds this cache segments by."""
        return tuple(self._segments)

    def segment(self, kind: str) -> LRUCache:
        """The LRU segment of one artifact kind."""
        try:
            return self._segments[kind]
        except KeyError:
            raise ConfigError(
                f"unknown artifact kind {kind!r}; cache holds {self.kinds()}"
            ) from None

    def _segment_for(self, key: PlanKey) -> LRUCache:
        if not isinstance(key, tuple) or not key:
            raise ConfigError(
                f"plan cache keys are (kind, *content) tuples, got {key!r}"
            )
        return self.segment(key[0])

    # ------------------------------------------------------------------ #
    def get(self, key: PlanKey):
        """Lookup by content key (counts a hit/miss on the key's segment)."""
        return self._segment_for(key).get(key)

    def put(self, key: PlanKey, value: object) -> None:
        """Insert a value into the key's kind segment (LRU eviction)."""
        self._segment_for(key).put(key, value)

    def get_or_build(self, key: PlanKey, builder: Callable[[], object]):
        """Cache-through read on the key's kind segment."""
        return self._segment_for(key).get_or_build(key, builder)

    def discard(self, key: PlanKey) -> bool:
        """Invalidate one entry by content key.

        Returns ``True`` if the key was resident (the segment counts it in
        ``CacheStats.invalidations``).  The dynamic-graph path uses this to
        retire artifacts keyed by a superseded structure digest the moment
        a mutation changes the digest.
        """
        return self._segment_for(key).discard(key)

    def __contains__(self, key: object) -> bool:
        return isinstance(key, tuple) and bool(key) and (
            key[0] in self._segments and key in self._segments[key[0]]
        )

    def __len__(self) -> int:
        return sum(len(seg) for seg in self._segments.values())

    @property
    def nbytes(self) -> int:
        """Byte footprint across every segment."""
        return sum(seg.nbytes for seg in self._segments.values())

    # ------------------------------------------------------------------ #
    def telemetry(self) -> dict[str, CacheStats]:
        """Per-kind stats snapshots (independent copies)."""
        return {kind: seg.stats.snapshot() for kind, seg in self._segments.items()}

    def total_stats(self) -> CacheStats:
        """Aggregated stats across every kind (an independent snapshot)."""
        total = CacheStats()
        for seg in self._segments.values():
            total.merge(seg.stats)
        return total

    def clear(self) -> None:
        """Drop all entries in every segment (stats are preserved)."""
        for seg in self._segments.values():
            seg.clear()

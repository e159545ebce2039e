"""Measured autotuned dispatch: shape-bucketed backend timing tables.

Until this module existed every :class:`~repro.plan.ir.GemmStep` was
priced purely analytically from the frozen :class:`~repro.plan.rates.
HostRates` constants — the dispatcher never once *timed* the backends it
chooses between, even though the paper's central claim is that the right
kernel depends on the workload.  Here the guess becomes a measurement:

* a :class:`ShapeBucket` quantizes one product's workload — ``m``/``n``
  rounded up to the 8-row tile multiple, ``k`` to the 128-bit tile
  multiple (shapes that differ only inside one padding tile execute the
  same padded kernel, so they share a bucket), crossed with both
  bitwidths and a geometric *band* of the observed non-zero tile
  fraction;
* a :class:`DispatchTable` maps buckets to per-backend timing samples.
  Samples arrive from two directions: the offline :func:`autotune` sweep
  (benchmark every eligible registered backend on synthesized operands of
  each bucket's shape/sparsity) and online serving feedback (every warm
  replay of a compiled plan is a free sample — the serving engine feeds
  a round's measured per-GEMM timings back through
  :meth:`DispatchTable.record_all`);
* at pricing time :meth:`Backend.price <repro.plan.registry.Backend.price>`
  consults the table *before* falling back to the analytic
  :class:`HostRates` model: a bucket answers only when it is confident —
  at least ``min_samples`` samples, not stale — and vetoed backends (the
  blas memory budget) stay vetoed regardless of how fast they measured;
* the table serializes to JSON (:meth:`DispatchTable.save` /
  :meth:`DispatchTable.load`) keyed by a host fingerprint and a registry
  digest, so a restarted service dispatches from measurements made by the
  previous session — from request one, with zero warm-up timing runs.  A
  table recorded on a different host or against a different backend set
  degrades to the analytic model rather than mis-pricing — loudly: the
  degrade emits a ``RuntimeWarning`` and is counted on the returned
  table (``degraded_loads``), so a fleet that keeps shipping stale
  tables notices instead of silently re-tuning from scratch forever.
"""

from __future__ import annotations

import json
import math
import platform
import statistics
import threading
import warnings
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from ..core.bitpack import TC_K, TC_M, pad_to, tile_nonzero_mask
from ..errors import ConfigError
from ..telemetry import emit_event
from .ir import GemmSpec
from .rates import DEFAULT_HOST_RATES, HostRates
from .registry import BackendPrice, BackendRegistry, PriceContext, default_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .registry import Backend

__all__ = [
    "DispatchTable",
    "NO_CENSUS_BAND",
    "MAX_FRACTION_BAND",
    "ShapeBucket",
    "autotune",
    "bucket_for",
    "bucket_in",
    "fraction_band",
    "host_fingerprint",
    "merge_saved_dispatch_tables",
    "registry_digest",
    "synthesize_operands",
]

#: Band value of a product with no observed tile census (dense by default).
NO_CENSUS_BAND = -1
#: Fractions below ``2**-MAX_FRACTION_BAND`` all share the sparsest band.
MAX_FRACTION_BAND = 6

#: On-disk schema version of :meth:`DispatchTable.save`.
TABLE_FORMAT_VERSION = 1

#: Timing samples retained per (bucket, backend) — enough for a stable
#: median while letting online feedback age out stale measurements.
DEFAULT_MAX_SAMPLES = 32


def fraction_band(fraction: float | None) -> int:
    """Geometric band of an observed non-zero tile fraction.

    Band ``b`` covers the half-open interval ``[2**-(b+1), 2**-b)``
    (band 0 additionally includes 1.0): fractions inside one
    factor-of-two interval share a bucket, fractions in different
    intervals never do — so a dense census and a block-diagonal one can
    never pool samples, while batches of similar sparsity usually do
    (boundaries are sharp: fractions just either side of a power of two,
    e.g. 1/16 vs 1/17 members, land in adjacent bands).  ``None`` (no
    census) maps to :data:`NO_CENSUS_BAND`; everything at or below
    ``2**-MAX_FRACTION_BAND`` collapses into the sparsest band.
    """
    if fraction is None:
        return NO_CENSUS_BAND
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"tile fraction must be in [0, 1], got {fraction}")
    if fraction <= 2.0**-MAX_FRACTION_BAND:
        return MAX_FRACTION_BAND
    return min(MAX_FRACTION_BAND, max(0, int(math.ceil(-math.log2(fraction))) - 1))


@dataclass(frozen=True)
class ShapeBucket:
    """One autotuning cell: tile-quantized shape x bitwidths x sparsity band.

    ``m``/``n`` are rounded up to the 8-row tile multiple and ``k`` to the
    128-bit tile multiple — two shapes that pad to the same tile grid run
    the identical padded kernel, so one measurement prices both.
    """

    m: int
    k: int
    n: int
    bits_a: int
    bits_b: int
    band: int = NO_CENSUS_BAND

    def key(self) -> str:
        """Stable string form used as the JSON dictionary key."""
        return f"{self.m}x{self.k}x{self.n}:{self.bits_a}b{self.bits_b}:f{self.band}"

    @classmethod
    def from_key(cls, key: str) -> "ShapeBucket":
        """Parse a :meth:`key` string back into a bucket (load path)."""
        try:
            shape, bits, band = key.split(":")
            m, k, n = (int(v) for v in shape.split("x"))
            bits_a, bits_b = (int(v) for v in bits.split("b"))
            return cls(m=m, k=k, n=n, bits_a=bits_a, bits_b=bits_b, band=int(band[1:]))
        except (ValueError, IndexError):
            raise ConfigError(f"malformed dispatch-table bucket key {key!r}") from None


def bucket_for(spec: GemmSpec, tile_fraction: float | None = None) -> ShapeBucket:
    """The bucket a product's measurements and prices live under."""
    return ShapeBucket(
        m=pad_to(max(spec.m, 1), TC_M),
        k=pad_to(max(spec.k, 1), TC_K),
        n=pad_to(max(spec.n, 1), TC_M),
        bits_a=spec.bits_a,
        bits_b=spec.bits_b,
        band=fraction_band(tile_fraction),
    )


def bucket_in(
    memo: dict, spec: GemmSpec, tile_fraction: float | None = None
) -> ShapeBucket:
    """:func:`bucket_for`, kept in ``memo`` — the ``derived`` dict of the
    plan step or price context that owns ``spec`` — while the census
    fraction is the one it was last asked with: a replay, and every
    backend after the first to price a product, looks it up."""
    held = memo.get("bucket")
    if held is None or held[0] != tile_fraction:
        held = memo["bucket"] = (tile_fraction, bucket_for(spec, tile_fraction))
    return held[1]


def _blas_name() -> str:
    """The BLAS implementation this NumPy build links (``unknown`` when
    the build metadata is unavailable)."""
    try:
        config = np.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"]["name"]) or "unknown"
    except Exception:  # pragma: no cover - metadata shape varies by build
        return "unknown"


def host_fingerprint() -> str:
    """Coarse identity of the measuring host.

    Timings are throughputs of *this* interpreter on *this* machine; a
    table is only trustworthy where it was recorded.  The fingerprint is
    deliberately coarse (architecture, OS, Python x.y, NumPy x.y and the
    BLAS its build links) so a patch-level interpreter upgrade does not
    discard a table, while a different machine — or a NumPy built against
    a different BLAS, whose ``blas`` backend throughput can differ
    severalfold — does.
    """
    py = ".".join(platform.python_version_tuple()[:2])
    np_xy = ".".join(np.__version__.split(".")[:2])
    return (
        f"{platform.machine()}/{platform.system()}/py{py}/numpy{np_xy}"
        f"/{_blas_name()}"
    )


def registry_digest(registry: BackendRegistry | None = None) -> str:
    """Identity of the backend set a table's measurements describe.

    Registration order matters (price ties resolve to the first name), so
    the digest is the ordered name tuple, not a set.
    """
    # None check, not truthiness: an empty registry is falsy, and
    # digesting the default set instead would let a table recorded
    # against *no* backends validate against the built-in ones.
    if registry is None:
        registry = default_registry()
    return ",".join(registry.names())


class BucketTiming:
    """Timing samples of one backend in one bucket (a bounded ring)."""

    __slots__ = ("samples", "last_seen")

    def __init__(
        self,
        samples: Iterable[float] = (),
        *,
        last_seen: int = 0,
        max_samples: int = DEFAULT_MAX_SAMPLES,
    ) -> None:
        self.samples: deque[float] = deque(samples, maxlen=max_samples)
        #: Table generation at the most recent sample (staleness anchor).
        self.last_seen = last_seen

    @property
    def count(self) -> int:
        """Samples currently held in the ring."""
        return len(self.samples)

    @property
    def median_s(self) -> float:
        """Median of the held samples, in seconds."""
        return statistics.median(self.samples)


class DispatchTable:
    """Shape-bucketed measured backend timings; see module docstring.

    Typical use::

        table = DispatchTable(min_samples=2)
        table.record_spec(spec, "blas", measured_seconds)
        table.save("table.json")                  # host/registry-keyed
        warm = DispatchTable.load("table.json")   # next session, same host

    Parameters
    ----------
    host, registry_id:
        Identity the table's measurements are valid for (defaults: this
        host, the default registry's digest).  :meth:`load` refuses — by
        degrading to an empty table — to resurrect measurements recorded
        under a different identity.
    min_samples:
        Per-bucket confidence floor: a (bucket, backend) cell prices from
        measurement only once it holds at least this many samples.
    stale_after:
        Optional staleness horizon, counted in recorded samples: a cell
        whose newest sample is more than this many recordings old stops
        answering (the analytic model takes over until fresh samples
        arrive).  ``None`` disables aging.
    """

    def __init__(
        self,
        *,
        host: str | None = None,
        registry_id: str | None = None,
        min_samples: int = 1,
        stale_after: int | None = None,
        max_samples: int = DEFAULT_MAX_SAMPLES,
    ) -> None:
        if min_samples < 1:
            raise ConfigError(f"min_samples must be >= 1, got {min_samples}")
        if stale_after is not None and stale_after < 1:
            raise ConfigError(f"stale_after must be >= 1, got {stale_after}")
        if max_samples < 1:
            raise ConfigError(f"max_samples must be >= 1, got {max_samples}")
        self.host = host or host_fingerprint()
        self.registry_id = registry_id if registry_id is not None else registry_digest()
        self.min_samples = min_samples
        self.stale_after = stale_after
        self.max_samples = max_samples
        #: Monotone recording counter — the staleness clock.
        self.generation = 0
        #: Why :meth:`load` returned an empty table, when it did.
        self.mismatch: str | None = None
        #: 1 when this table is the empty product of a degraded
        #: :meth:`load` (telemetry surfaces the sum across loads).
        self.degraded_loads = 0
        self._entries: dict[ShapeBucket, dict[str, BucketTiming]] = {}
        # Serializes recording/merging/serialization: every shard of a
        # thread pool records into (and prices from) this one object.
        # Reentrant: merge() records through the same lock.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record(self, bucket: ShapeBucket, backend: str, seconds: float) -> None:
        """Add one timing sample for ``backend`` in ``bucket``."""
        self.record_all([(bucket, backend, seconds)])

    def record_all(
        self, samples: Sequence[tuple[ShapeBucket, str, float]]
    ) -> None:
        """Add ``(bucket, backend, seconds)`` samples in order — a round's
        worth under one lock acquisition."""
        if any(seconds < 0 for _, _, seconds in samples):
            raise ConfigError(f"timing samples must be >= 0 s, got {samples}")
        with self._lock:
            for bucket, backend, seconds in samples:
                self.generation += 1
                cell = self._entries.setdefault(bucket, {}).get(backend)
                if cell is None:
                    cell = BucketTiming(max_samples=self.max_samples)
                    self._entries[bucket][backend] = cell
                cell.samples.append(float(seconds))
                cell.last_seen = self.generation

    def record_spec(
        self,
        spec: GemmSpec,
        backend: str,
        seconds: float,
        *,
        tile_fraction: float | None = None,
    ) -> ShapeBucket:
        """Record a sample for a concrete product; returns its bucket."""
        bucket = bucket_for(spec, tile_fraction)
        self.record(bucket, backend, seconds)
        return bucket

    # ------------------------------------------------------------------ #
    # Consultation
    # ------------------------------------------------------------------ #
    def _confident(self, cell: BucketTiming) -> bool:
        if cell.count < self.min_samples:
            return False
        if (
            self.stale_after is not None
            and self.generation - cell.last_seen > self.stale_after
        ):
            return False
        return True

    def median(self, bucket: ShapeBucket, backend: str) -> float | None:
        """Measured median seconds, or ``None`` below the confidence bar."""
        with self._lock:
            cell = self._entries.get(bucket, {}).get(backend)
            if cell is None or not self._confident(cell):
                return None
            return cell.median_s

    def tuned_price(self, backend: str, ctx: PriceContext) -> BackendPrice | None:
        """The measured price a registry pricer consults before its model.

        ``None`` means "no confident measurement — fall back to the
        analytic model"; a non-``None`` answer carries
        ``source="tuned"`` so dispatch decisions are attributable.
        """
        bucket = bucket_in(ctx.derived, ctx.spec, ctx.tile_fraction)
        seconds = self.median(bucket, backend)
        if seconds is None:
            return None
        return BackendPrice(seconds=seconds, source="tuned")

    #: ``with_confidence`` sentinel: leave that policy field unchanged.
    KEEP = object()

    def with_confidence(
        self,
        *,
        min_samples: int | None = None,
        stale_after: object = KEEP,
    ) -> "DispatchTable":
        """Override the confidence policy in place; returns ``self``.

        Confidence is a property of the *consulting* session, not of the
        recorded samples — a session loading a persisted table applies its
        own ``min_samples``/``stale_after`` on top of whatever policy the
        recording session saved.  ``stale_after=None`` *disables* aging
        (so a session can trust every persisted sample regardless of the
        recording session's horizon); omit the argument to keep the
        loaded policy.
        """
        if min_samples is not None:
            if min_samples < 1:
                raise ConfigError(f"min_samples must be >= 1, got {min_samples}")
            self.min_samples = min_samples
        if stale_after is not DispatchTable.KEEP:
            if stale_after is not None and (
                not isinstance(stale_after, int) or stale_after < 1
            ):
                raise ConfigError(f"stale_after must be >= 1, got {stale_after}")
            self.stale_after = stale_after
        return self

    def buckets(self) -> tuple[ShapeBucket, ...]:
        """Every bucket holding at least one sample."""
        return tuple(self._entries)

    def backends(self, bucket: ShapeBucket) -> tuple[str, ...]:
        """Backends with samples in one bucket."""
        return tuple(self._entries.get(bucket, {}))

    def sample_count(self) -> int:
        """Total samples currently held across all cells."""
        with self._lock:  # a sibling shard may be recording
            return sum(
                cell.count for row in self._entries.values() for cell in row.values()
            )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, bucket: object) -> bool:
        return bucket in self._entries

    # ------------------------------------------------------------------ #
    # Merging (cross-shard warm-state exchange)
    # ------------------------------------------------------------------ #
    def merge(self, other: "DispatchTable") -> int:
        """Adopt another shard's samples into this table; returns how many.

        The cross-process half of pool autotuning: each shard of a
        process-mode :class:`~repro.serving.pool.ServingPool` owns its
        table, and the parent folds the shards' saved tables into one —
        so a bucket only shard 2's traffic exercised still prices from
        measurement after a restart.  Semantics:

        * **identity-checked** — both tables must describe the same host
          fingerprint and registry digest (:class:`~repro.errors.ConfigError`
          otherwise; a table :meth:`load` degraded to empty merges as a
          no-op, which is how foreign shard *files* are skipped rather
          than fatal);
        * **bounded** — adopted samples append to the same
          ``max_samples`` rings recording uses, so a merge can never grow
          a cell past its ring;
        * **monotone** — samples are only ever added, so any cell that
          was confident before the merge stays confident after it;
        * **idempotent while held** — a sample already present in the
          destination ring (exact float match: wall-clock samples are
          effectively unique) is not adopted twice, so re-merging an
          unchanged shard file is a no-op.  Samples a
          ring has already rotated *out* are not remembered, so a
          sibling can re-introduce one; the adoption cap below bounds
          how far such echoes can push out local recency;
        * **recency-preserving** — one merge adopts at most the ring's
          free space plus half its capacity per cell, so a sibling's
          backlog can never flush all of a shard's own recent local
          measurements in a single merge.

        The whole merge counts as one recording for staleness purposes:
        adopted cells are stamped at the post-merge generation.
        """
        if other is self:
            return 0
        if (other.host, other.registry_id) != (self.host, self.registry_id):
            raise ConfigError(
                "cannot merge dispatch tables with different identities: "
                f"({other.host!r}, {other.registry_id!r}) != "
                f"({self.host!r}, {self.registry_id!r})"
            )
        with other._lock:
            snapshot = {
                bucket: {
                    backend: list(cell.samples)
                    for backend, cell in cells.items()
                }
                for bucket, cells in other._entries.items()
            }
        adopted = 0
        with self._lock:
            self.generation += 1
            for bucket, cells in snapshot.items():
                mine = self._entries.setdefault(bucket, {})
                for backend, samples in cells.items():
                    cell = mine.get(backend)
                    if cell is None:
                        cell = BucketTiming(max_samples=self.max_samples)
                        mine[backend] = cell
                    held = set(cell.samples)
                    fresh = [s for s in samples if s not in held]
                    # Keep the newest foreign samples, bounded so at
                    # least half the ring of local recency survives.
                    space = self.max_samples - cell.count
                    limit = max(space, self.max_samples // 2, 1)
                    fresh = fresh[-limit:]
                    if fresh:
                        cell.samples.extend(fresh)
                        cell.last_seen = self.generation
                        adopted += len(fresh)
        return adopted

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def to_payload(self) -> dict:
        """JSON-serializable form of the table (schema ``version`` 1)."""
        with self._lock:
            return self._payload_locked()

    def _payload_locked(self) -> dict:
        return {
            "version": TABLE_FORMAT_VERSION,
            "host": self.host,
            "registry": self.registry_id,
            "min_samples": self.min_samples,
            "stale_after": self.stale_after,
            "max_samples": self.max_samples,
            "generation": self.generation,
            "buckets": {
                bucket.key(): {
                    backend: {
                        "samples": list(cell.samples),
                        "last_seen": cell.last_seen,
                    }
                    for backend, cell in cells.items()
                }
                for bucket, cells in self._entries.items()
            },
        }

    def save(self, path: str | Path) -> Path:
        """Write the table to ``path`` as JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        host: str | None = None,
        registry_id: str | None = None,
        strict: bool = False,
    ) -> "DispatchTable":
        """Load a saved table, validating host + registry identity.

        A mismatch (different machine, different backend set, unknown
        schema version, unreadable file) returns an *empty* table whose
        ``mismatch`` attribute says why — every price then falls back to
        the analytic model, which is always safe — and emits a
        ``RuntimeWarning`` with the reason, with ``degraded_loads`` set
        on the returned table, so the degrade is observable instead of
        indistinguishable from a fresh table.  ``strict=True`` raises
        :class:`~repro.errors.ConfigError` instead.
        """
        expect_host = host or host_fingerprint()
        expect_registry = (
            registry_id if registry_id is not None else registry_digest()
        )

        def degrade(reason: str) -> "DispatchTable":
            if strict:
                raise ConfigError(f"cannot load dispatch table {path}: {reason}")
            warnings.warn(
                f"dispatch table {path} ignored: {reason} — pricing falls "
                "back to the analytic model",
                RuntimeWarning,
                stacklevel=3,
            )
            emit_event(__name__, "dispatch_table_degraded", path=path, reason=reason)
            table = cls(host=expect_host, registry_id=expect_registry)
            table.mismatch = reason
            table.degraded_loads = 1
            return table

        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            return degrade(f"unreadable ({exc})")
        if not isinstance(payload, dict):
            return degrade("not a JSON object")
        if payload.get("version") != TABLE_FORMAT_VERSION:
            return degrade(
                f"schema version {payload.get('version')!r} != {TABLE_FORMAT_VERSION}"
            )
        if payload.get("host") != expect_host:
            return degrade(
                f"host fingerprint {payload.get('host')!r} != {expect_host!r}"
            )
        if payload.get("registry") != expect_registry:
            return degrade(
                f"registry digest {payload.get('registry')!r} != {expect_registry!r}"
            )

        try:
            table = cls(
                host=expect_host,
                registry_id=expect_registry,
                min_samples=int(payload.get("min_samples", 1)),
                stale_after=payload.get("stale_after"),
                max_samples=int(payload.get("max_samples", DEFAULT_MAX_SAMPLES)),
            )
            table.generation = int(payload.get("generation", 0))
            for key, cells in payload.get("buckets", {}).items():
                bucket = ShapeBucket.from_key(key)
                for backend, cell in cells.items():
                    table._entries.setdefault(bucket, {})[str(backend)] = BucketTiming(
                        (float(s) for s in cell["samples"]),
                        last_seen=int(cell.get("last_seen", 0)),
                        max_samples=table.max_samples,
                    )
        except (KeyError, TypeError, ValueError, AttributeError, ConfigError) as exc:
            return degrade(f"malformed payload ({exc})")
        return table


def merge_saved_dispatch_tables(
    table: DispatchTable, paths: Iterable[str | Path]
) -> dict[str, int | None]:
    """Merge saved shard tables into ``table`` through the JSON load path.

    The persistence-mediated form of :meth:`DispatchTable.merge` — what a
    process-mode :class:`~repro.serving.pool.ServingPool` runs after its
    shards return: every path is read with :meth:`DispatchTable.load`
    (so identity validation is exactly the single-session rule) and
    merged.  A file recorded on a different host, against a different
    registry, with an unknown schema or simply unreadable loads as an
    *empty* table and therefore merges as a no-op: foreign shard files
    are skipped, never fatal.

    Returns ``{path: adopted_sample_count | None}`` — ``None`` marks a
    path that was skipped (its load degraded), with the reason available
    from the degraded table's ``mismatch``.

    Example::

        table = engine.dispatch_table
        merge_saved_dispatch_tables(table, ["shard-1.json", "shard-2.json"])
    """
    outcomes: dict[str, int | None] = {}
    for path in paths:
        loaded = DispatchTable.load(
            path, host=table.host, registry_id=table.registry_id
        )
        if loaded.mismatch is not None:
            outcomes[str(path)] = None
            continue
        outcomes[str(path)] = table.merge(loaded)
    return outcomes


# --------------------------------------------------------------------- #
# Offline tuning
# --------------------------------------------------------------------- #
def synthesize_operands(
    spec: GemmSpec,
    tile_fraction: float | None,
    rng: np.random.Generator,
):
    """Random operands matching a bucket's shape and sparsity.

    The left operand of a 1-bit product with a target fraction is built
    tile-structured: the requested share of its 8x128 tile grid is
    activated (each live tile filled with random bits), the rest left
    all-zero — the same structure a coalesced block-diagonal adjacency
    presents to the census, so a skip kernel is measured on the work it
    would actually do.

    The :class:`~repro.core.bitpack.Operand`\\ s hold the forms serving
    hands a backend, so offline samples time the window serving feeds
    back: activations and weights carry codes *and* words (packed ahead
    of the GEMM window when the backend reads words), a censused 1-bit
    left operand — an adjacency — exists only as words.
    """
    from ..core.bitpack import Operand

    m, k, n = spec.m, spec.k, spec.n
    censused = spec.bits_a == 1 and tile_fraction is not None
    if censused:
        mt, kt = pad_to(max(m, 1), TC_M) // TC_M, pad_to(max(k, 1), TC_K) // TC_K
        live = rng.random((mt, kt)) < tile_fraction
        a = (rng.random((m, k)) < 0.3).astype(np.int64)
        a *= np.repeat(np.repeat(live, TC_M, axis=0), TC_K, axis=1)[:m, :k]
    else:
        a = rng.integers(0, 1 << spec.bits_a, size=(m, k), dtype=np.int64)
    b = rng.integers(0, 1 << spec.bits_b, size=(k, n), dtype=np.int64)
    left, right = Operand(a, spec.bits_a, "col"), Operand(b, spec.bits_b, "row")
    # Words are derived here, outside any timing window.
    return (
        Operand(packed=left.packed) if censused else left.pack(),
        right.pack(),
    )


def _measure_backend(
    backend: "Backend",
    kernel,
    a,
    b,
    plan,
    passes: int,
) -> list[float]:
    """Wall-clock samples of one backend on fixed operands.

    The timed call is literally the one online serving feedback times — a
    full ``BitGemmKernel.launch`` (operand checks, counter derivation, the
    backend's product) with the left operand's census
    supplied as a precomputed ``plan`` outside the window, the way a
    session executes against its cached ballot.  Offline and online
    samples land in the same table cells, so any difference in what the
    windows cover would systematically bias medians against whichever
    backend serving actually ran.

    One untimed warm-up pass precedes the samples: backends with one-time
    setup cost (the ``codegen`` engine compiles its specialized kernel on
    first contact with a shape/census; ``blas`` derives an operand's float
    or CSR view on first use) amortize it across replays in serving, so
    folding it into the first sample would bias the bucket's
    median against exactly the steady state the table is predicting.
    """
    import time

    kernel.launch(backend, a, b, plan)
    samples = []
    for _ in range(passes):
        start = time.perf_counter()
        kernel.launch(backend, a, b, plan)
        samples.append(time.perf_counter() - start)
    return samples


def autotune(
    workload: Sequence[GemmSpec | tuple[GemmSpec, float | None]],
    *,
    registry: BackendRegistry | None = None,
    rates: HostRates = DEFAULT_HOST_RATES,
    table: DispatchTable | None = None,
    passes: int = 3,
    seed: int = 0,
    max_seconds_per_backend: float | None = None,
) -> DispatchTable:
    """Benchmark every eligible registered backend on a workload's buckets.

    Typical use — pre-measure a serving session's shapes offline, then
    dispatch from the measurements::

        table = autotune([(spec, 1 / members) for spec in forward_specs])
        dispatcher = CostModelDispatcher(table=table)

    ``workload`` items are :class:`~repro.plan.ir.GemmSpec`\\ s, optionally
    paired with an observed non-zero tile fraction (``(spec, fraction)``) —
    the same two coordinates online pricing uses, so offline and online
    samples land in the same buckets.  Specs collapsing into one bucket are
    measured once.  Every sample is recorded into ``table`` (a fresh one by
    default), which is returned.

    ``max_seconds_per_backend`` skips backends whose *analytic* estimate
    already exceeds the budget — the tuner should not spend minutes
    confirming that a hopeless backend is hopeless.
    """
    if passes < 1:
        raise ConfigError(f"passes must be >= 1, got {passes}")
    # Explicit None checks: both types define __len__, so an *empty*
    # caller-supplied table (the normal pre-fill-my-session's-table case)
    # or registry must not be silently swapped for a fresh default.
    if registry is None:
        registry = default_registry()
    if table is None:
        table = DispatchTable(registry_id=registry_digest(registry))
    rng = np.random.default_rng(seed)
    from ..tc.kernel import BitGemmKernel, TileSkipPlan

    kernel = BitGemmKernel()

    tuned: set[ShapeBucket] = set()
    for item in workload:
        spec, fraction = item if isinstance(item, tuple) else (item, None)
        bucket = bucket_for(spec, fraction)
        if bucket in tuned:
            continue
        tuned.add(bucket)
        # Measure the *bucket's* padded shape, not the raw spec: every spec
        # in the bucket executes this padded kernel.
        padded = GemmSpec(
            m=bucket.m, k=bucket.k, n=bucket.n,
            bits_a=bucket.bits_a, bits_b=bucket.bits_b, role=spec.role,
        )
        a, b = synthesize_operands(padded, fraction, rng)
        # Census once, outside every timing window (the serving path
        # amortizes the ballot at adjacency/operand-packing time).  Only
        # 1-bit left operands carry a ballot, mirroring the kernel.
        plan = (
            TileSkipPlan(masks=(tile_nonzero_mask(a.packed.plane(0)),))
            if a.bits == 1
            else None
        )
        flops = 2.0 * padded.m * padded.k * padded.n * padded.pairs
        ctx = PriceContext(
            spec=padded, flops=flops, rates=rates, tile_fraction=fraction
        )
        for backend in registry.eligible(padded):
            if max_seconds_per_backend is not None and backend.pricer is not None:
                estimate = backend.pricer(ctx)
                if estimate.effective_s > max_seconds_per_backend:
                    continue
            for sample in _measure_backend(backend, kernel, a, b, plan, passes):
                table.record(bucket, backend.name, sample)
    return table

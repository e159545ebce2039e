"""Measured dispatch: shape-bucketed backend timing tables.

Every :class:`~repro.plan.ir.GemmStep` is first priced analytically from
the frozen :class:`~repro.plan.rates.HostRates` constants; this module
lets the dispatcher replace that guess with what the backends measured
in this process:

* a :class:`ShapeBucket` quantizes one product's workload — ``m``/``n``
  rounded up to the 8-row tile multiple, ``k`` to the 128-bit tile
  multiple (shapes that differ only inside one padding tile execute the
  same padded kernel, so they share a bucket), crossed with both
  bitwidths and a geometric *band* of the observed non-zero tile
  fraction;
* a :class:`DispatchTable` maps buckets to per-backend timing samples.
  Samples arrive from online serving feedback: every warm replay of a
  compiled plan is a free sample, and the serving engine feeds a round's
  measured per-GEMM timings back through :meth:`DispatchTable.record_all`;
* at pricing time :meth:`Backend.price <repro.plan.registry.Backend.price>`
  consults the table *before* falling back to the analytic
  :class:`HostRates` model: a bucket answers only when it holds at least
  ``min_samples`` samples, and vetoed backends (the blas memory budget)
  stay vetoed regardless of how fast they measured.

A table is an in-memory measurement of one process.  It starts empty, is
never written to or read from disk, and dies with its process: a thread
pool's shards share one table, a forked shard's table is discarded with
the shard.
"""

from __future__ import annotations

import math
import platform
import statistics
import threading
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.bitpack import TC_K, TC_M, pad_to
from ..errors import ConfigError
from .ir import GemmSpec
from .registry import BackendPrice, PriceContext

__all__ = [
    "DispatchTable",
    "NO_CENSUS_BAND",
    "MAX_FRACTION_BAND",
    "ShapeBucket",
    "bucket_for",
    "bucket_in",
    "fraction_band",
    "host_fingerprint",
]

#: Band value of a product with no observed tile census (dense by default).
NO_CENSUS_BAND = -1
#: Fractions below ``2**-MAX_FRACTION_BAND`` all share the sparsest band.
MAX_FRACTION_BAND = 6

#: Timing samples retained per (bucket, backend) — enough for a stable
#: median while letting online feedback age out old measurements.
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
        """Stable, sortable string form of the bucket."""
        return f"{self.m}x{self.k}x{self.n}:{self.bits_a}b{self.bits_b}:f{self.band}"


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

    Timings are throughputs of *this* interpreter on *this* machine, so a
    benchmark record names the host it measured on.  The fingerprint is
    deliberately coarse (architecture, OS, Python x.y, NumPy x.y and the
    BLAS its build links): a patch-level interpreter upgrade keeps it,
    while a different machine — or a NumPy built against a different
    BLAS, whose ``blas`` backend throughput can differ severalfold —
    changes it.
    """
    py = ".".join(platform.python_version_tuple()[:2])
    np_xy = ".".join(np.__version__.split(".")[:2])
    return (
        f"{platform.machine()}/{platform.system()}/py{py}/numpy{np_xy}"
        f"/{_blas_name()}"
    )


class DispatchTable:
    """Shape-bucketed measured backend timings; see module docstring.

    Typical use::

        table = DispatchTable(min_samples=2)
        table.record_spec(spec, "blas", measured_seconds)
        table.record_spec(spec, "blas", measured_seconds)
        table.median(bucket_for(spec), "blas")    # now confident

    Parameters
    ----------
    min_samples:
        Per-bucket confidence floor: a (bucket, backend) cell prices from
        measurement only once it holds at least this many samples.
    max_samples:
        Bound of each cell's sample ring; older samples rotate out.
    """

    def __init__(
        self, *, min_samples: int = 1, max_samples: int = DEFAULT_MAX_SAMPLES
    ) -> None:
        if min_samples < 1:
            raise ConfigError(f"min_samples must be >= 1, got {min_samples}")
        if max_samples < 1:
            raise ConfigError(f"max_samples must be >= 1, got {max_samples}")
        self.min_samples = min_samples
        self.max_samples = max_samples
        self._entries: dict[ShapeBucket, dict[str, deque[float]]] = {}
        # Every shard of a thread pool records into (and prices from) this
        # one object.
        self._lock = threading.Lock()

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
        worth under one lock acquisition.  A sample that is negative or not
        finite rejects the whole batch: one NaN would skew its bucket's
        median for as long as it stays in the ring."""
        if not all(0.0 <= seconds < math.inf for _, _, seconds in samples):
            raise ConfigError(
                f"timing samples must be finite and >= 0 s, got {samples}"
            )
        entries = self._entries
        with self._lock:
            for bucket, backend, seconds in samples:
                cells = entries.get(bucket) or entries.setdefault(bucket, {})
                ring = cells.get(backend) or cells.setdefault(backend, deque(maxlen=self.max_samples))
                ring.append(float(seconds))

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
    def median(self, bucket: ShapeBucket, backend: str) -> float | None:
        """Measured median seconds, or ``None`` below the confidence bar."""
        with self._lock:
            ring = self._entries.get(bucket, {}).get(backend)
            if ring is None or len(ring) < self.min_samples:
                return None
            return statistics.median(ring)

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
                len(ring) for row in self._entries.values() for ring in row.values()
            )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, bucket: object) -> bool:
        return bucket in self._entries

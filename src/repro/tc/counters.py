"""Event counters collected by the emulated Tensor Core kernel.

The cost model never guesses densities or traffic: the functional kernel
counts what actually happened (tiles skipped by zero-tile jumping, fragment
loads under each reuse schedule, bytes moved) and the model converts those
counts to time.  This mirrors how the paper's §6.3 studies report measured
tile ratios rather than estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["KernelCounters"]


@dataclass
class KernelCounters:
    """Operation and traffic counts for one emulated kernel launch.

    All counts are totals for the launch.  ``mma_ops`` counts 8x8x128 1-bit
    WMMA instructions — the unit the effective-throughput calibration is
    expressed in (one mma = 2*8*8*128 = 16384 bit-FLOPs).
    """

    #: Number of 1-bit m8n8k128 WMMA (bmma) instructions issued.
    mma_ops: int = 0
    #: A-matrix fragment loads (8x128-bit tiles moved into registers).
    frag_loads_a: int = 0
    #: B-matrix fragment loads.
    frag_loads_b: int = 0
    #: Accumulator fragment stores back to global memory.
    frag_stores: int = 0
    #: Bytes read from global memory (packed operand words).
    global_bytes_read: int = 0
    #: Bytes written to global memory (results).
    global_bytes_written: int = 0
    #: A-operand tiles inspected by the zero-tile check.
    tiles_total: int = 0
    #: Tiles skipped because the ballot found them all-zero (§4.3).
    tiles_skipped: int = 0
    #: Tiles that proceeded to computation.
    tiles_processed: int = 0
    #: Kernel launches (fused pipelines issue fewer of these).
    launches: int = 0
    #: Label of the reuse schedule that produced these counts.
    schedule: str = ""
    #: Free-form notes (kernel name, shape) for debugging reports.
    tags: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @property
    def skip_fraction(self) -> float:
        """Fraction of inspected A tiles that were jumped (0 when none)."""
        if self.tiles_total == 0:
            return 0.0
        return self.tiles_skipped / self.tiles_total

    @property
    def processed_fraction(self) -> float:
        """Fraction of A tiles actually processed — Figure 8's metric."""
        if self.tiles_total == 0:
            return 0.0
        return self.tiles_processed / self.tiles_total

    @property
    def global_bytes(self) -> int:
        """Total global-memory traffic in bytes."""
        return self.global_bytes_read + self.global_bytes_written

    # ------------------------------------------------------------------ #
    def merge(self, other: "KernelCounters") -> "KernelCounters":
        """Accumulate another launch's counts into this one (in place)."""
        self.mma_ops += other.mma_ops
        self.frag_loads_a += other.frag_loads_a
        self.frag_loads_b += other.frag_loads_b
        self.frag_stores += other.frag_stores
        self.global_bytes_read += other.global_bytes_read
        self.global_bytes_written += other.global_bytes_written
        self.tiles_total += other.tiles_total
        self.tiles_skipped += other.tiles_skipped
        self.tiles_processed += other.tiles_processed
        self.launches += other.launches
        if not self.schedule:
            self.schedule = other.schedule
        return self

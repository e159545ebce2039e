"""Structured timing reports for end-to-end epoch modeling."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["EpochReport"]


@dataclass
class EpochReport:
    """Modeled one-epoch inference time, decomposed by cost source.

    All fields are modeled seconds on the emulated device.  ``transfer_s``
    is kept out of :meth:`total_s` by default because the paper's Figure 7
    epoch times "exclude the time of data loading" (artifact appendix); the
    packing ablation reports it explicitly.
    """

    system: str
    dataset: str = ""
    num_batches: int = 0
    launch_s: float = 0.0
    compute_s: float = 0.0
    memory_s: float = 0.0
    reload_s: float = 0.0
    elementwise_s: float = 0.0
    framework_s: float = 0.0
    transfer_s: float = 0.0
    #: Total bmma instructions (QGTC paths) for sanity checks.
    mma_ops: int = 0
    #: Total kernel launches across the epoch.
    kernels: int = 0
    #: A-operand tiles inspected across all launches (measured census).
    tiles_total: int = 0
    #: Tiles the zero-tile ballot skipped (measured, not assumed — fed from
    #: the per-plane masks of the executed operands).
    tiles_skipped: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def skip_fraction(self) -> float:
        """Measured fraction of inspected tiles that were jumped (§4.3)."""
        if self.tiles_total == 0:
            return 0.0
        return self.tiles_skipped / self.tiles_total

    def total_s(self, *, include_transfer: bool = False) -> float:
        total = (
            self.launch_s
            + self.compute_s
            + self.memory_s
            + self.reload_s
            + self.elementwise_s
            + self.framework_s
        )
        if include_transfer:
            total += self.transfer_s
        return total

    def total_ms(self, *, include_transfer: bool = False) -> float:
        return self.total_s(include_transfer=include_transfer) * 1e3

    def merge(self, other: "EpochReport") -> "EpochReport":
        """Accumulate another report's costs into this one (in place)."""
        self.num_batches += other.num_batches
        self.launch_s += other.launch_s
        self.compute_s += other.compute_s
        self.memory_s += other.memory_s
        self.reload_s += other.reload_s
        self.elementwise_s += other.elementwise_s
        self.framework_s += other.framework_s
        self.transfer_s += other.transfer_s
        self.mma_ops += other.mma_ops
        self.kernels += other.kernels
        self.tiles_total += other.tiles_total
        self.tiles_skipped += other.tiles_skipped
        return self

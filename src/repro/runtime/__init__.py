"""Runtime: PCIe transfer modeling, bandwidth-optimized subgraph packing,
batch profiling, and the end-to-end QGTC epoch executor (paper §4.1/4.5/4.6)."""

from .executor import (
    QGTC_FRAMEWORK_OVERHEAD_S,
    QGTCRunConfig,
    modeled_plan_report,
    qgtc_epoch_report,
)
from .packing import BatchPayload, TransferMode, batch_payload, batch_transfer_time
from .pcie import TransferEstimate, transfer_time
from .profilebatch import BatchProfile, profile_batch, profile_batches
from .report import EpochReport

__all__ = [
    "QGTC_FRAMEWORK_OVERHEAD_S",
    "BatchPayload",
    "BatchProfile",
    "EpochReport",
    "QGTCRunConfig",
    "TransferEstimate",
    "TransferMode",
    "batch_payload",
    "batch_transfer_time",
    "modeled_plan_report",
    "profile_batch",
    "profile_batches",
    "qgtc_epoch_report",
    "transfer_time",
]

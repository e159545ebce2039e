"""Calibrated host-throughput rates consumed by backend pricers.

These are sustained throughputs of *this* Python process on the shipped
benchmark workloads — unlike :class:`repro.tc.hardware.DeviceSpec`, which
prices the emulated GPU.  A recalibration is a value
(``HostRates(packed_flops=...)``) passed to the dispatcher or to any
registry pricer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

__all__ = ["DEFAULT_HOST_RATES", "HostRates"]


@dataclass(frozen=True)
class HostRates:
    """Host-side throughput calibration of the built-in backends.

    Attributes
    ----------
    packed_flops:
        Sustained effective bit-FLOP/s of the packed AND+popcount engine.
    blas_flops:
        Sustained BLAS FLOP/s of the one-GEMM-on-codes engine.
    packed_pair_overhead_s:
        Per plane-pair dispatch overhead (row-block loop, temporaries).
    blas_call_overhead_s:
        Fixed cost of the blas engine's single call (operand views,
        dispatch, the int64 cast of the product).
    """

    packed_flops: float = 3.2e10
    blas_flops: float = 5.5e10
    packed_pair_overhead_s: float = 60e-6
    blas_call_overhead_s: float = 25e-6

    def __post_init__(self) -> None:
        for name in ("packed_flops", "blas_flops"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("packed_pair_overhead_s", "blas_call_overhead_s"):
            if getattr(self, name) < 0:
                raise ConfigError(
                    f"{name} must be non-negative, got {getattr(self, name)}"
                )


#: The rates shipped with the repo (calibrated on the CI benchmark hosts).
DEFAULT_HOST_RATES = HostRates()

"""Re-exports, at the path ``benchmarks/e2e`` imports them from, two names
of :mod:`repro.plan.dispatch_shim` (until ROADMAP 1(a))."""

from .dispatch_shim import bucket_for, host_fingerprint

__all__ = ["bucket_for", "host_fingerprint"]

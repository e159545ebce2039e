"""What is left of the LoopIR kernel generator: one no-op hook.

No registered backend compiles kernels, so no plan has any to prepare.
:func:`prepare_plan_kernels` stays only because ``benchmarks/e2e`` imports
it; it goes when that harness stops doing so (ROADMAP direction 1(a)).
"""

from __future__ import annotations

__all__ = ["prepare_plan_kernels"]


def prepare_plan_kernels(plan, adjacency) -> tuple[float, float]:
    """``(lower_seconds, compile_seconds)`` of a plan's kernel builds:
    always ``(0.0, 0.0)``, since nothing is compiled."""
    return 0.0, 0.0

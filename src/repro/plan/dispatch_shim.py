"""The dispatch names ``benchmarks/e2e`` still imports, until ROADMAP 1(a).

Dispatch is the static rule :func:`repro.plan.registry.static_backend`;
the system reads no answer of this module (``InferenceEngine.dispatcher``
only hands one out).  The harness imports
:func:`host_fingerprint` and :func:`bucket_for` from
:mod:`repro.plan.autotune` and :class:`CostModelDispatcher` from
:mod:`repro.serving`, and its settle step times what ``decide`` prices
finite: the backend the rule serves.  ROADMAP 1(a) moves the harness off
these names, and this module goes with them.
"""

from __future__ import annotations

import math
import platform
from typing import NamedTuple

import numpy as np

from ..core.bitpack import TC_K, TC_M, pad_to
from .registry import BLAS_BYTES_BUDGET, default_registry, static_backend

__all__ = ["CostModelDispatcher", "bucket_for", "host_fingerprint"]


def host_fingerprint() -> str:
    """Architecture, OS, Python x.y, NumPy x.y and the BLAS NumPy links."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # pragma: no cover - metadata shape varies by build
        blas = ""
    py = ".".join(platform.python_version_tuple()[:2])
    numpy = ".".join(np.__version__.split(".")[:2])
    return f"{platform.machine()}/{platform.system()}/py{py}/numpy{numpy}/{blas or 'unknown'}"


class _Bucket(NamedTuple):
    spec: object

    def key(self) -> str:
        s = self.spec
        m, k, n = pad_to(max(s.m, 1), TC_M), pad_to(max(s.k, 1), TC_K), pad_to(max(s.n, 1), TC_M)
        return f"{m}x{k}x{n}:{s.bits_a}b{s.bits_b}"


def bucket_for(spec, tile_fraction: float | None = None) -> _Bucket:
    """A product's tile-padded shape and bitwidths; the census is ignored."""
    return _Bucket(spec)


_Price = NamedTuple("_Price", [("seconds", float), ("vetoed", bool)])
_Decision = NamedTuple("_Decision", [("engine", str), ("prices", dict)])


class CostModelDispatcher:
    """Answers with the static rule; ``device`` and ``rates`` are ignored."""

    def __init__(self, device=None, *, blas_bytes_budget: int = BLAS_BYTES_BUDGET,
                 rates=None, registry=None) -> None:
        self.blas_bytes_budget = blas_bytes_budget
        self.rates = rates
        self.registry = default_registry() if registry is None else registry

    def observe_tile_fraction(self, fraction: float, *, nodes: int | None = None) -> None:
        """Does nothing: the rule reads no census."""

    def record_timing(self, spec, backend: str, seconds: float, *, tile_fraction=None) -> None:
        """Records nothing: the rule reads no timing."""

    def decide(self, m: int, k: int, n: int, bits_a: int, bits_b: int) -> _Decision:
        """The served backend priced finite, the other ``inf``; ``blas`` is
        vetoed when the rule sends the product to ``packed``."""
        served = static_backend(m, k, n, bits_a, bits_b)
        return _Decision(served, {
            name: _Price(1.0 if name == served else math.inf, name == "blas" and served == "packed")
            for name in ("blas", "packed")
        })

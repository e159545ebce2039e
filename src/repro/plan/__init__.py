"""Plan layer: an ExecutionPlan IR plus a pluggable backend registry.

The paper's pipeline — quantize, bit-decompose/pack, zero-tile census,
tiled bit-GEMM, fused requantize — used to be re-derived piecemeal at
every layer of this repo.  This package separates the *plan* (what to
pack, which tiles to skip, which engine runs each product) from
*execution* (actually running the packed products), the
algorithm/schedule split that makes compile-once/replay-many serving,
multi-backend dispatch and modeled-vs-measured accounting share one
description of the work:

* :mod:`repro.plan.registry` — :class:`Backend` objects carrying
  capability metadata and a cost pricer, registered by name in a
  :class:`BackendRegistry`.  The ``engine=`` string/callable API of
  :mod:`repro.core` is a compatibility shim over this registry.
* :mod:`repro.plan.backends` — the two host backends (``packed``,
  ``blas``) expressed as registry entries: the default registry.
* :mod:`repro.plan.rates` — :class:`HostRates`, the frozen calibration
  record every pricer consumes (per-machine recalibration is a value,
  not a subclass).
* :mod:`repro.plan.autotune` — measured dispatch:
  :class:`ShapeBucket` workload quantization and the in-memory
  :class:`DispatchTable` of per-backend timing medians every pricer
  consults *before* falling back to the :class:`HostRates` model.
* :mod:`repro.plan.ir` — the IR: :class:`GemmSpec` (shape + bitwidths),
  per-GEMM :class:`QuantizeStep`/:class:`PackStep`/:class:`CensusStep`
  nodes, :class:`GemmStep` (one product with its resolved backend),
  :class:`LayerPlan` and :class:`ExecutionPlan`, plus the compilers
  (:func:`compile_gemm_step`, :func:`compile_forward_plan`) and
  :func:`forward_gemm_specs` — the single source of truth for the
  shapes/bitwidths of a forward pass, shared with the runtime's modeled
  reports.
* :mod:`repro.plan.cache` — :class:`PlanCache`, one content-keyed LRU
  for every plan artifact kind (packed weights, packed adjacencies,
  compiled plans) with per-kind segments and shared telemetry; also the
  home of the generic :class:`LRUCache`/:class:`CacheStats` primitives.

The forward executor lives in :func:`repro.gnn.quantized.execute_forward_plan`,
next to the affine algebra it carries; a single compiled step replays
through :func:`repro.core.bitgemm.bitgemm` with ``engine=step.backend``.
"""

from .autotune import (
    DispatchTable,
    ShapeBucket,
    bucket_for,
    fraction_band,
    host_fingerprint,
)
from .backends import builtin_backends
from .cache import (
    CacheStats,
    LRUCache,
    PlanCache,
    PlanKey,
    artifact_nbytes,
)
from .ir import (
    CensusStep,
    ExecutionPlan,
    GemmSpec,
    GemmStep,
    LayerPlan,
    PackStep,
    PlanSignature,
    QuantizeStep,
    compile_forward_plan,
    forward_gemm_specs,
)
from .rates import DEFAULT_HOST_RATES, HostRates
from .registry import (
    AUTO_BLAS_THRESHOLD,
    Backend,
    BackendCaps,
    BackendPrice,
    BackendRegistry,
    PriceContext,
    default_registry,
    register_backend,
    resolve_engine_name,
)

__all__ = [
    "AUTO_BLAS_THRESHOLD",
    "DEFAULT_HOST_RATES",
    "Backend",
    "BackendCaps",
    "BackendPrice",
    "BackendRegistry",
    "CacheStats",
    "CensusStep",
    "DispatchTable",
    "ExecutionPlan",
    "GemmSpec",
    "GemmStep",
    "HostRates",
    "LRUCache",
    "LayerPlan",
    "PackStep",
    "PlanCache",
    "PlanKey",
    "PlanSignature",
    "PriceContext",
    "QuantizeStep",
    "ShapeBucket",
    "artifact_nbytes",
    "bucket_for",
    "builtin_backends",
    "compile_forward_plan",
    "default_registry",
    "forward_gemm_specs",
    "fraction_band",
    "host_fingerprint",
    "register_backend",
    "resolve_engine_name",
]

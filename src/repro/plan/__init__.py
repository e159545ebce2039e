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
* :mod:`repro.plan.backends` — the two built-in host backends
  (``packed``, ``blas``) expressed as registry entries
  (``codegen`` joins them in the default registry).
* :mod:`repro.plan.rates` — :class:`HostRates`, the frozen calibration
  record every pricer consumes (per-machine recalibration is a value,
  not a subclass).
* :mod:`repro.plan.autotune` — measured autotuned dispatch:
  :class:`ShapeBucket` workload quantization, the :class:`DispatchTable`
  of per-backend timing medians every pricer consults *before* falling
  back to the :class:`HostRates` model, the offline :func:`autotune`
  sweep, and JSON persistence keyed by host fingerprint + registry
  digest so measurements survive restarts.
* :mod:`repro.plan.ir` — the IR: :class:`GemmSpec` (shape + bitwidths),
  per-GEMM :class:`QuantizeStep`/:class:`PackStep`/:class:`CensusStep`
  nodes, :class:`GemmStep` (one product with its resolved backend),
  :class:`LayerPlan` and :class:`ExecutionPlan`, plus the compilers
  (:func:`compile_gemm_plan`, :func:`compile_forward_plan`) and
  :func:`forward_gemm_specs` — the single source of truth for the
  shapes/bitwidths of a forward pass, shared with the runtime's modeled
  reports.
* :mod:`repro.plan.cache` — :class:`PlanCache`, one content-keyed LRU
  for every plan artifact kind (packed weights, packed adjacencies,
  compiled plans) with per-kind segments and shared telemetry; also the
  home of the generic :class:`LRUCache`/:class:`CacheStats` primitives.
* :mod:`repro.plan.executor` — replay of compiled single-GEMM steps on
  fresh operands (the layer/session forward executor lives in
  :func:`repro.gnn.quantized.execute_forward_plan`, next to the affine
  algebra it carries).
"""

from .autotune import (
    DispatchTable,
    ShapeBucket,
    autotune,
    bucket_for,
    fraction_band,
    host_fingerprint,
    merge_saved_dispatch_tables,
    registry_digest,
)
from .backends import builtin_backends
from .cache import (
    CacheStats,
    LRUCache,
    PlanCache,
    PlanKey,
    ThreadSafeLRUCache,
    artifact_nbytes,
)
from .executor import compile_gemm_plan, execute_gemm_plan
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
    "ThreadSafeLRUCache",
    "artifact_nbytes",
    "autotune",
    "bucket_for",
    "builtin_backends",
    "compile_forward_plan",
    "compile_gemm_plan",
    "default_registry",
    "execute_gemm_plan",
    "forward_gemm_specs",
    "fraction_band",
    "host_fingerprint",
    "merge_saved_dispatch_tables",
    "register_backend",
    "registry_digest",
    "resolve_engine_name",
]

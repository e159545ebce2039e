"""Pluggable bit-GEMM backends: engines as registered objects, not strings.

:mod:`repro.core.bitgemm` historically hard-coded its engines behind
string literals.  Here an engine is a :class:`Backend` — a named object
carrying capability metadata (:class:`BackendCaps`: bitwidth eligibility,
the operand form it reads), the GEMM implementation, and an optional cost
pricer — registered by name in a :class:`BackendRegistry`.

The existing ``engine=`` string/callable API everywhere in the repo is a
compatibility shim over this registry: literal names are looked up,
selector callables are invoked and their return looked up, and ``"auto"``
keeps its historical output-size threshold (:data:`AUTO_BLAS_THRESHOLD`).
New backends registered via :func:`register_backend` are immediately
reachable through every ``engine=`` parameter and through the serving
dispatcher's pricing loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from ..errors import ConfigError, ShapeError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.bitpack import Operand
    from .autotune import DispatchTable
    from .ir import GemmSpec
    from .rates import HostRates

__all__ = [
    "AUTO_BLAS_THRESHOLD",
    "Backend",
    "BackendCaps",
    "BackendPrice",
    "BackendRegistry",
    "GemmRunner",
    "PriceContext",
    "Pricer",
    "default_registry",
    "register_backend",
    "resolve_engine_name",
]

#: Above this many output elements the ``"auto"`` rule switches to BLAS
#: (the historical built-in size threshold, kept by the compatibility shim).
AUTO_BLAS_THRESHOLD = 256 * 256


@dataclass(frozen=True)
class BackendCaps:
    """Capability metadata of one backend.

    The registry and the dispatcher consult this *before* pricing or
    executing: a backend whose caps reject a :class:`~repro.plan.ir.GemmSpec`
    is simply not a candidate for that product.
    """

    #: Inclusive left-operand bitwidth range the backend accepts.
    min_bits_a: int = 1
    max_bits_a: int = 32
    #: Inclusive right-operand bitwidth range the backend accepts.
    min_bits_b: int = 1
    max_bits_b: int = 32
    #: Whether the backend can consume a precomputed per-plane tile census
    #: of the left operand (the serving tile-mask cache feeds these).
    consumes_tile_masks: bool = False
    #: Whether ``run`` reads the operands' packed words: the forward
    #: executor bit-packs activations ahead of the GEMM window only for
    #: backends that do (``blas``, which multiplies codes, does not).
    consumes_words: bool = True
    #: One-line human description for docs and introspection.
    summary: str = ""

    def supports(self, spec: "GemmSpec") -> bool:
        """Whether this backend can execute a product of the given spec."""
        return (
            self.min_bits_a <= spec.bits_a <= self.max_bits_a
            and self.min_bits_b <= spec.bits_b <= self.max_bits_b
        )


@dataclass(frozen=True)
class BackendPrice:
    """One backend's modeled host cost for one GEMM."""

    #: Estimated host seconds (``inf`` when the backend cannot price the
    #: product, e.g. a backend without a pricer or a measurement).
    seconds: float
    #: Working-set bytes the estimate charges (the blas engine's float
    #: operands and product; 0 when not applicable).
    bytes: int = 0
    #: True when the backend is excluded by a resource budget rather than
    #: by time (the blas memory veto).
    vetoed: bool = False
    #: Where the estimate came from: ``"model"`` (the analytic
    #: :class:`~repro.plan.rates.HostRates` pricer) or ``"tuned"`` (a
    #: measured median from a :class:`~repro.plan.autotune.DispatchTable`).
    source: str = "model"

    @property
    def effective_s(self) -> float:
        """Seconds used for engine choice: ``inf`` when vetoed."""
        return math.inf if self.vetoed else self.seconds


@dataclass(frozen=True)
class PriceContext:
    """Everything a pricer may consult for one product."""

    spec: "GemmSpec"
    #: Padded bit-FLOPs over all plane pairs (from the TC cost model's
    #: bmma count, the same tiling §4 prescribes).
    flops: float
    rates: "HostRates"
    #: Measured non-zero tile fraction of the left operand, when a census
    #: has been observed for exactly this product's shape.
    tile_fraction: float | None = None
    #: Byte budget for the blas engine's float working set (its memory
    #: veto); ``None`` disables the veto.
    blas_bytes_budget: int | None = None
    #: Measured timing table consulted *before* the analytic pricer
    #: (see :mod:`repro.plan.autotune`); ``None`` keeps pricing analytic.
    table: "DispatchTable | None" = None

    @cached_property
    def derived(self) -> dict:
        """Memo of what pricers derive from this context alone (the table's
        bucket): once per product, not once per backend priced."""
        return {}

    @property
    def pairs(self) -> int:
        """Plane pairs of the product (``bits_a * bits_b``)."""
        return self.spec.bits_a * self.spec.bits_b


#: GEMM implementation: ``(a, b, tile_masks) ->`` the exact product of the
#: two operands' codes, shape ``(M, N)`` on the logical shapes — int64, or
#: the float dtype ``exact_gemm_dtype`` proves exact for the product.
GemmRunner = Callable[
    ["Operand", "Operand", "Sequence[np.ndarray] | None"], np.ndarray
]
#: Cost pricer: modeled host seconds (and veto state) for one product.
Pricer = Callable[[PriceContext], BackendPrice]


@dataclass(frozen=True)
class Backend:
    """A registered bit-GEMM engine; see module docstring.

    Attributes
    ----------
    name:
        Registry key; also the string the ``engine=`` compatibility shim
        and :data:`~repro.core.bitgemm.EngineSelector` callables use.
    run:
        The implementation: the reduced, exact ``(M, N)`` product of two
        :class:`~repro.core.bitpack.Operand`\\ s (see :data:`GemmRunner`).
    caps:
        Capability metadata consulted before pricing/execution.
    pricer:
        Optional cost model; a backend without one executes fine but the
        cost-model dispatcher will never route to it.
    """

    name: str
    run: GemmRunner
    caps: BackendCaps = field(default_factory=BackendCaps)
    pricer: Pricer | None = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigError(f"backend name must be a non-empty string, got {self.name!r}")

    def price(self, ctx: PriceContext) -> BackendPrice:
        """Host cost of this backend for one product.

        With a measured :class:`~repro.plan.autotune.DispatchTable` on the
        context, the tuned bucket median is consulted *first* and the
        analytic pricer is the fallback (no confident measurement yet, or
        no table at all).  Two guards keep measurement subordinate to
        resources: a backend the analytic pricer *vetoes* (the blas memory
        budget) stays vetoed no matter how fast it measured, and a backend
        with neither pricer nor measurement prices ``inf``.
        """
        model = (
            self.pricer(ctx) if self.pricer is not None
            else BackendPrice(seconds=math.inf)
        )
        if ctx.table is None or model.vetoed:
            return model
        tuned = ctx.table.tuned_price(self.name, ctx)
        if tuned is None:
            return model
        # Only the *seconds* are measured; the working-set estimate is
        # still the model's (the allocation happens regardless of how the
        # product was priced, and telemetry reads it off the decision).
        return replace(tuned, bytes=model.bytes)


class BackendRegistry:
    """Named backends with capability-aware lookup and pricing."""

    def __init__(self, backends: Sequence[Backend] = ()) -> None:
        self._backends: dict[str, Backend] = {}
        #: Bumped by every (un)registration: what a plan step keys its
        #: binding to this registry on (``GemmStep.derived``).
        self.generation = 0
        for backend in backends:
            self.register(backend)

    # ------------------------------------------------------------------ #
    def register(self, backend: Backend, *, replace: bool = False) -> Backend:
        """Add a backend; ``replace=True`` overrides an existing name."""
        if backend.name in self._backends and not replace:
            raise ConfigError(
                f"backend {backend.name!r} is already registered; "
                "pass replace=True to override it"
            )
        self._backends[backend.name] = backend
        self.generation += 1
        return backend

    def unregister(self, name: str) -> Backend:
        """Remove and return a backend by name."""
        self.generation += 1
        try:
            return self._backends.pop(name)
        except KeyError:
            raise ConfigError(
                f"unknown backend {name!r}; registered: {self.names()}"
            ) from None

    def get(self, name: str) -> Backend:
        """Look up a backend by name (:class:`ConfigError` when unknown)."""
        try:
            return self._backends[name]
        except KeyError:
            raise ConfigError(
                f"unknown backend {name!r}; registered: {self.names()}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """Registered backend names, in registration order."""
        return tuple(self._backends)

    def __contains__(self, name: object) -> bool:
        return name in self._backends

    def __iter__(self) -> Iterator[Backend]:
        return iter(self._backends.values())

    def __len__(self) -> int:
        return len(self._backends)

    # ------------------------------------------------------------------ #
    def eligible(self, spec: "GemmSpec") -> list[Backend]:
        """Backends whose capability metadata accepts the spec."""
        return [b for b in self if b.caps.supports(spec)]

    def price_all(self, ctx: PriceContext) -> dict[str, BackendPrice]:
        """Price every eligible, priceable backend for one product.

        A backend is priceable when it has an analytic pricer *or* the
        context's tuned table holds a confident measurement for it — so a
        registered backend without a cost model still becomes routable
        once it has been timed.  Insertion (registration) order
        is preserved, which makes engine choice deterministic under price
        ties.
        """
        prices: dict[str, BackendPrice] = {}
        for b in self.eligible(ctx.spec):
            price = b.price(ctx)
            if b.pricer is None and price.source != "tuned":
                continue
            prices[b.name] = price
        return prices


_default_registry: BackendRegistry | None = None


def default_registry() -> BackendRegistry:
    """The process-wide registry: ``packed``, ``blas``, ``codegen``.

    ``codegen`` registers after the built-ins and its analytic price sits
    above ``packed``'s, so it is routed only when a tuned measurement
    beats the incumbents — and every identity
    built on the registry (plan templates, stale-plan invalidation) covers
    the full set with no special cases.
    """
    global _default_registry
    if _default_registry is None:
        from ..codegen import codegen_backend
        from .backends import builtin_backends

        registry = BackendRegistry(builtin_backends())
        registry.register(codegen_backend())
        _default_registry = registry
    return _default_registry


def register_backend(backend: Backend, *, replace: bool = False) -> Backend:
    """Register a backend into the process-wide default registry."""
    return default_registry().register(backend, replace=replace)


def resolve_engine_name(
    engine: object, spec: "GemmSpec", registry: BackendRegistry | None = None
) -> str:
    """Resolve an ``engine=`` argument to a registered backend name.

    The single definition of the compatibility shim: literal names are
    validated against the registry, selector callables are invoked with
    the classic ``(m, k, n, bits_a, bits_b)`` signature and their return
    validated, and ``"auto"`` applies the historical output-size threshold
    (which presumes the built-in ``packed``/``blas`` pair is registered).
    Raises :class:`~repro.errors.ShapeError` for unknown names, matching
    the pre-registry behavior callers already handle.
    """
    # Explicit None check: a registry defines __len__, so an *empty*
    # caller-supplied registry is falsy and `registry or default` would
    # silently resolve names against the default set the caller
    # deliberately excluded.
    if registry is None:
        registry = default_registry()
    if callable(engine):
        chosen = engine(spec.m, spec.k, spec.n, spec.bits_a, spec.bits_b)
        if chosen not in registry:
            raise ShapeError(
                f"engine selector returned {chosen!r}; "
                f"expected one of {registry.names()}"
            )
        return chosen
    if engine == "auto":
        return "blas" if spec.m * spec.n >= AUTO_BLAS_THRESHOLD else "packed"
    if engine not in registry:
        raise ShapeError(f"unknown engine {engine!r}; registered: {registry.names()}")
    return str(engine)

"""Pluggable bit-GEMM backends: engines as registered objects, not strings.

:mod:`repro.core.bitgemm` historically hard-coded its engines behind
string literals.  Here an engine is a :class:`Backend` — a named object
carrying capability metadata (:class:`BackendCaps`: bitwidth eligibility,
the operand form it reads) and the GEMM implementation — registered by
name in a :class:`BackendRegistry`.

Dispatch is a static rule, as in the paper's §4 kernel choice from the
bitwidths alone: :func:`static_backend` runs a product on ``blas`` unless
its float working set exceeds :data:`BLAS_BYTES_BUDGET` or ``blas`` is
quarantined, and then on ``packed``.  The ``engine=`` string/callable API
everywhere in the repo is a compatibility shim over this registry: literal
names are looked up, selector callables (the rule is one) are invoked and
their return looked up, and ``"auto"`` keeps its historical output-size
threshold (:data:`AUTO_BLAS_THRESHOLD`).  New backends registered via
:func:`register_backend` are reachable through every ``engine=`` parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Collection, Iterator, Sequence

import numpy as np

from ..core.bitgemm import exact_gemm_dtype
from ..errors import ConfigError, ShapeError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.bitpack import Operand
    from .ir import GemmSpec

__all__ = [
    "AUTO_BLAS_THRESHOLD",
    "BLAS_BYTES_BUDGET",
    "Backend",
    "BackendCaps",
    "BackendRegistry",
    "GemmRunner",
    "default_registry",
    "register_backend",
    "resolve_engine_name",
    "static_backend",
]

#: Above this many output elements the ``"auto"`` rule switches to BLAS
#: (the historical built-in size threshold, kept by the compatibility shim).
AUTO_BLAS_THRESHOLD = 256 * 256
#: Float working-set bytes (both operands and the product) beyond which
#: :func:`static_backend` sends a product from ``blas`` to ``packed``, whose
#: 1-bit operands are 32x denser.
BLAS_BYTES_BUDGET = 512 * 1024 * 1024


@dataclass(frozen=True)
class BackendCaps:
    """Capability metadata of one backend.

    :meth:`supports` says whether the backend can execute a product of a
    given :class:`~repro.plan.ir.GemmSpec`; :func:`static_backend` does
    not consult it (both built-ins accept every bitwidth), so a backend
    forced by name onto a spec its caps reject fails in its own ``run``.
    """

    #: Inclusive left-operand bitwidth range the backend accepts.
    min_bits_a: int = 1
    max_bits_a: int = 32
    #: Inclusive right-operand bitwidth range the backend accepts.
    min_bits_b: int = 1
    max_bits_b: int = 32
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


#: GEMM implementation: ``(a, b) ->`` the exact product of the two
#: operands' codes, shape ``(M, N)`` on the logical shapes — int64, or
#: the float dtype ``exact_gemm_dtype`` proves exact for the product.
GemmRunner = Callable[["Operand", "Operand"], np.ndarray]


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
        Capability metadata.
    """

    name: str
    run: GemmRunner
    caps: BackendCaps = field(default_factory=BackendCaps)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigError(f"backend name must be a non-empty string, got {self.name!r}")


class BackendRegistry:
    """Named backends with capability-aware lookup."""

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


_default_registry: BackendRegistry | None = None


def default_registry() -> BackendRegistry:
    """The process-wide registry: ``packed``, ``blas``."""
    global _default_registry
    if _default_registry is None:
        from .backends import builtin_backends

        _default_registry = BackendRegistry(builtin_backends())
    return _default_registry


def register_backend(backend: Backend, *, replace: bool = False) -> Backend:
    """Register a backend into the process-wide default registry."""
    return default_registry().register(backend, replace=replace)


def static_backend(
    m: int, k: int, n: int, bits_a: int, bits_b: int, *, quarantined: Collection[str] = ()
) -> str:
    """The backend an ``m x k x n`` product runs on: ``blas``, unless its
    float working set (both operands and the product in
    :func:`~repro.core.bitgemm.exact_gemm_dtype`'s dtype) exceeds
    :data:`BLAS_BYTES_BUDGET` or ``blas`` is ``quarantined`` — then
    ``packed``.  With both quarantined the budget alone decides, so dispatch
    always answers.  An :data:`~repro.core.bitgemm.EngineSelector`: bind
    ``quarantined`` with :func:`functools.partial` and pass it as ``engine=``.
    """
    working_set = exact_gemm_dtype(k, bits_a, bits_b).itemsize * (m * k + k * n + m * n)
    order = ("packed", "blas") if working_set > BLAS_BYTES_BUDGET else ("blas", "packed")
    return next((name for name in order if name not in quarantined), order[0])


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

"""The ExecutionPlan IR: per-GEMM steps compiled once, replayed many times.

A *plan* records everything about a forward pass that does not depend on
the concrete input values: which products run (shape + bitwidths,
:class:`GemmSpec`), where their operands come from (quantize sites,
pack layouts, census requirements — :class:`QuantizeStep` /
:class:`PackStep` / :class:`CensusStep`), which backend executes each
product (resolved through the
:class:`~repro.plan.registry.BackendRegistry` at compile time, so
dispatch decisions are made once per distinct workload and
replayed), and the content keys under which request-invariant artifacts
(packed weights, packed adjacencies) hang off the plan nodes in a
:class:`~repro.plan.cache.PlanCache`.

Compilation is cheap (dataclass construction plus one engine resolution
per GEMM); execution lives next to the numerics it drives —
:func:`repro.core.bitgemm.bitgemm` with ``engine=step.backend`` for single
products, :func:`repro.gnn.quantized.execute_forward_plan` for whole
forwards.
:func:`forward_gemm_specs` is deliberately the *only* place the per-layer
GEMM shapes of a forward pass are enumerated: the plan compiler and the
runtime's modeled reports (:func:`repro.runtime.executor.modeled_plan_report`)
both consume it, so modeled and measured counters describe the same work
by construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from ..core.bitpack import TC_K, TC_M, pad_to
from ..errors import BitwidthError, ConfigError, ShapeError
from .cache import PlanKey
from .registry import BackendRegistry, resolve_engine_name, static_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..gnn.models import GNNModel

__all__ = [
    "CensusStep",
    "ExecutionPlan",
    "GemmSpec",
    "GemmStep",
    "LayerPlan",
    "PackStep",
    "PlanSignature",
    "QuantizeStep",
    "compile_forward_plan",
    "compile_gemm_step",
    "forward_gemm_specs",
]


def _blake2b(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _tiles(dim: int, unit: int) -> int:
    return max(pad_to(dim, unit) // unit, 1)


@dataclass(frozen=True)
class GemmSpec:
    """Shape and bitwidths of one bit-GEMM product.

    ``role`` tags the product's place in a forward pass (``"aggregate"``
    for the adjacency GEMM, ``"update"`` for the weight GEMM, ``"gemm"``
    for standalone products); it carries no execution semantics.
    """

    m: int
    k: int
    n: int
    bits_a: int
    bits_b: int
    role: str = "gemm"

    def __post_init__(self) -> None:
        if min(self.m, self.k, self.n) < 0:
            raise ShapeError(
                f"GEMM dims must be non-negative, got {(self.m, self.k, self.n)}"
            )
        for name in ("bits_a", "bits_b"):
            bits = getattr(self, name)
            if not 1 <= bits <= 32:
                raise BitwidthError(f"{name} must be in [1, 32], got {bits}")

    @property
    def pairs(self) -> int:
        """Plane pairs of the product (one 1-bit GEMM each)."""
        return self.bits_a * self.bits_b

    def tile_grid(self) -> tuple[int, int, int]:
        """``(mt, kt, nt)`` m8n8k128 tile counts after PAD8/PAD128 padding."""
        return (_tiles(self.m, TC_M), _tiles(self.k, TC_K), _tiles(self.n, TC_M))


@dataclass(frozen=True)
class QuantizeStep:
    """Quantize a real-valued operand at a named calibration site."""

    #: Site identity (e.g. ``"L0/agg"``) — the key under which a shared
    #: :class:`~repro.gnn.quantized.ActivationCalibration` freezes params.
    site: str
    bits: int


@dataclass(frozen=True)
class PackStep:
    """Bit-decompose + pack one operand.

    ``cache_key`` names the :class:`~repro.plan.cache.PlanCache` entry the
    packed artifact hangs off (``None`` marks a transient operand that is
    re-packed every execution, e.g. the per-request activations).
    """

    layout: str
    bits: int
    cache_key: PlanKey | None = None


@dataclass(frozen=True)
class CensusStep:
    """Zero-tile census of the packed left operand (paper §4.3).

    The resulting :class:`~repro.tc.kernel.TileSkipPlan` feeds the
    kernel's measured skip counters; it is cached under the same key as
    the packed operand it describes.
    """

    cache_key: PlanKey | None = None


@dataclass(frozen=True)
class GemmStep:
    """One product: operand preparation nodes + the resolved backend."""

    spec: GemmSpec
    #: Registered backend name chosen at compile time (a frozen dispatch
    #: decision when compiled through the static rule).
    backend: str
    pack_a: PackStep
    pack_b: PackStep
    quantize_a: QuantizeStep | None = None
    quantize_b: QuantizeStep | None = None
    census: CensusStep | None = None

    @cached_property
    def derived(self) -> dict:
        """Memo of what every launch of this step would re-derive from the
        step alone: its bindings per registry (resolved backend, exact GEMM
        dtype, label) and the kernel counters of its launches, by live-tile
        count.  Not a field, so outside the plan's
        ``repr``, hash and equality; it dies with the last step holding it
        (the steps :meth:`ExecutionPlan.retarget_adjacency` binds share it)."""
        return {}

    def __getstate__(self) -> dict:
        # The memo binds live registry objects: a pickled step re-derives it.
        return {k: v for k, v in self.__dict__.items() if k != "derived"}


@dataclass(frozen=True)
class LayerPlan:
    """The two products of one GNN layer."""

    index: int
    aggregate: GemmStep
    update: GemmStep
    is_output: bool

    def steps(self, aggregate_first: bool) -> tuple[GemmStep, GemmStep]:
        """The layer's GEMM steps in execution order."""
        if aggregate_first:
            return (self.aggregate, self.update)
        return (self.update, self.aggregate)


@dataclass(frozen=True)
class PlanSignature:
    """What an input must match for a compiled plan to be replayable on it."""

    num_nodes: int
    feature_dim: int
    feature_bits: int
    num_layers: int
    aggregate_first: bool


@dataclass(frozen=True)
class ExecutionPlan:
    """A compiled forward pass: one :class:`LayerPlan` per model layer."""

    signature: PlanSignature
    layers: tuple[LayerPlan, ...]

    def __post_init__(self) -> None:
        if len(self.layers) != self.signature.num_layers:
            raise ConfigError(
                f"plan has {len(self.layers)} layer plans but its signature "
                f"declares {self.signature.num_layers} layers"
            )

    @cached_property
    def digest(self) -> str:
        """Content digest, sealed on first read: the blake2b of the
        template's sealed part (:attr:`sealed`) and the ``repr`` of the
        adjacency keys, what a verified cache segment records and compares
        (:func:`~repro.plan.cache.artifact_digest`).  Not a field — outside
        ``repr``, hash and equality, and a ``replace``d copy seals its own."""
        keys: dict = {}  # each distinct key once, each aggregate step's pair by position
        at = tuple((keys.setdefault(s.pack_a.cache_key, len(keys)),
                    keys.setdefault(s.census and s.census.cache_key, len(keys)))
                   for s in (layer.aggregate for layer in self.layers))
        return _blake2b(self.sealed + repr((tuple(keys), at)))

    @cached_property
    def sealed(self) -> str:
        """The digest of the plan's ``repr`` with its adjacency keys
        stripped (:meth:`retarget_adjacency` to ``None``): equal for every
        plan bound from one template, which hands it on once sealed."""
        return _blake2b(repr(self.retarget_adjacency(None)))

    @property
    def num_layers(self) -> int:
        """Model layers this plan describes."""
        return len(self.layers)

    def gemm_steps(self) -> Iterator[GemmStep]:
        """Every GEMM step in execution order."""
        for layer in self.layers:
            yield from layer.steps(self.signature.aggregate_first)

    def backends(self) -> tuple[str, ...]:
        """Distinct backend names the plan dispatches to (sorted)."""
        return tuple(sorted({step.backend for step in self.gemm_steps()}))

    def adjacency_keys(self) -> tuple[PlanKey, ...]:
        """Distinct cache keys the aggregate steps read the adjacency from."""
        keys: list[PlanKey] = []
        for layer in self.layers:
            key = layer.aggregate.pack_a.cache_key
            if key is not None and key not in keys:
                keys.append(key)
        return tuple(keys)

    def retarget_adjacency(self, adjacency_key: PlanKey | None) -> "ExecutionPlan":
        """The plan reading its adjacency from another cache key: what
        binds a template to a structure (a structure changes no GEMM shape,
        quantize site or backend).  The adjacency-dependent nodes are made
        once, here — a ``pack_a`` and a ``census`` node every aggregate step
        shares — and built into new steps, which share their source's
        :attr:`GemmStep.derived` memo; everything else, the sealed part of
        the digest (:attr:`sealed`) included, is reused by reference — a
        fresh :func:`compile_forward_plan` under the key is equal to it."""
        pack_a, census, layers = None, CensusStep(adjacency_key), []
        for layer in self.layers:
            step = layer.aggregate
            if pack_a is None or (pack_a.layout, pack_a.bits) != (step.pack_a.layout, step.pack_a.bits):
                pack_a = PackStep(step.pack_a.layout, step.pack_a.bits, adjacency_key)
            patched = GemmStep(step.spec, step.backend, pack_a, step.pack_b, step.quantize_a,
                               step.quantize_b, step.census and census)
            vars(patched)["derived"] = step.derived
            layers.append(LayerPlan(layer.index, patched, layer.update, layer.is_output))
        plan = ExecutionPlan(self.signature, tuple(layers))
        if "sealed" in vars(self):
            vars(plan)["sealed"] = self.sealed
        return plan


# --------------------------------------------------------------------- #
# Compilation
# --------------------------------------------------------------------- #
def compile_gemm_step(
    spec: GemmSpec,
    *,
    engine: object = "auto",
    registry: BackendRegistry | None = None,
    pack_a_key: PlanKey | None = None,
    pack_b_key: PlanKey | None = None,
    census: bool = False,
    census_key: PlanKey | None = None,
    site_a: str | None = None,
    site_b: str | None = None,
) -> GemmStep:
    """Resolve one product's backend and assemble its step nodes.

    ``site_a``/``site_b`` attach quantize nodes to operands that arrive
    real-valued; an exact operand (e.g. the 0/1 adjacency) has none.
    ``census=True`` attaches a zero-tile census node (1-bit left operands
    only); ``census_key`` optionally names its cached artifact.
    """
    if (census or census_key is not None) and spec.bits_a != 1:
        raise ConfigError(
            f"a census step requires a 1-bit left operand, got {spec.bits_a}-bit"
        )
    backend = resolve_engine_name(engine, spec, registry)
    return GemmStep(
        spec=spec,
        backend=backend,
        pack_a=PackStep(layout="col", bits=spec.bits_a, cache_key=pack_a_key),
        pack_b=PackStep(layout="row", bits=spec.bits_b, cache_key=pack_b_key),
        quantize_a=QuantizeStep(site_a, spec.bits_a) if site_a else None,
        quantize_b=QuantizeStep(site_b, spec.bits_b) if site_b else None,
        census=CensusStep(census_key) if census or census_key is not None else None,
    )


def forward_gemm_specs(
    model: "GNNModel",
    *,
    num_nodes: int,
    feature_bits: int,
    weight_bits: int | None = None,
    weight_bits_per_layer: Sequence[int] | None = None,
) -> list[tuple[GemmSpec, GemmSpec]]:
    """One ``(aggregate, update)`` spec pair per model layer.

    The single source of truth for the shapes, bitwidths and ordering of a
    forward pass's GEMMs: the plan compiler builds execution steps from it
    and :func:`repro.runtime.executor.modeled_plan_report` derives its
    modeled counters from it, so modeled and measured accounting can never
    drift apart.

    Aggregation operates on the layer's input features for aggregate-first
    models (GCN) and on its output features for update-first models (GIN).
    """
    if not 1 <= feature_bits <= 32:
        raise BitwidthError(f"feature bits must be in [1, 32], got {feature_bits}")
    if num_nodes < 0:
        raise ShapeError(f"num_nodes must be non-negative, got {num_nodes}")
    layer_specs = model.layer_specs()
    if weight_bits_per_layer is not None:
        if len(weight_bits_per_layer) != len(layer_specs):
            raise ConfigError(
                f"expected {len(layer_specs)} per-layer weight bitwidths, "
                f"got {len(weight_bits_per_layer)}"
            )
        per_layer = list(weight_bits_per_layer)
    else:
        per_layer = [weight_bits if weight_bits is not None else feature_bits] * len(
            layer_specs
        )
    specs: list[tuple[GemmSpec, GemmSpec]] = []
    for layer, wb in zip(layer_specs, per_layer):
        agg_dim = layer.in_dim if model.aggregate_first else layer.out_dim
        specs.append((
            GemmSpec(m=num_nodes, k=num_nodes, n=agg_dim, bits_a=1, bits_b=feature_bits, role="aggregate"),
            GemmSpec(m=num_nodes, k=layer.in_dim, n=layer.out_dim, bits_a=feature_bits, bits_b=wb,
                     role="update"),
        ))
    return specs


def _default_weight_key(layer: int, bits: int) -> PlanKey:
    return ("weight", layer, bits)


def compile_forward_plan(
    model: "GNNModel",
    *,
    num_nodes: int,
    feature_bits: int = 4,
    weight_bits: int | None = None,
    weight_bits_per_layer: Sequence[int] | None = None,
    engine: object = static_backend,
    registry: BackendRegistry | None = None,
    weight_key: Callable[[int, int], PlanKey | None] | None = None,
    adjacency_key: PlanKey | None = None,
) -> ExecutionPlan:
    """Compile a model + batch shape into a replayable :class:`ExecutionPlan`.

    Every GEMM's backend is resolved here — through the registry for
    literal names, through the selector for callables (by default
    :func:`~repro.plan.registry.static_backend`, a session's rule) — so a
    decision is taken once per compiled plan and replayed.
    ``weight_key``/``adjacency_key`` name the cache entries the packed
    operands hang off (a serving session supplies its content-derived
    keys; the defaults produce layer/bitwidth keys for the weights and a
    transient adjacency).
    """
    key_for_weight = weight_key or _default_weight_key
    pairs = forward_gemm_specs(model, num_nodes=num_nodes, feature_bits=feature_bits,
                               weight_bits=weight_bits, weight_bits_per_layer=weight_bits_per_layer)
    layers = []
    for i, (agg_spec, upd_spec) in enumerate(pairs):
        aggregate = compile_gemm_step(agg_spec, engine=engine, registry=registry, pack_a_key=adjacency_key,
                                      census=True, census_key=adjacency_key, site_b=f"L{i}/agg")
        update = compile_gemm_step(upd_spec, engine=engine, registry=registry,
                                   pack_b_key=key_for_weight(i, upd_spec.bits_b), site_a=f"L{i}/upd")
        layers.append(LayerPlan(i, aggregate, update, is_output=i == len(pairs) - 1))
    return ExecutionPlan(
        signature=PlanSignature(
            num_nodes=num_nodes,
            feature_dim=model.feature_dim,
            feature_bits=feature_bits,
            num_layers=len(layers),
            aggregate_first=model.aggregate_first,
        ),
        layers=tuple(layers),
    )

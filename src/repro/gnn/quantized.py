"""Functional quantized GNN forward pass on the emulated Tensor Core.

Runs a :class:`~repro.gnn.models.GNNModel` over a subgraph batch with every
matrix product launched through :class:`~repro.tc.kernel.BitGemmKernel` —
the exact integer product the CUDA kernels compute, on whichever host
backend the plan chose, with the modeled Tensor-Core counters derived
beside it — while carrying affine dequantization corrections so the
result is a genuine approximation of the fp32 reference (error shrinks as
bitwidth grows; the test-suite asserts this convergence).

Affine algebra: a quantized tensor represents ``real ≈ scale * q + c`` with
``c = alpha_min + scale / 2`` (mid-bucket).  For a product of two such
tensors,

.. math::

   A B ≈ s_a s_b\\, (q_a q_b) + s_a c_b\\, r_a 1^T + c_a s_b\\, 1 g_b^T
         + K c_a c_b

where ``r_a`` is the row-sum vector of ``q_a`` and ``g_b`` the column-sum
of ``q_b`` — rank-1 epilogue terms the fused kernel absorbs (paper §4.5),
and so does the host: a step quantizes straight into its GEMM's dtype,
takes the product in it and adds the terms in place, one float64 buffer
from activation to activation, no full-precision round trip in between.
Only the ``q_a q_b`` term touches the Tensor Core.

Serving hooks
-------------
Two ingredients of the forward pass are invariant across requests and are
exposed so a session (:mod:`repro.serving`) can build them once and reuse
them:

* :class:`PackedLayerWeight` — a layer's weight matrix quantized,
  bit-packed row-wise, with its affine column-sum epilogue precomputed.
  :func:`pack_layer_weight` builds one; ``packed_weights=`` feeds them in.
* :class:`ActivationCalibration` — per-site activation quantization
  parameters frozen on first touch.  With a shared calibration, a batched
  forward and the equivalent per-request forwards produce *bit-identical*
  logits (the block-diagonal adjacency keeps members independent, so the
  only coupling is through calibration — which freezing removes).
* :class:`PackedAdjacency` — a batch's adjacency 1-bit packed,
  tile-censused (:class:`~repro.tc.kernel.TileSkipPlan`) and degree-summed
  once.  :func:`pack_batch_adjacency` builds one; ``packed_adjacency=``
  feeds it in so a serving session that sees the same batch twice packs and
  ballots the operand once.

When none is supplied the behavior is the original one-shot path: weights
and the adjacency are re-packed per call and activations calibrate per
tensor.

Plan/execute split
------------------
The forward pass is structured as *compile once, replay many*: a
:class:`~repro.plan.ir.ExecutionPlan` (built by
:func:`repro.plan.ir.compile_forward_plan`) records each layer's GEMM
shapes, bitwidths, quantize sites, pack/census cache keys and the backend
resolved for every product; :func:`execute_forward_plan` replays a plan on
a batch, resolving request-invariant artifacts (packed weights, the packed
adjacency) through a :class:`~repro.plan.cache.PlanCache` when one is
supplied.  :func:`quantized_forward` is the eager compatibility shim —
compile + execute in one call — and its ``packed_weights=`` /
``packed_adjacency=`` arguments simply seed the corresponding plan-node
artifacts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
import scipy.sparse as sp

from ..core.bitgemm import Engine, exact_gemm_dtype
from ..core.bitpack import Operand, PackedBits, pack_matrix
from ..core.quantization import QuantParams, calibrate, quantize, quantize_into
from ..errors import BitwidthError, ConfigError, ShapeError
from ..graph.batching import SubgraphBatch
from ..plan.ir import ExecutionPlan, GemmSpec, GemmStep, QuantizeStep, compile_forward_plan
from ..plan.registry import default_registry, resolve_engine_name
from ..tc.counters import KernelCounters
from ..tc.kernel import BitGemmKernel, KernelConfig, TileSkipPlan, plan_tile_skip
from .activations import softmax
from .models import GNNModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..plan.cache import PlanCache

__all__ = [
    "ActivationCalibration",
    "PackedAdjacency",
    "PackedLayerWeight",
    "PhaseTiming",
    "QuantizedForwardResult",
    "StepTiming",
    "execute_forward_plan",
    "pack_batch_adjacency",
    "pack_layer_weight",
    "quantize_model_weights",
    "quantized_forward",
]


class PhaseTiming(NamedTuple):
    """Measured wall-clock of one execution phase of a forward pass.

    Where :class:`StepTiming` covers only the backend-dependent kernel
    dispatch (the autotuning sample), phase timings cover *everything* a
    forward pass spends time on — materializing features, quantizing,
    packing, censusing, the GEMM itself, affine epilogues and
    activations — so :mod:`repro.perf` can attribute (nearly) all of a
    session's measured wall-clock to named plan-step phases.  ``gemm``
    phases reuse the exact elapsed value of the corresponding
    :class:`StepTiming`, so backend attribution and phase attribution
    never disagree about the kernel seconds.  (The one exception: when a
    step recovered on a fallback backend, the ``gemm`` phase covers the
    whole attempt window while the :class:`StepTiming` sample covers only
    the winning attempt — failed attempts must not bias the winner's
    autotune cell.)
    """

    #: Phase name: ``materialize``, ``quantize``, ``pack``, ``census``,
    #: ``gemm``, ``epilogue`` or ``activation``.
    phase: str
    #: The step role the phase belongs to (``aggregate``/``update``), or
    #: ``forward`` for per-pass phases like materialization.
    role: str
    #: Model layer index, or ``-1`` for phases outside any layer.
    layer: int
    seconds: float


class StepTiming(NamedTuple):
    """Measured wall-clock of one executed plan step's bit-GEMM.

    The timing window covers exactly the backend-dependent work (the
    kernel dispatch, on operands already packed where the backend reads
    words), which makes each executed step a valid autotuning sample: the
    serving engine feeds these into the dispatcher's
    :class:`~repro.plan.autotune.DispatchTable`, so every warm replay
    sharpens future dispatch decisions for free.
    """

    spec: GemmSpec
    backend: str
    seconds: float


@dataclass(frozen=True)
class QuantizedForwardResult:
    """Logits plus the kernel events the batch generated."""

    logits: np.ndarray
    counters: list[KernelCounters]
    #: One measured per-GEMM timing per executed plan step, in execution
    #: order (parallel to ``counters``).  When a step recovered on a
    #: fallback backend, ``backend`` names the backend that actually
    #: executed, not the one the plan chose.
    timings: tuple[StepTiming, ...] = ()
    #: Full phase attribution of the pass's wall-clock (quantize / pack /
    #: census / gemm / epilogue / ... — see :class:`PhaseTiming`); empty
    #: for paths that do not collect phases.
    phases: tuple[PhaseTiming, ...] = ()
    #: One ``(step role, failed backend, executed backend)`` triple per
    #: failed GEMM attempt that a fallback recovered (see
    #: ``repro.serving.supervision``); empty on a fault-free pass.
    recoveries: tuple[tuple[str, str, str], ...] = ()

    @property
    def total_counters(self) -> KernelCounters:
        total = KernelCounters()
        for c in self.counters:
            total.merge(c)
        return total


def _mid_offset(params: QuantParams) -> float:
    """Constant ``c`` of the affine code model ``real ≈ scale*q + c``."""
    return params.alpha_min + params.scale / 2.0


@dataclass(frozen=True)
class PackedLayerWeight:
    """One layer's weights, quantized and bit-packed once per session.

    The paper pre-computes and caches the weight bit-decomposition because
    the same ``W`` serves every subgraph at a layer (§3.2 last paragraph).
    Bundles everything the update GEMM needs from the right operand:

    Attributes
    ----------
    packed:
        Row-wise compressed bit planes of the quantized codes — the
        kernel's right operand, built once instead of per request.
    params:
        Affine parameters of the weight quantization.
    col_sums:
        ``(1, out_dim)`` column sums of the integer codes — the rank-1
        affine epilogue term, also request-invariant.
    """

    packed: PackedBits
    params: QuantParams
    col_sums: np.ndarray

    @cached_property
    def operand(self) -> Operand:
        """The update GEMM's right operand, memoised with the forms it has
        derived: the weights unpack once per session, not per replay."""
        return Operand(packed=self.packed)

    @property
    def bits(self) -> int:
        return self.params.bits

    @property
    def nbytes(self) -> int:
        """Packed plane storage (what a serving cache budgets)."""
        return self.packed.nbytes + self.col_sums.nbytes


def pack_layer_weight(weight: np.ndarray, bits: int) -> PackedLayerWeight:
    """Quantize and row-pack one weight matrix for reuse across requests."""
    if not 1 <= bits <= 32:
        raise BitwidthError(f"weight bits must be in [1, 32], got {bits}")
    qw, pw = quantize(weight, bits=bits)
    return PackedLayerWeight(
        packed=pack_matrix(qw, bits, layout="row"),
        params=pw,
        col_sums=qw.sum(axis=0, dtype=np.float64)[None, :],
    )


@dataclass(frozen=True)
class PackedAdjacency:
    """A batch's aggregation operand, built once and reusable across layers
    and (via a serving cache) across repeat executions of the same batch.

    Bundles everything the aggregation GEMM needs from the left operand:

    Attributes
    ----------
    operand:
        The 1-bit column-compressed adjacency (self loops included) — the
        kernel's left operand, in the form its producer held: a canonical
        CSR of ones (:func:`pack_batch_adjacency`; the §4.2 words are
        packed when something first reads :attr:`packed`) or the words (a
        dynamic-graph snapshot; a GEMM on codes decodes them).  Memoises
        what it derives for as long as the artifact is cached.
    plan:
        Non-zero tile census of the packed planes (§4.3).  Feeds the
        kernel's measured skip counters and ``codegen``'s skip kernels.
    degrees:
        ``(n, 1)`` float64 row sums (with self loops) — the rank-1 affine
        epilogue of the aggregation product.
    """

    operand: Operand
    plan: TileSkipPlan
    degrees: np.ndarray

    @property
    def packed(self) -> PackedBits:
        """The bit-compressed planes (packed on first read)."""
        return self.operand.packed

    @property
    def csr(self) -> sp.csr_matrix | None:
        """The producer's canonical CSR of ones, if it held one."""
        return self.operand.csr

    @property
    def num_nodes(self) -> int:
        return self.operand.logical_vectors

    @property
    def nonzero_fraction(self) -> float:
        """Fraction of 8x128 tiles a jumping execution processes."""
        return self.plan.nonzero_fraction

    @property
    def nbytes(self) -> int:
        """Packed + CSR storage a serving cache budgets for this entry —
        the words by their geometry, packed yet or not, so an entry weighs
        the same when it is evicted as when it was inserted."""
        csr = self.operand.csr
        held = [self.degrees, *self.plan.masks]
        if csr is not None:
            held += [csr.data, csr.indices, csr.indptr]
        return self.operand.packed_nbytes + sum(a.nbytes for a in held)


def pack_batch_adjacency(batch: SubgraphBatch) -> PackedAdjacency:
    """Census one batch's adjacency (with self loops) — the per-batch
    analogue of :func:`pack_layer_weight`.

    The members' CSRs concatenate into one canonical CSR of ones
    (:meth:`SubgraphBatch.adjacency_csr`; a stored self loop plus the
    added diagonal is one set bit), and the census and the degrees — the
    distinct set bits of each row, which is what a dense row sum would
    count — are read off it.  The bit-compressed words wait for their
    first reader: a round on codes never allocates the ``n x n / 32`` plane.
    """
    operand = Operand(csr=batch.adjacency_csr())
    return PackedAdjacency(
        operand=operand,
        plan=plan_tile_skip(operand),
        degrees=np.diff(operand.csr.indptr).astype(np.float64)[:, None],
    )


class ActivationCalibration:
    """Activation quantization parameters, frozen per site on first touch.

    A *site* identifies one quantize call in the forward pass (e.g.
    ``"L0/agg"`` — layer 0's aggregation input).  The first tensor seen at a
    site calibrates its :class:`~repro.core.quantization.QuantParams`; every
    later tensor reuses them, i.e. static post-calibration quantization.
    Sessions share one instance so results are reproducible across batch
    shapes.
    """

    def __init__(self) -> None:
        self._sites: dict[tuple[str, int], QuantParams] = {}

    def __len__(self) -> int:
        return len(self._sites)

    @property
    def sites(self) -> dict[tuple[str, int], QuantParams]:
        """Read-only view of the calibrated ``(site, bits) -> params`` map."""
        return dict(self._sites)

    def params_for(self, site: str, values: np.ndarray, bits: int) -> QuantParams:
        """This site's parameters, calibrated from ``values`` on first touch."""
        key = (site, bits)
        params = self._sites.get(key)
        if params is None:
            params = self._sites[key] = calibrate(values, bits)
        return params

    def quantize(
        self, site: str, values: np.ndarray, bits: int
    ) -> tuple[np.ndarray, QuantParams]:
        """Quantize ``values`` with this site's frozen parameters."""
        return quantize(values, self.params_for(site, values, bits))


def quantize_model_weights(
    model: GNNModel, bits: int
) -> list[tuple[np.ndarray, QuantParams]]:
    """Quantize every layer's weights once (cached across subgraphs).

    The raw ``(codes, params)`` form; :func:`pack_layer_weight` is the
    packed form a serving session caches.
    """
    if not 1 <= bits <= 32:
        raise BitwidthError(f"weight bits must be in [1, 32], got {bits}")
    return [quantize(w, bits=bits) for w in model.weights]


def _row_sums(codes: np.ndarray) -> np.ndarray:
    """``(n, 1)`` float64 row sums of integer codes: one GEMV against ones in
    their own dtype, exact as their product is (a row sums to at most
    ``k * (2**bits - 1)``)."""
    return (codes @ np.ones(codes.shape[1], codes.dtype)).astype(np.float64)[:, None]


def _bind(step: GemmStep, layer: int, registry) -> tuple:
    """``(backend, dtype, label)`` — what every launch of ``step`` would
    re-derive from its spec and the registry: the resolved backend (resolved,
    not just looked up — a plan replayed against a registry that lacks its
    backend fails as every ``engine=`` name does), the dtype its GEMM is
    exact in and its ``role/Ln`` label, derived once per registry state
    into :attr:`GemmStep.derived <repro.plan.ir.GemmStep.derived>`."""
    key = (registry, registry.generation)
    bound = step.derived.get(key)
    if bound is None:
        spec = step.spec
        bound = step.derived[key] = (
            registry.get(resolve_engine_name(step.backend, spec, registry)),
            exact_gemm_dtype(spec.k, spec.bits_a, spec.bits_b),
            f"{spec.role}/L{layer}",
        )
    return bound


def execute_forward_plan(
    plan: ExecutionPlan,
    model: GNNModel,
    batch: SubgraphBatch,
    *,
    packed_weights: list[PackedLayerWeight] | None = None,
    packed_adjacency: PackedAdjacency | None = None,
    artifacts: "PlanCache | None" = None,
    calibration: ActivationCalibration | None = None,
    kernel_config: KernelConfig | None = None,
    apply_softmax: bool = False,
    registry=None,
    recovery=None,
) -> QuantizedForwardResult:
    """Replay a compiled :class:`~repro.plan.ir.ExecutionPlan` on one batch.

    ``registry`` resolves the plan's backend names against a non-default
    :class:`~repro.plan.registry.BackendRegistry` — pass the same registry
    the plan was compiled with.

    ``recovery`` (a ``repro.serving.supervision.StepRecovery``-shaped
    object, duck-typed to keep this module serving-agnostic) retries a
    GEMM step whose backend raised a retryable error on that backend's
    fallback chain; every engine is bit-identical to the oracle, so a
    recovered step changes cost, never logits.  Recovered steps are
    reported in :attr:`QuantizedForwardResult.recoveries`.

    Request-invariant operands hang off the plan's pack/census nodes: when
    an ``artifacts`` cache is supplied, each node's artifact (a
    :class:`PackedLayerWeight` per update step, one :class:`PackedAdjacency`
    for the aggregation steps) is resolved through it under the node's
    content key — so a serving session's replayed rounds are pure cache
    traffic.  Explicit ``packed_weights``/``packed_adjacency`` seed the
    artifacts directly (the eager shim's path); with neither, operands are
    rebuilt transiently, reproducing the original one-shot behavior.

    A plan compiled for a different shape refuses to run
    (:class:`~repro.errors.ShapeError`): a stale plan is an error, never a
    silent wrong answer.
    """
    sig = plan.signature
    if len(plan.layers) != model.num_layers:
        raise ConfigError(
            f"plan has {len(plan.layers)} layers, model has {model.num_layers}"
        )
    if batch.num_nodes != sig.num_nodes:
        raise ShapeError(
            f"plan compiled for {sig.num_nodes} nodes cannot execute a "
            f"{batch.num_nodes}-node batch; compile a fresh plan"
        )
    kernel = BitGemmKernel(kernel_config or KernelConfig())
    counters: list[KernelCounters] = []
    timings: list[StepTiming] = []
    phases: list[PhaseTiming] = []
    recoveries: list[tuple[str, str, str]] = []

    def resolve(key, builder):
        if artifacts is not None and key is not None:
            return artifacts.get_or_build(key, builder)
        return builder()

    if packed_adjacency is None:
        packed_adjacency = resolve(
            plan.layers[0].aggregate.pack_a.cache_key,
            lambda: pack_batch_adjacency(batch),
        )
    if packed_adjacency.num_nodes != batch.num_nodes:
        raise ShapeError(
            f"packed adjacency covers {packed_adjacency.num_nodes} nodes, "
            f"batch has {batch.num_nodes}"
        )

    if packed_weights is None:
        packed_weights = [
            resolve(
                layer.update.pack_b.cache_key,
                lambda w=model.weights[layer.index], bits=layer.update.spec.bits_b: (
                    pack_layer_weight(w, bits)
                ),
            )
            for layer in plan.layers
        ]
    elif len(packed_weights) != model.num_layers:
        raise ConfigError(
            f"expected {model.num_layers} packed weights, got {len(packed_weights)}"
        )

    adj_operand = packed_adjacency.operand
    adj_plan = packed_adjacency.plan
    degrees = packed_adjacency.degrees
    backends = default_registry() if registry is None else registry

    start = time.perf_counter()
    h = batch.features(np.float64)
    phases.append(
        PhaseTiming("materialize", "forward", -1, time.perf_counter() - start)
    )
    if h.shape[1] != sig.feature_dim:
        raise ShapeError(
            f"plan compiled for feature_dim={sig.feature_dim} cannot execute "
            f"a batch with {h.shape[1]} features; compile a fresh plan"
        )

    def quantize_at(
        step: QuantizeStep, x_real: np.ndarray, dtype: np.dtype
    ) -> tuple[np.ndarray, QuantParams]:
        """``x_real``'s codes in ``dtype``, the one its GEMM is exact in, their
        range proven on the way (nothing reads them again to check it)."""
        if calibration is None:
            params = calibrate(x_real, step.bits)
        else:
            params = calibration.params_for(step.site, x_real, step.bits)
        return quantize_into(x_real, params, dtype), params

    def product(
        step: GemmStep,
        bound: tuple,
        layer: int,
        left: Operand,
        right: Operand,
        skip_plan: TileSkipPlan | None = None,
    ) -> np.ndarray:
        """One step's pack, census and gemm phases around its kernel launch
        on ``left @ right``.  Activations (a cached side already holds its
        words) are bit-packed ahead of the GEMM window only when the step's
        backend reads words; a 1-bit left operand under zero-tile jumping
        is balloted from the form it holds — that census feeds the modeled
        skip counters whichever backend runs."""
        role = step.spec.role
        start = time.perf_counter()
        primary, _, label = bound
        if primary.caps.consumes_words:
            left.pack()
            right.pack()
        packed_at = time.perf_counter()
        # Ballot a 1-bit left operand *outside* the timing window (mirroring
        # kernel.run's internal census) so the StepTiming sample covers the
        # census-amortized work a replay does — mixing
        # census-inclusive and census-exclusive samples in one table cell
        # would bias its median against whichever backend actually executed.
        if skip_plan is None and left.bits == 1 and kernel.config.zero_tile_jumping:
            skip_plan = plan_tile_skip(left)
        census_at = time.perf_counter()
        win: dict[str, float] = {}

        def attempt(name: str):
            began = time.perf_counter()
            backend = primary
            if name != step.backend:  # a recovery's fallback: resolved per use
                backend = backends.get(resolve_engine_name(name, step.spec, backends))
            out = kernel.launch(backend, left, right, skip_plan, step.derived)
            win["s"] = time.perf_counter() - began
            return out

        if recovery is None:
            res, executed, failed = attempt(step.backend), step.backend, ()
        else:
            res, executed, failed = recovery.run(attempt, step.backend, detail=label)
        gemm_s = time.perf_counter() - census_at
        # Fault-free steps reuse the phase window exactly (backend and
        # phase attribution must agree); recovered steps report only the
        # winning attempt so failures never bias the autotune sample.
        timings.append(StepTiming(step.spec, executed, win["s"] if failed else gemm_s))
        recoveries.extend((label, name, executed) for name in failed)
        counters.append(res.counters)
        phases.append(PhaseTiming("pack", role, layer, packed_at - start))
        phases.append(PhaseTiming("census", role, layer, census_at - packed_at))
        phases.append(PhaseTiming("gemm", role, layer, gemm_s))
        return res.output

    def aggregate(x_real: np.ndarray, step: GemmStep, layer: int) -> np.ndarray:
        """``Â @ x`` with the adjacency exact (1-bit) and x quantized."""
        bound = _bind(step, layer, backends)
        start = time.perf_counter()
        qx, px = quantize_at(step.quantize_b, x_real, bound[1])
        right = Operand(qx, px.bits, "row", proven=True)
        phases.append(
            PhaseTiming("quantize", "aggregate", layer, time.perf_counter() - start)
        )
        out = product(step, bound, layer, adj_operand, right, adj_plan)
        # Â is exact binary: real = s_x * (Â q_x) + c_x * degree.  (``dtype=``
        # matters: NumPy 2 keeps a Python float times a float32 in float32.)
        start = time.perf_counter()
        out = np.multiply(out, px.scale, dtype=np.float64)
        out += _mid_offset(px) * degrees
        phases.append(
            PhaseTiming("epilogue", "aggregate", layer, time.perf_counter() - start)
        )
        return out

    def update(x_real: np.ndarray, step: GemmStep, layer: int) -> np.ndarray:
        """``x @ W + b`` with both operands quantized, affine-corrected."""
        weight = packed_weights[layer]
        bound = _bind(step, layer, backends)
        start = time.perf_counter()
        qx, px = quantize_at(step.quantize_a, x_real, bound[1])
        left = Operand(qx, px.bits, "col", proven=True)
        phases.append(
            PhaseTiming("quantize", "update", layer, time.perf_counter() - start)
        )
        out = product(step, bound, layer, left, weight.operand)
        # The terms join in place, one at a time and left to right: float
        # addition is not associative, and pre-combining any two of them
        # would change the last bit of a logit.
        start = time.perf_counter()
        s_l, c_l = px.scale, _mid_offset(px)
        s_r, c_r = weight.params.scale, _mid_offset(weight.params)
        out = np.multiply(out, s_l * s_r, dtype=np.float64)
        out += s_l * c_r * _row_sums(qx)
        out += c_l * s_r * weight.col_sums
        out += left.logical_k * c_l * c_r
        out += model.biases[layer]
        phases.append(
            PhaseTiming("epilogue", "update", layer, time.perf_counter() - start)
        )
        return out

    for layer in plan.layers:
        if sig.aggregate_first:
            h = update(
                aggregate(h, layer.aggregate, layer.index),
                layer.update,
                layer.index,
            )
        else:
            h = aggregate(
                update(h, layer.update, layer.index),
                layer.aggregate,
                layer.index,
            )
        if not layer.is_output:
            start = time.perf_counter()
            np.maximum(h, 0.0, out=h)
            phases.append(
                PhaseTiming(
                    "activation", "forward", layer.index,
                    time.perf_counter() - start,
                )
            )

    start = time.perf_counter()
    logits = softmax(h) if apply_softmax else h
    if apply_softmax:
        phases.append(
            PhaseTiming("activation", "forward", -1, time.perf_counter() - start)
        )
    return QuantizedForwardResult(
        logits=logits, counters=counters, timings=tuple(timings),
        phases=tuple(phases), recoveries=tuple(recoveries),
    )


def quantized_forward(
    model: GNNModel,
    batch: SubgraphBatch,
    *,
    feature_bits: int = 4,
    weight_bits: int | None = None,
    kernel_config: KernelConfig | None = None,
    apply_softmax: bool = False,
    packed_weights: list[PackedLayerWeight] | None = None,
    packed_adjacency: PackedAdjacency | None = None,
    calibration: ActivationCalibration | None = None,
    engine: Engine = "auto",
    plan: ExecutionPlan | None = None,
    artifacts: "PlanCache | None" = None,
    registry=None,
) -> QuantizedForwardResult:
    """Run a quantized forward pass over one subgraph batch.

    The eager entry point: compiles an :class:`~repro.plan.ir.ExecutionPlan`
    for the batch's shape (unless a pre-compiled ``plan`` is given) and
    executes it via :func:`execute_forward_plan`.  A serving session skips
    this shim and replays cached plans directly.

    Parameters
    ----------
    feature_bits, weight_bits:
        Activation / weight bitwidths (weights default to the feature
        setting, as in the paper's sweeps).
    kernel_config:
        Zero-tile jumping and reuse switches for the emulated kernel.
    packed_weights:
        Pre-packed per-layer weights (see :func:`pack_layer_weight`),
        seeded as the plan's per-layer weight artifacts so packing happens
        once, not per request.  ``weight_bits`` is ignored when given.
    packed_adjacency:
        Pre-packed batch adjacency with its tile-skip plan (see
        :func:`pack_batch_adjacency`), seeded as the plan's adjacency
        artifact.  Must describe exactly this ``batch``.
    calibration:
        Shared :class:`ActivationCalibration`; omit for the one-shot
        per-tensor calibration behavior.
    engine:
        Bit-GEMM backend name or per-product selector; resolved through
        the backend registry once per GEMM at plan-compile time.
    plan:
        A pre-compiled plan to replay (skips compilation; must describe
        this batch's shape).
    artifacts:
        Optional :class:`~repro.plan.cache.PlanCache` the plan's operand
        artifacts are resolved through.

    Returns the float logits (full-precision output layer, paper §4.5) and
    the per-kernel event counters.
    """
    if plan is None:
        plan = compile_forward_plan(
            model,
            num_nodes=batch.num_nodes,
            feature_bits=feature_bits,
            weight_bits=weight_bits,
            weight_bits_per_layer=(
                [w.bits for w in packed_weights]
                if packed_weights is not None
                and len(packed_weights) == model.num_layers
                else None
            ),
            engine=engine,
            registry=registry,
        )
    return execute_forward_plan(
        plan,
        model,
        batch,
        packed_weights=packed_weights,
        packed_adjacency=packed_adjacency,
        artifacts=artifacts,
        calibration=calibration,
        kernel_config=kernel_config,
        apply_softmax=apply_softmax,
        registry=registry,
    )

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
from activation to activation, no full-precision round trip in between —
and on a warm round not even that: one native pass
(:mod:`repro.core.native`) turns a product into the next step's codes.
Only the ``q_a q_b`` term touches the Tensor Core.

Serving hooks
-------------
What is invariant across requests is built once and fed back in:
:class:`PackedLayerWeight` (a layer's weights quantized and row-packed,
with their column-sum epilogue; :func:`pack_layer_weight`),
:class:`PackedAdjacency` (a batch's 1-bit adjacency, its
:class:`~repro.tc.kernel.TileSkipPlan` census and degrees;
:func:`pack_batch_adjacency`) and :class:`ActivationCalibration`
(activation parameters frozen per site on first touch — with a shared one,
a batched forward and the per-request forwards give *bit-identical*
logits: the block-diagonal adjacency keeps members independent).  Without
them, weights and adjacency are packed per call and activations calibrate
per tensor.

Compile once, replay many: an :class:`~repro.plan.ir.ExecutionPlan`
(:func:`repro.plan.ir.compile_forward_plan`) records each GEMM's shape,
bitwidths, quantize site, cache keys and backend; :func:`execute_forward_plan`
lowers it against its artifacts into a bound program once and replays that;
:func:`quantized_forward` is the eager shim (compile + execute).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import cached_property, partial
from operator import add, sub
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
import scipy.sparse as sp

from ..core import native
from ..core.bitgemm import Engine, codes_gemm, exact_gemm_dtype
from ..core.bitpack import Operand, PackedBits, pack_matrix
from ..core.quantization import QuantParams, calibrate, quantize, quantize_into
from ..errors import BitwidthError, ConfigError, ShapeError
from ..graph.batching import SubgraphBatch
from ..plan.ir import ExecutionPlan, GemmSpec, GemmStep, compile_forward_plan
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

    Phases cover everything a pass spends time on — materializing
    features, quantizing, packing, censusing, the GEMM, affine epilogues,
    activations — so :mod:`repro.perf` can attribute a session's
    wall-clock to named plan-step phases.  A ``gemm`` phase is its
    :class:`StepTiming`'s window exactly, unless the step recovered on a
    fallback: the phase covers every attempt, the sample only the winner.
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
    """Measured wall-clock of one executed plan step's bit-GEMM — the
    backend-dependent work only, so each executed step is an autotuning
    sample the serving engine feeds its
    :class:`~repro.plan.autotune.DispatchTable`."""

    spec: GemmSpec
    backend: str
    seconds: float


@dataclass(frozen=True)
class QuantizedForwardResult:
    """Logits plus the kernel events the batch generated."""

    logits: np.ndarray
    counters: list[KernelCounters]
    #: One ``(step role, failed backend, executed backend)`` triple per
    #: failed GEMM attempt that a fallback recovered (see
    #: ``repro.serving.supervision``); empty on a fault-free pass.
    recoveries: tuple[tuple[str, str, str], ...] = ()
    #: The bound program that ran, the ``perf_counter`` stamps at its phase
    #: boundaries and ``{step: (executed backend, winning attempt's
    #: seconds)}`` of the steps a fallback recovered.
    program: "_Program | None" = None
    stamps: list[float] | None = None
    recovered: dict | None = None

    @cached_property
    def timings(self) -> tuple[StepTiming, ...]:
        """One :class:`StepTiming` per executed step, in execution order
        (parallel to ``counters``): its ``gemm`` phase window, or — for a
        recovered step, named by the backend that actually executed — the
        winning attempt alone, so failures never bias the autotune cell."""
        stamps, steps = self.stamps, self.program.steps
        timings = [(b.step.spec, b.step.backend, stamps[at + 1] - stamps[at])
                   for b, at in zip(steps, self.program.gemm_at)]
        for i, (executed, seconds) in self.recovered.items():
            timings[i] = (steps[i].step.spec, executed, seconds)
        return tuple(map(_as_step_timing, timings))

    @cached_property
    def phases(self) -> tuple[PhaseTiming, ...]:
        """Full phase attribution of the pass's wall-clock, one
        :class:`PhaseTiming` per interval of the program's layout."""
        seconds = zip(map(sub, self.stamps[1:], self.stamps))
        return tuple(map(_as_phase_timing, map(add, self.program.layout, seconds)))

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
    """One layer's weights, quantized and bit-packed once per session — the
    same ``W`` serves every subgraph at a layer, so the paper caches its bit
    decomposition (§3.2): ``packed``, the row-compressed right operand;
    ``params``, its affine parameters; ``col_sums``, the ``(1, out_dim)``
    column sums of its codes (the rank-1 epilogue term)."""

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
    """A batch's aggregation operand, built once and reused across layers
    and (via a serving cache) across replays of the same batch:
    ``operand``, the 1-bit column-compressed adjacency with self loops in
    the form its producer held — a canonical CSR of ones
    (:func:`pack_batch_adjacency`; the §4.2 words are packed on first read)
    or the words (a dynamic-graph snapshot) — memoising what it derives;
    ``plan``, the §4.3 tile census the measured skip counters and
    ``codegen``'s skip kernels read; ``degrees``, the ``(n, 1)`` float64 row
    sums (the aggregation's rank-1 epilogue)."""

    operand: Operand
    plan: TileSkipPlan
    degrees: np.ndarray

    @cached_property
    def derived(self) -> dict:
        """What is bound to this adjacency (:func:`execute_forward_plan`)."""
        return {}

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
    shapes — concurrently too: the first-touch freeze runs under the
    calibration's own lock, so however many sessions, pools or threads
    share it, each site is calibrated exactly once.  It pickles (without
    the lock) so a process shard can take it along.
    """

    def __init__(self) -> None:
        self._sites: dict[tuple[str, int], QuantParams] = {}
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        return {"_sites": dict(self._sites)}

    def __setstate__(self, state: dict) -> None:
        self.__init__()
        self._sites.update(state["_sites"])

    def __len__(self) -> int:
        return len(self._sites)

    @property
    def sites(self) -> dict[tuple[str, int], QuantParams]:
        """Read-only view of the calibrated ``(site, bits) -> params`` map."""
        return dict(self._sites)

    def params_for(self, site: str, values: np.ndarray, bits: int) -> QuantParams:
        """This site's parameters, calibrated from ``values`` on first touch
        (frozen sites are read without the lock)."""
        key = (site, bits)
        params = self._sites.get(key)
        if params is None:
            with self._lock:
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


def _row_sums(codes: np.ndarray, ones: np.ndarray | None = None) -> np.ndarray:
    """``(n, 1)`` float64 row sums of integer codes: one GEMV against (bound)
    ones in their dtype, exact as their product (a row is ``<= k (2**b - 1)``)."""
    if ones is None:
        ones = np.ones(codes.shape[1], codes.dtype)
    return (codes @ ones).astype(np.float64)[:, None]


def _bind(step: GemmStep, layer: int, registry) -> tuple:
    """``(backend, exact GEMM dtype, "role/Ln" label)`` of ``step``, kept in
    :attr:`GemmStep.derived <repro.plan.ir.GemmStep.derived>` per registry
    state: the backend is resolved, not looked up, so a plan replayed
    against a registry that lacks it fails as every ``engine=`` name does."""
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


class _BoundStep(NamedTuple):
    """One GEMM step lowered against its artifacts: ``fixed`` is the cached
    side (adjacency left, weights right); ``matmul`` the ``blas`` product on
    raw codes with its matrix bound, else ``None``; ``counters`` is ``None``
    when a 1-bit activation under jumping is balloted per round;
    ``epilogue`` the affine terms, by the unbound form's float operations
    in its order: ``(s, c deg)`` or ``(s_l s_r, s_l c_r, ones, c_l s_r
    colsums, k c_l c_r, bias)``."""

    step: GemmStep
    layer: int
    aggregate: bool
    relu: bool
    label: str
    params: QuantParams
    dtype: np.dtype
    backend: object
    fixed: Operand
    matmul: object
    skip_plan: TileSkipPlan | None
    counters: KernelCounters | None
    epilogue: tuple

    def operand(self, codes: np.ndarray) -> Operand:
        """The step's activation operand: ``codes``, range-proven."""
        return Operand(codes, self.params.bits, "row" if self.aggregate else "col", proven=True)


def _bind_step(step, layer, relu, registry, kernel, params, codes, weight, adjacency, bias):
    """``(bound step, activation operand)`` of the binding round."""
    backend, dtype, label = _bind(step, layer, registry)
    aggregate = step.spec.role == "aggregate"
    activation = Operand(codes, params.bits, "row" if aggregate else "col", proven=True)
    fixed = adjacency.operand if aggregate else weight.operand
    left, right = (fixed, activation) if aggregate else (activation, fixed)
    skip_plan = counters = None  # a 1-bit activation under jumping is balloted per round
    if aggregate or not kernel.jumps(activation):
        skip_plan, counters = kernel.account(left, right, adjacency.plan if aggregate else None, step.derived)
    s_l, c_l = params.scale, _mid_offset(params)
    if aggregate:
        epilogue = (s_l, c_l * adjacency.degrees)
    else:
        s_r, c_r, k = weight.params.scale, _mid_offset(weight.params), activation.logical_k
        ones = np.ones(k, dtype)
        ones.setflags(write=False)
        epilogue = (s_l * s_r, s_l * c_r, ones, c_l * s_r * weight.col_sums, k * c_l * c_r, bias)
    matmul = None
    if backend.run is codes_gemm and counters is not None:
        matrix = fixed.matrix(dtype)
        matmul = matrix.__matmul__ if aggregate else matrix.__rmatmul__
    return _BoundStep(step, layer, aggregate, relu, label, params, dtype, backend, fixed,
                      matmul, skip_plan, counters, epilogue), activation


class _Program(NamedTuple):
    """A plan lowered against one set of artifacts (``key``; ``pinned`` holds
    the model and weights it names by id) with the round's fixed-shape
    accounting: each stamped interval's ``(phase, role, layer)``, each
    step's ``gemm`` interval, the summed counters (``None``: a step counts
    per round) and a memo of what consumers derive from it."""

    key: tuple
    pinned: tuple
    steps: tuple[_BoundStep, ...]
    kernel: BitGemmKernel
    layout: tuple[tuple[str, str, int], ...]
    gemm_at: tuple[int, ...]
    totals: KernelCounters | None
    derived: dict


def _lower(key, pinned, steps, kernel, softmax) -> _Program:
    layout = [("materialize", "forward", -1)]
    for bound in steps:
        layout += [(phase, bound.step.spec.role, bound.layer) for phase in PHASES[1:6]]
        layout += [("activation", "forward", bound.layer)] * bound.relu
    layout += [("activation", "forward", -1)] * softmax
    totals = None
    if all(bound.counters is not None for bound in steps):
        totals = KernelCounters()
        for bound in steps:
            totals.merge(bound.counters)
    gemm_at = tuple(i for i, (phase, _, _) in enumerate(layout) if phase == "gemm")
    return _Program(key, pinned, tuple(steps), kernel, tuple(layout), gemm_at, totals, {})


def _native_entries(program: _Program) -> tuple:
    """Each step's ``(quantize, tail)`` native entries
    (:mod:`repro.core.native`), bound on the program's first replay — a
    round that binds every time never pays for them: Eq. 2 from a float64
    activation, and the epilogue, the ReLU and the next step's Eq. 2 from a
    product in the step's exact dtype into the next codes and their row
    sums (an update step reads them), or the last step's logits.  ``None``
    keeps NumPy."""
    entries = program.derived.get("native")
    if entries is None:
        entries, steps = [], program.steps
        for bs, after in zip(steps, [*steps[1:], None]):
            spec = bs.step.spec
            activation = (spec.k, spec.n) if bs.aggregate else (spec.m, spec.k)
            quantize = native.bind_quantize(bs.params, bs.dtype, activation, not bs.aggregate)
            tail = None
            if bs.aggregate or quantize is not None:  # the row sums an update step reads
                into = () if after is None else (after.params, after.dtype, not after.aggregate)
                tail = native.bind_tail(bs.dtype, (spec.m, spec.n), bs.epilogue, bs.relu, *into)
            entries.append((quantize, tail))
        entries = program.derived["native"] = tuple(entries)
    return entries


#: Executor phases; a program's stamps delimit one interval per layout entry.
PHASES = ("materialize", "quantize", "pack", "census", "gemm", "epilogue", "activation")
_DEFAULT_KERNEL = KernelConfig()
_as_phase_timing = partial(tuple.__new__, PhaseTiming)
_as_step_timing = partial(tuple.__new__, StepTiming)


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

    ``registry`` resolves the plan's backend names (pass the one the plan
    was compiled with).  ``recovery`` (a
    ``repro.serving.supervision.StepRecovery``-shaped object) retries a
    step whose backend raised a retryable error along its fallback chain;
    engines are bit-identical, so a recovery changes cost, never logits
    (:attr:`QuantizedForwardResult.recoveries`).  Missing
    ``packed_weights``/``packed_adjacency`` are resolved through
    ``artifacts`` under the plan nodes' keys, else built transiently.

    The first run over a set of artifacts (plan, adjacency, weights,
    registry state, kernel config, calibration) lowers the plan into a
    *bound program* kept on the adjacency, running the operand pair,
    census, dtype and weight-bitwidth checks once; later runs are its
    GEMMs, one native call per step for the epilogue, ReLU and next Eq. 2
    (NumPy where the kernel is unavailable or the product is not in the
    step's exact dtype — the same bits), a ``perf_counter`` stamp per
    phase boundary and each step's recovery wrapper.  Without a shared
    ``calibration`` nothing keeps it.  The node count, feature width and
    Eq. 2's NaN check run every time (another shape raises
    :class:`~repro.errors.ShapeError`).
    """
    sig = plan.signature
    if batch.num_nodes != sig.num_nodes:
        raise ShapeError(
            f"plan compiled for {sig.num_nodes} nodes cannot execute a "
            f"{batch.num_nodes}-node batch; compile a fresh plan"
        )

    def resolve(key, builder):
        if artifacts is not None and key is not None:
            return artifacts.get_or_build(key, builder)
        return builder()

    if packed_adjacency is None:
        packed_adjacency = resolve(
            plan.layers[0].aggregate.pack_a.cache_key, partial(pack_batch_adjacency, batch)
        )
    if packed_weights is None:
        packed_weights = [
            resolve(layer.update.pack_b.cache_key, partial(pack_layer_weight, w, layer.update.spec.bits_b))
            for layer, w in zip(plan.layers, model.weights)
        ]
    backends = default_registry() if registry is None else registry
    config = _DEFAULT_KERNEL if kernel_config is None else kernel_config
    key = (plan, backends, backends.generation, config, calibration, apply_softmax,
           id(model), *map(id, packed_weights))
    program = packed_adjacency.derived.get("program")
    if program is None or program.key != key:
        _check_artifacts(plan, model, packed_weights, packed_adjacency)
        program, kernel = None, BitGemmKernel(config)
        schedule = [(step, layer.index, not layer.is_output and i == 1)
                    for layer in plan.layers for i, step in enumerate(layer.steps(sig.aggregate_first))]
        natives = [(None, None)] * len(schedule)
    else:
        schedule, kernel, natives = program.steps, program.kernel, _native_entries(program)

    clock = time.perf_counter
    stamps = [clock()]
    stamp = stamps.append
    h = batch.features(np.float64)
    stamp(clock())
    if h.shape[1] != sig.feature_dim:
        raise ShapeError(
            f"plan compiled for feature_dim={sig.feature_dim} cannot execute "
            f"a batch with {h.shape[1]} features; compile a fresh plan"
        )
    bound, counters, recoveries, recovered = [], [], [], {}
    codes = sums = None  # a warm step's codes (and row sums), when the step before wrote them
    for i, (bs, (quantize, tail)) in enumerate(zip(schedule, natives)):
        if program is None:  # binding: calibrate, quantize, lower the step
            step, layer, relu = bs
            site = step.quantize_a or step.quantize_b
            params = (calibrate(h, site.bits) if calibration is None
                      else calibration.params_for(site.site, h, site.bits))
            codes = quantize_into(h, params, _bind(step, layer, backends)[1])
            bs, operand = _bind_step(step, layer, relu, backends, kernel, params, codes,
                                     packed_weights[layer], packed_adjacency, model.biases[layer])
        else:
            if codes is None:
                codes, sums = (quantize(h) if quantize is not None
                               else (quantize_into(h, bs.params, bs.dtype), None))
            operand = None if bs.matmul is not None else bs.operand(codes)
        bound.append(bs)
        stamp(clock())
        if bs.matmul is None and bs.backend.caps.consumes_words:
            operand.pack()
            bs.fixed.pack()
        stamp(clock())
        skip_plan, step_counters = bs.skip_plan, bs.counters
        if step_counters is None:  # a 1-bit activation's ballot: per round
            skip_plan, step_counters = kernel.account(operand, bs.fixed, None, bs.step.derived)
        counters.append(step_counters)
        stamp(clock())

        def attempt(name, bs=bs, codes=codes, operand=operand,
                    masks=None if skip_plan is None else skip_plan.masks):
            primary = name == bs.step.backend
            if primary and bs.matmul is not None:
                return bs.matmul(codes)
            if operand is None:
                operand = bs.operand(codes)
            pair = (bs.fixed, operand) if bs.aggregate else (operand, bs.fixed)
            if primary:
                return bs.backend.run(*pair, masks)
            began = clock()  # a recovery's fallback: resolved per use, timed alone
            out = backends.get(resolve_engine_name(name, bs.step.spec, backends)).run(*pair, masks)
            won[name] = clock() - began
            return out

        won = {}
        if recovery is None:
            out, executed, failed = attempt(bs.step.backend), bs.step.backend, ()
        else:
            out, executed, failed = recovery.run(attempt, bs.step.backend, detail=bs.label)
        stamp(clock())
        if failed:
            recovered[i] = (executed, won[executed])
            recoveries.extend((bs.label, name, executed) for name in failed)
        # A product not in the step's exact dtype (an int64 one from
        # ``packed``, primary or a recovery's fallback) keeps NumPy.
        fused = tail is not None and out.dtype == bs.dtype
        if fused:  # the same operations below, the ReLU and the next Eq. 2 in one pass
            codes, sums = tail(out, sums)
            h = codes  # the last step's are the logits
        else:
            # The product is widened exactly, then scaled in float64 (NumPy 2
            # keeps a Python float times a float32 in float32).  The terms join
            # in place, one at a time and left to right: float addition is not
            # associative, and pre-combining any two would move a logit's last bit.
            out = out.astype(np.float64)
            if bs.aggregate:  # Â is exact binary: real = s_x (Â q_x) + c_x degree
                scale, offset = bs.epilogue
                out *= scale
                out += offset
            else:
                scale, row_scale, ones, col_terms, constant, bias = bs.epilogue
                out *= scale
                out += row_scale * _row_sums(codes, ones)
                out += col_terms
                out += constant
                out += bias
            h, codes = out, None
        stamp(clock())
        if bs.relu:
            if not fused:
                np.maximum(out, 0.0, out=out)
            stamp(clock())

    logits = softmax(h) if apply_softmax else h
    if apply_softmax:
        stamp(clock())
    if program is None:
        program = _lower(key, (model, *packed_weights), bound, kernel, apply_softmax)
        if calibration is not None:
            packed_adjacency.derived["program"] = program
    return QuantizedForwardResult(logits, counters, tuple(recoveries), program, stamps, recovered)


def _check_artifacts(plan, model, packed_weights, packed_adjacency) -> None:
    """What a program binds on: the plan's layers, the adjacency's node
    count and the layer weights' count and bitwidths (weights wider than
    the plan's would run in a dtype that is not exact for them)."""
    if len(plan.layers) != model.num_layers:
        raise ConfigError(f"plan has {len(plan.layers)} layers, model has {model.num_layers}")
    if packed_adjacency.num_nodes != plan.signature.num_nodes:
        raise ShapeError(
            f"packed adjacency covers {packed_adjacency.num_nodes} nodes, "
            f"batch has {plan.signature.num_nodes}"
        )
    if len(packed_weights) != model.num_layers:
        raise ConfigError(f"expected {model.num_layers} packed weights, got {len(packed_weights)}")
    for layer, weight in zip(plan.layers, packed_weights):
        if weight.bits != layer.update.spec.bits_b:
            raise BitwidthError(
                f"layer {layer.index} weights are {weight.bits}-bit, its plan "
                f"multiplies {layer.update.spec.bits_b}-bit ones; compile a plan for them"
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
    """Run a quantized forward pass over one subgraph batch: compile an
    :class:`~repro.plan.ir.ExecutionPlan` for its shape (unless ``plan`` is
    given; it must describe this shape) and execute it with
    :func:`execute_forward_plan`.  A serving session replays cached plans
    instead.

    ``feature_bits``/``weight_bits`` are the activation and weight
    bitwidths (weights follow features by default, as in the paper's
    sweeps); ``kernel_config`` the emulated kernel's zero-tile jumping and
    reuse switches; ``engine`` a backend name or per-product selector,
    resolved once per GEMM at compile time.  ``packed_weights``
    (:func:`pack_layer_weight`; ``weight_bits`` is ignored then) and
    ``packed_adjacency`` (:func:`pack_batch_adjacency`, of exactly this
    ``batch``) seed the plan's artifacts; ``artifacts`` is a
    :class:`~repro.plan.cache.PlanCache` to resolve the others through;
    ``calibration`` a shared :class:`ActivationCalibration` (omit it for
    per-tensor calibration).

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

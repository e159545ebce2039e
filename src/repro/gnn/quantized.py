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
and once the next step's calibration site is frozen (every round after
warm-up, a binding round too) not even that: one native pass
(:mod:`repro.core.native`) turns a product into the next step's codes and census.
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

    #: Phase name: ``materialize``, ``bind`` (a binding round's lowering),
    #: ``quantize``, ``pack``, ``census``, ``gemm``, ``epilogue`` or
    #: ``activation``.
    phase: str
    #: The step role the phase belongs to (``aggregate``/``update``), or
    #: ``forward`` for per-pass phases like materialization.
    role: str
    #: Model layer index, or ``-1`` for phases outside any layer.
    layer: int
    seconds: float


class StepTiming(NamedTuple):
    """Measured wall-clock of one executed plan step's bit-GEMM — the
    backend-dependent work only, which the serving engine sums per backend
    (``SessionStats.backend_seconds``)."""

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
    #: boundaries, ``{step: (executed backend, winning attempt's seconds)}``
    #: of the steps a fallback recovered and whether this round bound the
    #: program (its layout then has a ``bind`` interval per step).
    program: "_Program | None" = None
    stamps: list[float] | None = None
    recovered: dict | None = None
    binding: bool = False

    @cached_property
    def timings(self) -> tuple[StepTiming, ...]:
        """One :class:`StepTiming` per executed step, in execution order
        (parallel to ``counters``): its ``gemm`` phase window, or — for a
        recovered step, named by the backend that actually executed — the
        winning attempt alone, so failures never bias a backend's time."""
        stamps, steps = self.stamps, self.program.steps
        timings = [(b.step.spec, b.step.backend, stamps[at + 1] - stamps[at])
                   for b, at in zip(steps, self.program.gemm_at[self.binding])]
        for i, (executed, seconds) in self.recovered.items():
            timings[i] = (steps[i].step.spec, executed, seconds)
        return tuple(map(_as_step_timing, timings))

    @cached_property
    def phases(self) -> tuple[PhaseTiming, ...]:
        """Full phase attribution of the pass's wall-clock, one
        :class:`PhaseTiming` per interval of the program's layout."""
        seconds = zip(map(sub, self.stamps[1:], self.stamps))
        return tuple(map(_as_phase_timing, map(add, self.program.layouts[self.binding], seconds)))

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
    ``operand``, the 1-bit column-compressed adjacency with self loops —
    its members' self-looped CSRs as diagonal blocks
    (:func:`pack_batch_adjacency`), a dynamic graph's snapshot, or any
    canonical CSR of ones; the batch CSR and the §4.2 words are built on
    first read — memoising what it derives;
    ``plan``, the §4.3 tile census the measured skip counters read;
    ``degrees``, the ``(n, 1)`` float64 row sums (the aggregation's
    rank-1 epilogue)."""

    operand: Operand
    plan: TileSkipPlan
    degrees: np.ndarray

    @classmethod
    def canonical(cls, blocks, degrees, mask) -> PackedAdjacency:
        """The adjacency over diagonal blocks, int32 CSRs of ones its
        producer proved canonical (a block may carry a third item); the
        ``degrees`` are frozen."""
        degrees.setflags(write=False)
        return cls(Operand(blocks=tuple(blocks)), TileSkipPlan(masks=(mask,)), degrees)

    @cached_property
    def derived(self) -> dict:
        """What is bound to this adjacency (:func:`execute_forward_plan`)."""
        return {}

    @cached_property
    def gather(self) -> tuple | None:
        """What a fused aggregate gathers through (the ``csr`` of
        :meth:`repro.core.native._Bound.run`): the operand's diagonal blocks
        and the degrees, addressed once (:func:`~repro.core.native.bind_blocks`);
        ``None`` without blocks C can read."""
        blocks = self.operand.blocks
        return None if blocks is None else native.bind_blocks(blocks, self.degrees.ravel())

    @property
    def packed(self) -> PackedBits:
        """The bit-compressed planes (packed on first read)."""
        return self.operand.packed

    @property
    def csr(self) -> sp.csr_matrix | None:
        """The canonical CSR of ones (concatenated on first read), if the
        operand has coordinates."""
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
        the words and the CSR by their geometry, built yet or not, so an
        entry weighs the same when it is evicted as when it was inserted."""
        held = [self.degrees, *self.plan.masks]
        return self.operand.packed_nbytes + self.operand.csr_nbytes + sum(a.nbytes for a in held)


def pack_batch_adjacency(batch: SubgraphBatch) -> PackedAdjacency:
    """Census one batch's adjacency (with self loops) — the per-batch
    analogue of :func:`pack_layer_weight`.

    The adjacency is a view of the members: their self-looped CSRs are its
    diagonal blocks (a stored self loop plus the added diagonal is one set
    bit), checked canonical, with the census and degrees — each row's
    distinct set bits, as a dense row sum counts them — in one native pass
    (:func:`repro.core.native.adjacency`), else concatenated into one CSR
    by the NumPy reference (:meth:`SubgraphBatch.adjacency_csr`).  The batch
    CSR and the words wait for their first reader: a round on codes reads
    neither.
    """
    blocks = [sub.csr_block for sub in batch.members]
    built = native.adjacency(blocks)
    if built is None:
        operand = Operand(csr=batch.adjacency_csr())
        degrees = np.diff(operand.csr.indptr).astype(np.float64)[:, None]
        return PackedAdjacency(operand, plan_tile_skip(operand), degrees)
    return PackedAdjacency.canonical(blocks, *built)


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

    def frozen(self, site: str, bits: int) -> QuantParams | None:
        """This site's frozen parameters, or ``None`` before its first touch
        (a read: it never calibrates)."""
        return self._sites.get((site, bits))

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
    raw codes (an aggregate step's scipy matrix built on its first call),
    else ``None``; ``counters`` is ``None``
    when a 1-bit activation under jumping is censused per round, ``census``
    then its counters' key (:meth:`~repro.tc.kernel.BitGemmKernel.key`);
    ``epilogue`` the affine terms, by the unbound form's float operations
    in its order: ``(s, c, degrees)`` or ``(s_l s_r, s_l c_r, ones, c_l s_r
    colsums, k c_l c_r, bias)``; ``csr`` what a ``blas`` aggregate step's
    native tail gathers through, its adjacency's member blocks and degrees
    (:attr:`PackedAdjacency.gather`: checked and addressed once).
    An aggregate step of a template part (:class:`_Program`) has no
    adjacency: no ``fixed``, ``matmul``, ``counters``, ``degrees`` or ``csr``."""

    step: GemmStep
    layer: int
    aggregate: bool
    relu: bool
    label: str
    params: QuantParams
    dtype: np.dtype
    backend: object
    fixed: Operand | None
    matmul: object
    counters: KernelCounters | None
    census: tuple | None
    epilogue: tuple
    csr: tuple | None = None

    def pair(self, codes: np.ndarray) -> tuple[Operand, Operand]:
        """The step's ``(left, right)`` operands: ``fixed`` and its activation ``codes``, range-proven."""
        operand = Operand(codes, self.params.bits, "row" if self.aggregate else "col", proven=True)
        return (self.fixed, operand) if self.aggregate else (operand, self.fixed)

    def fallback(self, registry, pair: tuple, name: str) -> tuple:
        """``(product, seconds)`` of the step on a recovery's backend
        ``name``: resolved per use, timed alone."""
        began = time.perf_counter()
        out = registry.get(resolve_engine_name(name, self.step.spec, registry)).run(*pair)
        return out, time.perf_counter() - began


def _bind_step(step, layer, relu, registry, params, weight, bias) -> _BoundStep:
    """The step lowered against its weights — an aggregate step's adjacency
    is bound per structure (:func:`_over`); its counters are taken from its
    codes in the ``census`` interval (the weights' ``k`` is the
    activation's, or the pair check raises there)."""
    backend, dtype, label = _bind(step, layer, registry)
    s_l, c_l = params.scale, _mid_offset(params)
    if step.spec.role == "aggregate":
        return _BoundStep(step, layer, True, relu, label, params, dtype, backend, None, None,
                          None, None, (s_l, c_l, None))
    fixed = weight.operand
    s_r, c_r, k = weight.params.scale, _mid_offset(weight.params), fixed.logical_k
    ones = np.ones(k, dtype)
    ones.setflags(write=False)
    epilogue = (s_l * s_r, s_l * c_r, ones, c_l * s_r * weight.col_sums, k * c_l * c_r, bias)
    matmul = fixed.matrix(dtype).__rmatmul__ if backend.run is codes_gemm else None
    return _BoundStep(step, layer, False, relu, label, params, dtype, backend, fixed, matmul,
                      None, None, epilogue)


def _over(bs: _BoundStep, adjacency: PackedAdjacency) -> _BoundStep:
    """Aggregate step ``bs`` bound to ``adjacency``: its left operand, what
    its ``blas`` product gathers through (:attr:`PackedAdjacency.gather`,
    addressed once per adjacency) beside a scipy product built only if it
    runs, and the degrees its row term ``c * degree`` reads."""
    fixed, matmul, csr, degrees = adjacency.operand, None, None, adjacency.degrees.ravel()
    if bs.backend.run is codes_gemm:
        matmul, csr = partial(_sparse_product, fixed, bs.dtype), adjacency.gather
    return bs._replace(fixed=fixed, matmul=matmul, csr=csr, epilogue=(*bs.epilogue[:2], degrees))


def _sparse_product(operand: Operand, dtype, codes: np.ndarray) -> np.ndarray:
    return operand.matrix(dtype) @ codes


def _features(batch: SubgraphBatch, k: int, rows: bool):
    """Step 0's ``(n, k)`` activation: the members' feature rows as
    :class:`~repro.core.native.Rows` for a native quantize (``rows``; it
    checks their widths, and the ``Rows`` holds the arrays it reads), or
    else concatenated into float64 — a member of another width raises
    :class:`~repro.errors.ShapeError` either way."""
    if rows:
        view = native.member_rows([sub.feature_rows for sub in batch.members], (batch.num_nodes, k))
        if view is not None:
            return view
    for sub in batch.members:
        width = None if sub.graph.features is None else sub.graph.features.shape[1:]
        if width not in (None, (k,)):
            raise ShapeError(
                f"plan compiled for feature_dim={k} cannot execute a batch "
                f"with a {width} features member; compile a fresh plan"
            )
    return batch.features(np.float64)


class _Program(NamedTuple):
    """A plan lowered against one set of artifacts (``key``; ``pinned`` holds
    the model and weights it names by id) with the round's fixed-shape
    accounting: each stamped interval's ``(phase, role, layer)`` and each
    step's ``gemm`` interval — ``(replay's, the binding round's)`` — the
    summed counters (``None``: a step counts per round), a memo of what
    consumers derive from it (``derived``) and one of what they derive from
    its template part alone (``shared``: native entries, a round's slots).

    A *template part* is a ``_Program`` whose aggregate steps have no
    adjacency and whose key is the program key without its plan (registry
    and generation, kernel config, calibration, softmax, the ids of model
    and weights).  The last one bound is kept on the plan's first aggregate
    :attr:`GemmStep.derived <repro.plan.ir.GemmStep.derived>` (``"program"``),
    which every plan bound from one template shares: a binding round over
    another adjacency binds its aggregate steps' adjacency (:func:`_over`)
    and census alone."""

    key: tuple
    pinned: tuple
    steps: tuple[_BoundStep, ...]
    kernel: BitGemmKernel
    layouts: tuple[tuple[tuple[str, str, int], ...], ...]
    gemm_at: tuple[tuple[int, ...], ...]
    totals: KernelCounters | None
    derived: dict
    shared: dict


def _totals(steps) -> KernelCounters | None:
    """The steps' summed counters; ``None`` when a step counts per round."""
    if any(bound.counters is None for bound in steps):
        return None
    totals = KernelCounters()
    for bound in steps:
        totals.merge(bound.counters)
    return totals


def _lower(key, pinned, steps, kernel, softmax) -> _Program:
    replay, binding = [("materialize", "forward", -1)], [("materialize", "forward", -1)]
    for bound in steps:  # a binding round has a ``bind`` interval ahead of each step
        role, layer = bound.step.spec.role, bound.layer
        block = [(phase, role, layer) for phase in PHASES[2:7]]
        block += [("activation", "forward", layer)] * bound.relu
        replay += block
        binding += [("bind", role, layer), *block]
    softmax = [("activation", "forward", -1)] * softmax
    gemm_at = tuple(i for i, (phase, _, _) in enumerate(replay) if phase == "gemm")
    return _Program(key, pinned, tuple(steps), kernel, (tuple(replay + softmax), tuple(binding + softmax)),
                    (gemm_at, tuple(at + i + 1 for i, at in enumerate(gemm_at))), _totals(steps), {}, {})


def _bind_native(bs: _BoundStep, into: tuple | None, fed: bool = False) -> tuple:
    """``bs``'s ``(quantize, tail)`` native entries (:mod:`repro.core.native`):
    Eq. 2 from a float64 activation — none when the step is ``fed`` its
    codes and row sums by the step before — and the epilogue, the ReLU and
    the next step's Eq. 2 from a product in the step's exact dtype into the
    next codes and their row sums (an update step reads them, an aggregate
    step its degrees, each call): ``into`` is the next step's frozen
    ``(params, dtype, row sums?)``, ``()`` the last step's logits.  ``None``
    keeps NumPy, as does ``into=None`` for the tail: a next site not frozen
    yet calibrates on the float64 activation."""
    spec = bs.step.spec
    activation = (spec.k, spec.n) if bs.aggregate else (spec.m, spec.k)
    quantize = None if fed else native.bind_quantize(bs.params, bs.dtype, activation, not bs.aggregate)
    tail = None
    if into is not None and (bs.aggregate or fed or quantize is not None):  # an update step reads row sums
        # An aggregate step's row term, c * degree, takes the update form's row sums slot.
        epilogue = (*bs.epilogue[:2], None, -0.0, -0.0, -0.0) if bs.aggregate else bs.epilogue
        tail = native.bind_tail(bs.dtype, (spec.m, spec.n), epilogue, bs.relu, *into)
    return quantize, tail


def _frozen_into(step, layer, calibration, registry) -> tuple | None:
    """What a binding round's step fuses into: ``step``'s frozen ``(params,
    exact dtype, row sums?)``, or ``None`` while its site is not frozen."""
    site = step.quantize_a or step.quantize_b
    params = calibration.frozen(site.site, site.bits)
    return None if params is None else (params, _bind(step, layer, registry)[1],
                                        step.spec.role != "aggregate")


def _native_entries(program: _Program) -> tuple:
    """Each step's native entries (:func:`_bind_native`), bound once per
    template part, when every site is frozen.  A round that calibrates
    binds its own: a step whose site was frozen before the round reached it
    quantizes natively, and fuses its tail when the next site is frozen too
    (or it is the last step)."""
    entries = program.shared.get("native")
    if entries is None:
        steps = program.steps
        entries = program.shared["native"] = tuple(
            _bind_native(bs, () if after is None else (after.params, after.dtype, not after.aggregate))
            for bs, after in zip(steps, [*steps[1:], None])
        )
    return entries


#: Executor phases; a program's stamps delimit one interval per layout entry
#: (``bind`` on the binding round only: calibration, lowering, native binds,
#: or from a template part the aggregate steps' adjacency alone).
PHASES = ("materialize", "bind", "quantize", "pack", "census", "gemm", "epilogue", "activation")
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
    was compiled with).  A round runs under one guard: each step's
    primary attempt is made inline, after the ``kernel`` fault probe of
    ``recovery`` (a ``repro.serving.supervision.StepRecovery``), whose
    health record takes the round's successes at once (and before any
    failure); a step whose attempt raised is handed to ``recovery``, which
    retries it along its fallback chain.  Engines are bit-identical, so a
    recovery changes cost, never logits
    (:attr:`QuantizedForwardResult.recoveries`).  Missing
    ``packed_weights``/``packed_adjacency`` are resolved through
    ``artifacts`` under the plan nodes' keys, else built transiently.

    The first run over a set of artifacts (plan, adjacency, weights,
    registry state, kernel config, calibration) lowers the plan into a
    *bound program* kept on the adjacency, running the operand pair,
    census, dtype and weight-bitwidth checks once; later runs are its
    GEMMs, one native call per step for the epilogue, ReLU and next Eq. 2
    (a ``blas`` aggregate step's product in the same call, gathered through
    its adjacency's member blocks; NumPy where the kernel is unavailable or
    the product is not in the step's exact dtype — the same bits) and a
    ``perf_counter`` stamp per phase boundary; step 0 reads the members'
    feature rows where they are (:func:`_features`).  Once every
    calibration site is frozen, what a program binds apart from its
    adjacency is bound once per template — its *template part*
    (:class:`_Program`), native entries included — and a binding round over
    another adjacency of the template binds its aggregate steps alone.  A
    round whose sites are not all frozen calibrates them, natively where
    they already are (:func:`_native_entries`).  Without a shared
    ``calibration`` nothing keeps either.  The node count, each member's
    feature width and Eq. 2's NaN check run every time (another shape
    raises :class:`~repro.errors.ShapeError`).
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
    template = None
    if program is None or program.key != key:
        _check_artifacts(plan, model, packed_weights, packed_adjacency)
        program, memo = None, plan.layers[0].aggregate.derived
        if calibration is not None:
            template = memo.get("program")
        if template is not None and template.key == key[1:]:
            schedule, kernel, natives = template.steps, template.kernel, _native_entries(template)
        else:  # each step binds as the round reaches it (and calibrates, if its site is not frozen)
            template, kernel = None, BitGemmKernel(config)
            schedule = [(step, layer.index, not layer.is_output and i == 1)
                        for layer in plan.layers for i, step in enumerate(layer.steps(sig.aggregate_first))]
            natives = [(None, None)] * len(schedule)
    else:
        schedule, kernel, natives = program.steps, program.kernel, _native_entries(program)

    clock = time.perf_counter
    stamps = [clock()]
    stamp = stamps.append
    h = _features(batch, sig.feature_dim, natives[0][0] is not None)
    stamp(clock())
    bound, counters, recoveries, recovered = [], [], [], {}
    health, faults = (None, None) if recovery is None else (recovery.health, recovery.fault_plan)
    recorded = 0  # ``bound[:recorded]``'s successes are in ``health``: a round records them at once
    codes = sums = live = None  # a step's codes (row sums, live tiles), when the step before wrote them
    try:
        for i, (bs, (quantize, tail)) in enumerate(zip(schedule, natives)):
            if program is None:  # binding: lower the step unless its template part has, bind its adjacency
                if template is None:
                    step, layer, relu = bs
                    site = step.quantize_a or step.quantize_b
                    frozen = None if calibration is None else calibration.frozen(site.site, site.bits)
                    params = frozen if frozen is not None else (
                        calibrate(h, site.bits) if calibration is None
                        else calibration.params_for(site.site, h, site.bits))
                    bs = _bind_step(step, layer, relu, backends, params, packed_weights[layer],
                                    model.biases[layer])
                    if frozen is not None:
                        into = () if i + 1 == len(schedule) else _frozen_into(*schedule[i + 1][:2],
                                                                               calibration, backends)
                        quantize, tail = _bind_native(bs, into, codes is not None)
                if bs.aggregate:
                    bs = _over(bs, packed_adjacency)
                stamp(clock())
            if codes is None:
                codes, sums, live = (quantize.run(h) if quantize is not None
                                     else (quantize_into(h, bs.params, bs.dtype), None, None))
            # Binding checks the pair; a replay ballots in Python only codes no native pass censused.
            account = bs.counters is None and (live is None or bs.census is None)
            pair = bs.pair(codes) if account or bs.matmul is None else None
            stamp(clock())
            if bs.matmul is None and bs.backend.caps.consumes_words:
                for side in pair:
                    side.pack()
            stamp(clock())
            step_counters = bs.counters
            if account:
                step_counters = kernel.account(*pair, packed_adjacency.plan if bs.aggregate else None,
                                               bs.step.derived, live)
                if bs.census is None:  # binding: a 1-bit activation under jumping is censused per round
                    census = None if bs.aggregate or not kernel.jumps(pair[0]) else kernel.key(*pair)
                    bs = bs._replace(counters=None if census else step_counters, census=census)
            elif step_counters is None:  # censused by the pass that wrote the codes
                step_counters = kernel.tally(bs.census, live, bs.step.derived)
            counters.append(step_counters)
            stamp(clock())
            try:  # the primary attempt, inline: a raise hands the step to ``recovery``
                if faults is not None:
                    faults.maybe_raise("kernel", detail=f"{bs.label}:{bs.step.backend}")
                if bs.matmul is None:
                    out = bs.backend.run(*pair)
                elif tail is not None and bs.csr is not None:  # the product and its tail in one pass
                    out = tail.run(codes, None, bs.csr)
                else:
                    out = bs.matmul(codes)
            except BaseException as exc:
                if recovery is None:
                    raise
                if health is not None and recorded < len(bound):  # the successes before the failure
                    health.record_success(*(b.step.backend for b in bound[recorded:]))
                recorded = len(bound) + 1
                fallback = partial(bs.fallback, backends, pair or bs.pair(codes))
                (out, seconds), executed, failed = recovery.run(fallback, bs.step.backend, detail=bs.label,
                                                                raised=exc)
                recovered[i] = (executed, seconds)
                recoveries.extend((bs.label, name, executed) for name in failed)
            bound.append(bs)
            stamp(clock())
            # A product not in the step's exact dtype (an int64 one from
            # ``packed``, primary or a recovery's fallback) keeps NumPy; an
            # attempt that gathered its product has run the tail already.
            if tail is not None and type(out) is not tuple and out.dtype == bs.dtype:
                out = tail.run(out, bs.epilogue[2] if bs.aggregate else sums)
            fused = type(out) is tuple
            if fused:  # the same operations below, the ReLU and the next Eq. 2 in one pass
                codes, sums, live = out
                h = codes  # the last step's are the logits
            else:
                # The product is widened exactly, then scaled in float64 (NumPy 2
                # keeps a Python float times a float32 in float32).  The terms join
                # in place, one at a time and left to right: float addition is not
                # associative, and pre-combining any two would move a logit's last bit.
                out = out.astype(np.float64)
                if bs.aggregate:  # Â is exact binary: real = s_x (Â q_x) + c_x degree
                    scale, offset, degrees = bs.epilogue
                    out *= scale
                    out += offset * degrees[:, None]
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
    finally:
        if health is not None and recorded < len(bound):
            health.record_success(*(b.step.backend for b in bound[recorded:]))

    logits = softmax(h) if apply_softmax else h
    if apply_softmax:
        stamp(clock())
    binding = program is None
    if binding:
        if template is not None:
            program = template._replace(key=key, steps=tuple(bound), totals=_totals(bound), derived={})
        else:
            program = _lower(key, (model, *packed_weights), bound, kernel, apply_softmax)
            if calibration is not None:  # every site is frozen now: keep the template part, bound
                steps = tuple(b if not b.aggregate else b._replace(
                    fixed=None, matmul=None, counters=None, epilogue=(*b.epilogue[:2], None), csr=None)
                    for b in bound)
                template = program._replace(key=key[1:], steps=steps, derived={})
                _native_entries(template)
                memo["program"] = template
        if calibration is not None:
            packed_adjacency.derived["program"] = program
    return QuantizedForwardResult(logits, counters, tuple(recoveries), program, stamps, recovered,
                                  binding)


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

"""Cost-model-driven engine dispatch for serving requests.

The functional bit-GEMM's host engines are registered objects in the
:class:`~repro.plan.registry.BackendRegistry` (built-ins: ``"packed"``,
``"blas"`` — see :mod:`repro.plan.backends`), each carrying a cost
pricer.  The built-in ``"auto"`` rule is a fixed output-size
threshold; a serving session instead asks :class:`CostModelDispatcher`,
which prices each product by handing every eligible registered backend a
:class:`~repro.plan.registry.PriceContext` — the kernel work measure of
:class:`~repro.tc.costmodel.TCCostModel` (bmma count per §4's tiling)
plus the calibrated :class:`~repro.plan.rates.HostRates` — and picking
the cheapest answer:

* the packed engine pays a per-plane-pair call overhead plus padded
  bit-FLOPs (over all ``bits_a * bits_b`` pairs) divided by a sustained
  popcount rate;
* the BLAS engine runs one GEMM on the integer codes whatever the
  bitwidths — one call overhead plus ``2*M*K*N`` FLOPs at the BLAS rate —
  and is vetoed outright when its float working set
  (``M*K + K*N + M*N`` elements of the exact dtype) would exceed
  ``blas_bytes_budget``, the regime where the packed engine's 32x denser
  operands win by not thrashing memory.

Rates are a frozen :class:`~repro.plan.rates.HostRates` value, so
per-machine recalibration is ``CostModelDispatcher(rates=HostRates(...))``.
Backends registered later are priced automatically as long as they carry
a pricer.

The analytic model is only the *fallback*: a dispatcher built with a
measured :class:`~repro.plan.autotune.DispatchTable` (``table=``) prices
each product from the table's shape-bucketed backend timing medians
wherever a confident measurement exists, and the serving engine feeds
every executed plan's per-GEMM wall-clock back into that table (a round
at a time; :meth:`CostModelDispatcher.record_timing` takes one sample) —
so warm replays continuously sharpen the very table that routes them.
Vetoed backends stay vetoed (resource budgets outrank measurements), and
a backend without a pricer becomes routable once it has been timed.

A dispatcher instance is a valid ``engine=`` argument anywhere
:data:`~repro.core.bitgemm.Engine` is accepted; under the plan/execute
split its per-product decisions are frozen into the compiled
:class:`~repro.plan.ir.ExecutionPlan` and replayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..errors import ConfigError
from ..plan.autotune import DispatchTable
from ..plan.ir import GemmSpec
from ..plan.rates import DEFAULT_HOST_RATES, HostRates
from ..plan.registry import BackendPrice, BackendRegistry, PriceContext, default_registry
from ..tc.costmodel import MMA_FLOPS, TCCostModel
from ..tc.hardware import RTX3090, DeviceSpec

__all__ = ["DispatchDecision", "CostModelDispatcher"]


@dataclass(frozen=True)
class DispatchDecision:
    """One priced dispatch: every backend's estimated host cost + the pick.

    ``prices`` holds every priced backend's
    :class:`~repro.plan.registry.BackendPrice` (seconds, working-set
    bytes, veto state).
    """

    engine: str
    #: Every priced backend's answer, in registry order.
    prices: Mapping[str, BackendPrice]
    #: Backends whose price came from the measured dispatch table rather
    #: than the analytic model (empty when pricing was purely analytic).
    tuned_backends: tuple[str, ...] = ()

    @property
    def tuned(self) -> bool:
        """Whether the *chosen* engine was priced from measurement."""
        return self.engine in self.tuned_backends


class CostModelDispatcher:
    """Pick the cheapest registered backend per product from modeled host cost.

    Callable with the :data:`~repro.core.bitgemm.EngineSelector` signature
    ``(m, k, n, bits_a, bits_b)``.  Rates are calibrated against the
    pure-Python engines on the shipped benchmark workloads; they are host
    throughputs of *this* process, unlike the device seconds of
    :class:`~repro.tc.costmodel.TCCostModel` which price the emulated GPU.
    """

    def __init__(
        self,
        device: DeviceSpec = RTX3090,
        *,
        blas_bytes_budget: int = 512 * 1024 * 1024,
        rates: HostRates | None = None,
        registry: BackendRegistry | None = None,
        table: DispatchTable | None = None,
        health=None,
    ) -> None:
        if blas_bytes_budget < 1:
            raise ConfigError(
                f"blas_bytes_budget must be positive, got {blas_bytes_budget}"
            )
        self.cost = TCCostModel(device)
        self.blas_bytes_budget = blas_bytes_budget
        self.rates = DEFAULT_HOST_RATES if rates is None else rates
        # None check, not truthiness: an empty caller registry is falsy
        # (BackendRegistry defines __len__) and must not be silently
        # replaced by the default backend set.
        self.registry = default_registry() if registry is None else registry
        #: Measured timing table consulted before the analytic model;
        #: ``None`` keeps every price analytic.
        self.table = table
        #: Optional ``repro.serving.supervision.BackendHealth`` breaker:
        #: quarantined backends are dropped from the candidate set (a
        #: health veto, outranking prices like every other veto) unless
        #: *every* candidate is quarantined — dispatch always answers.
        self.health = health
        #: Decisions that dropped at least one quarantined candidate.
        self.health_vetoed_decisions = 0
        #: Measured non-zero tile fraction of the batch currently being
        #: served; ``None`` until the serving engine observes one.
        self.tile_fraction: float | None = None
        #: Node count of the observed adjacency, when known; restricts the
        #: fraction to the GEMM it actually describes.
        self._observed_nodes: int | None = None

    # ------------------------------------------------------------------ #
    def observe_tile_fraction(
        self, fraction: float, *, nodes: int | None = None
    ) -> None:
        """Record the measured non-zero tile fraction of the next products.

        Called by the serving engine with each batch's tile census (from
        its cached :class:`~repro.tc.kernel.TileSkipPlan`) before compiling
        the batch's plan, so 1-bit adjacency GEMMs look up the dispatch
        table's sparsity band they are recorded under.  The census
        describes the batch's *adjacency* operand only, so it is applied
        just to square 1-bit products (``m == k``) — and, when ``nodes`` is
        given, only to the ``nodes x nodes`` adjacency shape — which keeps
        it off dense 1-bit activation update GEMMs except in the
        coincidence that a layer's input dimension equals the node count.
        Even then only the *price* is off, never the result.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError(
                f"tile fraction must be in [0, 1], got {fraction}"
            )
        if nodes is not None and nodes < 0:
            raise ConfigError(f"nodes must be non-negative, got {nodes}")
        self.tile_fraction = fraction
        self._observed_nodes = nodes

    def record_timing(
        self,
        spec: GemmSpec,
        backend: str,
        seconds: float,
        *,
        tile_fraction: float | None = None,
    ) -> None:
        """Feed one measured execution back into the dispatch table.

        One executed plan step's wall-clock (``tile_fraction`` carries
        the batch's census for aggregation products, matching the
        coordinates :meth:`decide` prices with, so online samples land in
        the buckets that are actually consulted; the serving engine
        records a whole round through the table's ``record_all``).  A
        no-op without a table — an untuned dispatcher stays purely
        analytic.
        """
        if self.table is not None:
            self.table.record_spec(
                spec, backend, seconds, tile_fraction=tile_fraction
            )

    # ------------------------------------------------------------------ #
    def decide(
        self, m: int, k: int, n: int, bits_a: int, bits_b: int
    ) -> DispatchDecision:
        """Price every eligible backend for an ``m x k x n`` product and
        choose the cheapest healthy one."""
        counters = self.cost.gemm_counters(m, k, n, bits_a, bits_b)
        flops = counters.mma_ops * MMA_FLOPS  # padded work, all plane pairs
        spec = GemmSpec(m=m, k=k, n=n, bits_a=bits_a, bits_b=bits_b)

        # The observed census is pinned to the adjacency's square shape so
        # a dense 1-bit product (e.g. a 1-bit activation update GEMM) is
        # not priced with another operand's sparsity unless its shape
        # coincides with the adjacency's exactly (see observe_tile_fraction).
        describes_operand = m == k and (
            self._observed_nodes is None or m == self._observed_nodes
        )
        fraction = self.tile_fraction if bits_a == 1 and describes_operand else None

        ctx = PriceContext(
            spec=spec,
            flops=flops,
            rates=self.rates,
            tile_fraction=fraction,
            blas_bytes_budget=self.blas_bytes_budget,
            table=self.table,
        )
        prices = self.registry.price_all(ctx)
        if not prices:
            raise ConfigError(
                f"no priceable backend registered for a "
                f"{bits_a}x{bits_b}-bit {m}x{k}x{n} product"
            )
        # Health veto: quarantined backends leave the candidate set (but
        # stay in the reported prices).  If the breaker has everything
        # open, fall back to the full set — dispatch must always answer,
        # and the half-open probe path re-admits backends soon after.
        candidates = prices
        if self.health is not None:
            healthy = {
                name: price
                for name, price in prices.items()
                if not self.health.vetoed(name)
            }
            if healthy and len(healthy) < len(prices):
                self.health_vetoed_decisions += 1
            if healthy:
                candidates = healthy
        engine = min(candidates.items(), key=lambda kv: kv[1].effective_s)[0]
        return DispatchDecision(
            engine=engine,
            prices=prices,
            tuned_backends=tuple(
                name for name, price in prices.items() if price.source == "tuned"
            ),
        )

    def __call__(self, m: int, k: int, n: int, bits_a: int, bits_b: int) -> str:
        """Resolve one product to a backend name (the ``EngineSelector``
        compatibility signature over :meth:`decide`)."""
        return self.decide(m, k, n, bits_a, bits_b).engine

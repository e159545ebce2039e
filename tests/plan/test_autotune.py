"""Tests for the dispatch names ``benchmarks/e2e`` imports: the shape
bucket and host fingerprint, and a settle/ledger pass's exact calls, which
answer with the static rule and record nothing.

The band, memo, table and tuned-pricing classes keep the names of the
measured-dispatch tests they replace: each asks its old question of the
static rule, whose answer no census, sample or median moves."""

from __future__ import annotations

import math
import platform
import threading
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from repro.gnn import make_batched_gin
from repro.graph import induced_subgraphs
from repro.graph.batching import SubgraphBatch
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.plan import (
    BLAS_BYTES_BUDGET,
    GemmSpec,
    default_registry,
    register_backend,
    static_backend,
)
from repro.plan import autotune, dispatch_shim
from repro.plan.autotune import bucket_for, host_fingerprint
from repro.plan.cache import PlanCache
from repro.plan.ir import compile_gemm_step
from repro.serving import CostModelDispatcher, InferenceEngine, ServingConfig


def _spec(m=64, k=128, n=16, bits_a=1, bits_b=4, role="gemm"):
    return GemmSpec(m=m, k=k, n=n, bits_a=bits_a, bits_b=bits_b, role=role)


def _decide(dispatcher, spec):
    return dispatcher.decide(spec.m, spec.k, spec.n, spec.bits_a, spec.bits_b)


#: The square 1-bit adjacency product a census once banded.
ADJACENCY = _spec(m=256, k=256, n=16, bits_a=1, bits_b=8, role="aggregate")


class TestShapeBuckets:
    def test_dims_quantize_to_tile_multiples(self):
        assert bucket_for(_spec(m=13, k=150, n=17)).key() == "16x256x24:1b4"

    def test_shapes_straddling_tile_multiples(self):
        # One side of a tile boundary shares a bucket; one past it does not.
        at = bucket_for(_spec(m=8, k=128, n=8)).key()
        assert bucket_for(_spec(m=7, k=127, n=7)).key() == at
        assert bucket_for(_spec(m=9, k=129, n=9)).key() == "16x256x16:1b4"

    def test_zero_dims_share_the_one_tile_bucket(self):
        assert bucket_for(_spec(m=0, k=0, n=0)).key() == bucket_for(_spec(m=1, k=1, n=1)).key()

    def test_bitwidths_separate_buckets(self):
        assert bucket_for(_spec(bits_b=4)).key() != bucket_for(_spec(bits_b=8)).key()

    def test_bucket_key_names_every_coordinate(self):
        # The census coordinate is accepted and ignored: no band keys dispatch.
        bucket = bucket_for(_spec(m=40, k=260, n=17, bits_a=2, bits_b=3), 0.3)
        assert bucket.key() == "40x384x24:2b3"
        assert bucket_for(_spec(bits_b=8)).key() != bucket_for(_spec()).key()

    def test_host_fingerprint_is_stable(self):
        assert host_fingerprint() == host_fingerprint()

    def test_host_fingerprint_names_interpreter_and_numpy(self):
        fields = host_fingerprint().split("/")
        assert len(fields) == 5
        py = ".".join(platform.python_version_tuple()[:2])
        assert fields[2] == f"py{py}"
        assert fields[3] == "numpy" + ".".join(np.__version__.split(".")[:2])
        assert fields[4]  # the linked BLAS, or "unknown"

    def test_fraction_bands_are_geometric(self):
        # The bands 1, 1/2, 1/4, ... no longer key a bucket: every band
        # shares the census-free key.
        keys = {bucket_for(ADJACENCY, 2.0 ** -band).key() for band in range(8)}
        assert keys == {bucket_for(ADJACENCY).key()} == {"256x256x16:1b8"}

    def test_fraction_band_rejects_out_of_range(self):
        # Nothing reads a census, so an out-of-range one keys no bucket and
        # moves no decision.
        dispatcher = CostModelDispatcher()
        want = _decide(dispatcher, ADJACENCY)
        for fraction in (-0.1, 1.5):
            dispatcher.observe_tile_fraction(fraction, nodes=ADJACENCY.m)
            assert bucket_for(ADJACENCY, fraction).key() == bucket_for(ADJACENCY).key()
            assert _decide(dispatcher, ADJACENCY) == want

    @pytest.mark.parametrize("band", range(5))
    def test_power_of_two_opens_its_band(self, band):
        # A band's lower edge and a hair below it were two buckets; one now.
        edge = 2.0 ** -(band + 1)
        assert bucket_for(ADJACENCY, edge).key() == bucket_for(ADJACENCY, edge * (1 - 1e-12)).key()

    def test_band_never_decreases_as_fraction_falls(self):
        keys = {bucket_for(ADJACENCY, 1.0 - i / 1000).key() for i in range(1001)}
        assert keys == {bucket_for(ADJACENCY).key()}


@pytest.fixture(scope="module")
def round_parts():
    rng = np.random.default_rng(5)
    graph = planted_partition_graph(
        96, 480, num_communities=4, feature_dim=10, num_classes=3, rng=rng
    )
    members = induced_subgraphs(graph, metis_like_partition(graph, 4))
    model = make_batched_gin(10, 3, hidden_dim=16, seed=2)
    engine = InferenceEngine(model, ServingConfig(feature_bits=8, batch_size=4))
    batch = SubgraphBatch(members=tuple(members))
    adjacency = engine.packed_adjacency_for(batch)
    return engine, batch, adjacency, engine.plan_for(batch, adjacency=adjacency)


class TestHarnessCalls:
    """The calls ``settle.py`` and ``ledger.py`` make, in their order."""

    def test_settle_times_only_the_served_backend(self, round_parts):
        engine, batch, adjacency, plan = round_parts
        live = engine.dispatcher
        assert live is not None
        analytic = CostModelDispatcher(
            engine.config.device,
            blas_bytes_budget=live.blas_bytes_budget,
            rates=live.rates,
            registry=live.registry,
        )
        analytic.observe_tile_fraction(adjacency.nonzero_fraction, nodes=batch.num_nodes)
        for step in plan.gemm_steps():
            spec = step.spec
            prices = analytic.decide(spec.m, spec.k, spec.n, spec.bits_a, spec.bits_b).prices
            assert set(prices) == {"blas", "packed"}
            allowed = {n: p.seconds for n, p in prices.items() if not p.vetoed}
            ceiling = 8.0 * min(allowed.values())
            assert [n for n, s in allowed.items() if s <= ceiling] == [step.backend]
            assert math.isinf(prices["packed"].seconds)
            fraction = adjacency.nonzero_fraction if spec.role == "aggregate" else None
            assert isinstance(bucket_for(spec, fraction).key(), str)

    def test_recorded_timings_and_stale_scans_change_nothing(self, round_parts):
        engine, batch, adjacency, plan = round_parts
        templates = len(engine.plan_artifacts.segment("template"))
        dispatcher = engine.dispatcher
        assert engine.config.record_timings and engine.config.table_min_samples >= 1
        for step in plan.gemm_steps():
            dispatcher.record_timing(step.spec, "packed", 1e-12, tile_fraction=0.5)
        assert engine.invalidate_stale_plans() == []
        assert len(engine.stale_plans()) == 0
        assert len(engine.plan_artifacts.segment("template")) == templates
        assert engine.plan_for(batch, adjacency=adjacency) is plan
        assert set(plan.backends()) == {"blas"}

    def test_an_over_budget_product_prices_packed_and_vetoes_blas(self):
        prices = CostModelDispatcher().decide(12_000, 12_000, 64, 1, 8).prices
        assert prices["blas"].vetoed and math.isinf(prices["blas"].seconds)
        assert not prices["packed"].vetoed and math.isfinite(prices["packed"].seconds)


#: Served shapes and one past the working-set budget.
SHAPES = [(256, 256, 16, 1, 8), (64, 128, 16, 8, 8), (12_000, 12_000, 64, 1, 8)]


def _answers(dispatcher) -> list:
    return [dispatcher.decide(*shape) for shape in SHAPES]


class TestBucketIn:
    """A step's census bucket was memoised per fraction; a bound step now
    shares its template's ``derived`` memo, and no round asks for a bucket."""

    def test_memoises_while_the_fraction_holds(self, round_parts, monkeypatch):
        engine, batch, adjacency, plan = round_parts
        spy = mock.Mock(wraps=dispatch_shim.bucket_for)
        for module in (dispatch_shim, autotune):
            monkeypatch.setattr(module, "bucket_for", spy)
        engine.infer(list(batch.members))
        memos = [step.derived for step in plan.gemm_steps()]
        assert all(memos)
        engine.infer(list(batch.members))
        assert engine.plan_for(batch, adjacency=adjacency) is plan
        assert all(step.derived is memo for step, memo in zip(plan.gemm_steps(), memos))
        assert not spy.called

    def test_rebuckets_when_the_fraction_changes(self):
        # Another census at the same node count binds the template: its
        # steps share the memos, so nothing is re-bucketed or re-derived.
        graph = planted_partition_graph(
            320, 1800, num_communities=8, feature_dim=12, num_classes=3,
            rng=np.random.default_rng(11),
        )
        members = induced_subgraphs(graph, metis_like_partition(graph, 8))[:4]
        engine = InferenceEngine(make_batched_gin(12, 3, hidden_dim=16), ServingConfig())
        first, second = (SubgraphBatch(members=tuple(m)) for m in (members, members[::-1]))
        fractions = [engine.packed_adjacency_for(b).nonzero_fraction for b in (first, second)]
        assert fractions[0] != fractions[1]
        plan, bound = engine.plan_for(first), engine.plan_for(second)
        assert bound.backends() == plan.backends()
        for step, twin in zip(plan.gemm_steps(), bound.gemm_steps()):
            assert twin.derived is step.derived

    def test_memos_are_not_shared(self, round_parts):
        # Each node count compiles its own template, with its own memos.
        engine, batch, _, plan = round_parts
        smaller = engine.plan_for(SubgraphBatch(members=batch.members[:2]))
        for step, other in zip(plan.gemm_steps(), smaller.gemm_steps()):
            assert other.spec.m != step.spec.m or other.spec.k != step.spec.k
            assert other.derived is not step.derived


class TestDispatchTableConfidence:
    """No timing is kept, so none (too few, too many, bad or concurrent)
    moves a decision."""

    def test_below_min_samples_is_not_consulted(self):
        # ``table_min_samples`` is read by nothing: every floor compiles the
        # same plan.
        model = make_batched_gin(10, 3, hidden_dim=16, seed=2)
        plans = [
            InferenceEngine(
                model, ServingConfig(feature_bits=8, table_min_samples=floor)
            ).compile_plan(96, ("adjacency", "probe"))
            for floor in (1, 2, 64)
        ]
        assert plans[0] == plans[1] == plans[2]
        assert set(plans[0].backends()) == {"blas"}

    def test_sample_ring_is_bounded(self):
        dispatcher = CostModelDispatcher()
        before = dict(vars(dispatcher))
        for s in range(1000):
            dispatcher.record_timing(ADJACENCY, "packed", float(s))
        assert vars(dispatcher) == before

    def test_ring_keeps_the_newest_samples_of_a_batch(self):
        # The newest samples of a batch time packed fastest; blas serves.
        dispatcher = CostModelDispatcher()
        for seconds in (10.0, 20.0, 30.0, 1e-9, 2e-9):
            dispatcher.record_timing(ADJACENCY, "packed", seconds)
        assert _decide(dispatcher, ADJACENCY).engine == "blas"

    def test_one_sample_ring_prices_the_latest(self):
        # The served price is the rule's, not the latest sample.
        dispatcher = CostModelDispatcher()
        want = _decide(CostModelDispatcher(), ADJACENCY).prices["blas"]
        for seconds in (5e-3, 1e-3, 7e-3):
            dispatcher.record_timing(ADJACENCY, "blas", seconds)
            assert _decide(dispatcher, ADJACENCY).prices["blas"] == want

    def test_cells_never_age_out(self):
        # The answer has no horizon: samples elsewhere leave it as it was.
        dispatcher = CostModelDispatcher()
        want = _decide(dispatcher, ADJACENCY)
        for _ in range(1000):
            dispatcher.record_timing(_spec(bits_b=8), "packed", 1e-9)
        assert _decide(dispatcher, ADJACENCY) == want

    def test_recording_only_ever_raises_confidence(self):
        # At every point of a recording sequence the answer is the rule's.
        dispatcher = CostModelDispatcher()
        for seconds in (1e-4, 3e-4, 9e-3, 9e-3, 9e-3):
            dispatcher.record_timing(ADJACENCY, "blas", seconds)
            assert _decide(dispatcher, ADJACENCY).engine == static_backend(256, 256, 16, 1, 8)

    def test_min_samples_is_per_backend_cell(self):
        # Samples of either backend alone never make the other one served.
        for backend in ("blas", "packed"):
            dispatcher = CostModelDispatcher()
            for _ in range(3):
                dispatcher.record_timing(ADJACENCY, backend, 1e-9)
            assert _answers(dispatcher) == _answers(CostModelDispatcher())

    def test_zero_seconds_is_a_valid_sample(self):
        dispatcher = CostModelDispatcher()
        dispatcher.record_timing(ADJACENCY, "packed", 0.0)
        assert _answers(dispatcher) == _answers(CostModelDispatcher())

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_bad_sample_rejects_the_whole_batch(self, position):
        # A negative sample anywhere in a round's batch reaches nothing.
        batch = [("packed", 1e-3), ("blas", 2e-3), ("packed", 3e-3)]
        batch[position] = (batch[position][0], -1e-9)
        dispatcher = CostModelDispatcher()
        for backend, seconds in batch:
            dispatcher.record_timing(ADJACENCY, backend, seconds)
        assert _answers(dispatcher) == _answers(CostModelDispatcher())

    def test_empty_batch_is_a_no_op(self, round_parts):
        engine = round_parts[0]
        before = (engine.stats.batches, len(engine.plan_cache), dict(engine.stats.backend_seconds))
        assert engine.infer([]) == []
        assert (engine.stats.batches, len(engine.plan_cache), dict(engine.stats.backend_seconds)) == before

    def test_concurrent_recorders_lose_no_sample(self):
        # Shards recording and deciding at once all read the rule's answers.
        dispatcher = CostModelDispatcher()
        want = _answers(dispatcher)
        barrier = threading.Barrier(4)
        seen = []

        def shard(i):
            barrier.wait()
            for s in range(100):
                dispatcher.record_timing(ADJACENCY, ("blas", "packed")[(i + s) % 2], 1e-6 * s)
                seen.append(_answers(dispatcher))

        threads = [threading.Thread(target=shard, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 400 and all(got == want for got in seen)

    def test_rejects_invalid_parameters(self):
        # A floor nothing reads has no invalid value: zero serves as before.
        model = make_batched_gin(10, 3, hidden_dim=16, seed=2)
        zero = InferenceEngine(model, ServingConfig(feature_bits=8, table_min_samples=0))
        default = InferenceEngine(model, ServingConfig(feature_bits=8))
        key = ("adjacency", "probe")
        assert zero.compile_plan(96, key) == default.compile_plan(96, key)

    @pytest.mark.parametrize("seconds", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, seconds):
        # A non-finite sample has no median to skew.
        dispatcher = CostModelDispatcher()
        dispatcher.record_timing(ADJACENCY, "packed", seconds)
        dispatcher.record_timing(ADJACENCY, "blas", seconds)
        answers = _answers(dispatcher)
        assert answers == _answers(CostModelDispatcher())
        assert all(math.isfinite(d.prices[d.engine].seconds) for d in answers)


class TestDispatchTableContents:
    """A session holds no table; what it ran is in ``stats.backend_seconds``."""

    def test_empty_table(self, round_parts):
        engine = round_parts[0]
        assert "table" not in PlanCache.KNOWN_KINDS
        assert "table" not in engine.plan_artifacts.kinds()
        assert not hasattr(engine, "dispatch_table")

    def test_buckets_and_backends_list_what_was_recorded(self, round_parts):
        engine, batch, _, plan = round_parts
        engine.infer(list(batch.members))
        assert set(engine.stats.backend_seconds) == set(plan.backends()) == {"blas"}
        assert all(s > 0 for s in engine.stats.backend_seconds.values())

    def test_record_spec_returns_the_bucket_it_filled(self):
        # A harness row is filed under the census-free bucket.
        spec = _spec(m=40, k=260, n=17, bits_a=1, bits_b=3)
        assert bucket_for(spec, 0.3).key() == bucket_for(spec).key() == "40x384x24:1b3"

    def test_census_band_separates_samples_of_one_shape(self):
        # One shape is one bucket: dense, sparse and unknown census alike.
        assert len({bucket_for(ADJACENCY, f).key() for f in (0.9, 0.05, None)}) == 1


class TestTunedPricing:
    """No median reprices a backend: the rule's answer is the price."""

    def test_tuned_median_overrides_model(self):
        dispatcher = CostModelDispatcher()
        for _ in range(8):
            dispatcher.record_timing(_spec(), "packed", 123e-6)
        decision = _decide(dispatcher, _spec())
        assert decision.engine == "blas"
        assert math.isinf(decision.prices["packed"].seconds)

    def test_tuned_price_is_the_median_not_the_mean(self):
        # One descheduled outlier reprices nothing.
        dispatcher = CostModelDispatcher()
        want = _decide(dispatcher, _spec())
        for seconds in (1e-4, 1e-4, 1.0):
            dispatcher.record_timing(_spec(), "blas", seconds)
        assert _decide(dispatcher, _spec()) == want

    def test_other_census_band_falls_back_to_model(self):
        dispatcher = CostModelDispatcher()
        dispatcher.record_timing(ADJACENCY, "packed", 1e-9, tile_fraction=0.9)
        for fraction in (0.95, 0.05):
            dispatcher.observe_tile_fraction(fraction, nodes=ADJACENCY.m)
            assert _decide(dispatcher, ADJACENCY).engine == "blas"

    def test_unmeasured_bucket_falls_back_to_model(self):
        dispatcher = CostModelDispatcher()
        dispatcher.record_timing(_spec(bits_b=8), "packed", 1e-3)
        for spec in (_spec(), _spec(bits_b=8)):
            assert _decide(dispatcher, spec).engine == static_backend(
                spec.m, spec.k, spec.n, spec.bits_a, spec.bits_b
            )

    def test_memory_veto_outranks_measurement(self):
        # blas timed blazing fast on an 8-bit 8192^3 product is still vetoed.
        dispatcher = CostModelDispatcher()
        spec = _spec(m=8192, k=8192, n=8192, bits_a=8, bits_b=8)
        dispatcher.record_timing(spec, "blas", 1e-12)
        decision = _decide(dispatcher, spec)
        assert decision.prices["blas"].vetoed and math.isinf(decision.prices["blas"].seconds)
        assert decision.engine == "packed"

    def test_pricerless_backend_becomes_routable_once_tuned(self):
        # An extra backend serves only when forced: timing it fastest routes
        # nothing to it.
        oracle = register_backend(replace(default_registry().get("packed"), name="oracle"))
        try:
            dispatcher = CostModelDispatcher()
            dispatcher.record_timing(_spec(), "oracle", 1e-12)
            decision = _decide(dispatcher, _spec())
            assert decision.engine == "blas" and "oracle" not in decision.prices
            assert compile_gemm_step(_spec(), engine="oracle").backend == "oracle"
        finally:
            default_registry().unregister(oracle.name)

    def test_tuned_price_keeps_model_bytes_estimate(self):
        # The veto reads the exact float working set, either side of the
        # budget, whatever was timed.
        dispatcher = CostModelDispatcher()
        m = k = 8192
        n = (BLAS_BYTES_BUDGET // 4 - m * k) // (k + m)
        for cols, vetoed in ((n, False), (n + 1, True)):
            dispatcher.record_timing(_spec(m=m, k=k, n=cols, bits_a=1, bits_b=8), "blas", 1e-3)
            assert dispatcher.decide(m, k, cols, 1, 8).prices["blas"].vetoed is vetoed

    def test_online_samples_update_the_consulted_bucket(self, round_parts):
        # A live session's decide -> record -> decide loop answers the same.
        plan, dispatcher = round_parts[3], round_parts[0].dispatcher
        for step in plan.gemm_steps():
            before = _decide(dispatcher, step.spec)
            dispatcher.record_timing(step.spec, "packed", 1e-12)
            dispatcher.record_timing(step.spec, "blas", 10.0)
            assert _decide(dispatcher, step.spec) == before
            assert before.engine == step.backend

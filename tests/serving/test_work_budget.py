"""Deterministic work budget of a ``blas``-routed serving round.

Call counts, not seconds — it cannot flake on a slow host.  A warm round
does no bit-level work at all (no activation words, no adjacency scatter,
no decode, no word-wide ballot) and hashes each member once; a structure
miss concatenates the members' CSRs and scatters no word at all — the
adjacency's words are packed once per structure by their first reader (a
``packed`` round, a recovered step), if there is one — and the 1-bit
quantizer's threshold is derived once per calibration site.  Nor does a
warm round re-derive what is a pure function of the artifacts it
has just hit in the cache — kernel counters, the modeled report, GEMM
specs — or read its activation codes a second time to range-check them;
and those derivations die with the artifact they hang on.  A plan miss,
static or a dynamic mutation, over a seen shape prices nothing.  With the
native kernel, a warm round runs no NumPy Eq. 2 and no row-sum GEMV, and
its peak memory holds no float64 activation (a named ``tracemalloc``
bound).
"""

from __future__ import annotations

import gc
import hashlib
import sys
import tracemalloc
import weakref
from functools import cached_property, partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import bitdecomp, bitpack, native
from repro.core.quantization import QuantParams
from repro.faultinject import FaultPlan, FaultSpec
from repro.gnn import make_batched_gin, make_cluster_gcn, quantized_forward
from repro.gnn import quantized as quantized_module
from repro.gnn.quantized import ActivationCalibration, pack_batch_adjacency
from repro.graph import induced_subgraphs
from repro.graph.batching import SubgraphBatch
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.plan.ir import GemmSpec
from repro.runtime import executor as runtime_executor
from repro.runtime.executor import QGTCRunConfig, modeled_plan_report
from repro.serving import InferenceEngine, ServingConfig
from repro.serving import engine as engine_module
from repro.tc import kernel as tc_kernel


def _counting(counts, name, real):
    """``real`` wrapped to count its calls under ``counts[name]``."""

    def spy(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    return spy


@pytest.fixture
def spies(monkeypatch):
    """Call counters on the bit-level workers, under every name they are
    imported by inside ``repro``."""
    counts = dict.fromkeys(
        ["pack_matrix", "pack_edges", "tile_nonzero_mask", "_csr_from_words", "blake2b"], 0
    )
    counting = partial(_counting, counts)

    for name in ("pack_matrix", "pack_edges", "tile_nonzero_mask"):
        real = getattr(bitpack, name)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, name, None) is real
            ):
                monkeypatch.setattr(module, name, counting(name, real))
    monkeypatch.setattr(
        bitpack.Operand,
        "_csr_from_words",
        counting("_csr_from_words", bitpack.Operand._csr_from_words),
    )
    # Only the engine's member digests: verified cache segments hash too.
    monkeypatch.setattr(
        engine_module,
        "hashlib",
        SimpleNamespace(blake2b=counting("blake2b", hashlib.blake2b)),
    )
    return counts


def _eight_subgraphs():
    g = planted_partition_graph(
        320, 1800, num_communities=8, feature_dim=12, num_classes=3,
        rng=np.random.default_rng(11),
    )
    return induced_subgraphs(g, metis_like_partition(g, 8))


def test_one_bit_blas_round_work_budget(spies):
    subgraphs = _eight_subgraphs()
    first, second = subgraphs[:4], subgraphs[4:]
    engine = InferenceEngine(
        make_cluster_gcn(12, 3), ServingConfig(feature_bits=1, engine="blas", batch_size=4)
    ).warm_up()

    def round_counts(members):
        for name in spies:
            spies[name] = 0
        results = engine.infer(members)
        return dict(spies), [r.logits for r in results]

    miss, cold_logits = round_counts(first)
    assert miss == {
        "pack_matrix": 0,
        "pack_edges": 0,
        "tile_nonzero_mask": 0,
        "_csr_from_words": 0,
        "blake2b": len(first),
    }
    warm, warm_logits = round_counts(first)
    assert warm == {
        "pack_matrix": 0,
        "pack_edges": 0,
        "tile_nonzero_mask": 0,
        "_csr_from_words": 0,
        "blake2b": 0,
    }
    for cold, again in zip(cold_logits, warm_logits):
        np.testing.assert_array_equal(cold, again)
    # A second structure is a miss again: no scatter, nothing read back.
    assert round_counts(second)[0] == {**miss, "blake2b": len(second)}
    assert engine.stats.tiles_skipped > 0  # the ballot still feeds the counters


class _ReduceatSpy:
    """``np.add`` with its ``reduceat`` calls counted."""

    def __init__(self, counts):
        self.counts, self.ufunc = counts, np.add

    def __call__(self, *args, **kwargs):
        return self.ufunc(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.ufunc, name)

    def reduceat(self, *args, **kwargs):
        self.counts["reduceat"] += 1
        return self.ufunc.reduceat(*args, **kwargs)


@pytest.fixture
def rebuilds(monkeypatch):
    """Call counters on what a structure miss could rebuild: the identity,
    sparse additions and duplicate summing on the CSR class every adjacency
    is built in, and ``np.add.reduceat``."""
    import scipy.sparse as sp

    counts = dict.fromkeys(["identity", "__add__", "sum_duplicates", "reduceat"], 0)
    monkeypatch.setattr(sp, "identity", _counting(counts, "identity", sp.identity))
    for name in ("__add__", "sum_duplicates"):
        real = getattr(sp.csr_matrix, name)
        monkeypatch.setattr(sp.csr_matrix, name, _counting(counts, name, real))
    monkeypatch.setattr(np, "add", _ReduceatSpy(counts))
    return counts


def test_cold_round_over_seen_members_rebuilds_nothing(rebuilds):
    """A member's self-looped CSR is derived on its first sight — one
    identity, one addition, one duplicate sum per member — and a later
    structure miss over members seen before concatenates them: no scipy
    rebuild.  Nor does a round's 1-bit ballot of its activation codes
    reduce twice; it is one GEMM."""
    subgraphs = _eight_subgraphs()
    first, second = subgraphs[:4], subgraphs[4:]
    engine = InferenceEngine(
        make_cluster_gcn(12, 3),
        ServingConfig(
            feature_bits=1, engine="blas", batch_size=4,
            adjacency_cache_capacity=1, plan_cache_capacity=1,
        ),
    ).warm_up()

    def miss_counts(members):
        for name in rebuilds:
            rebuilds[name] = 0
        misses = engine.stats.adjacency_cache.misses
        engine.infer(members)
        assert engine.stats.adjacency_cache.misses == misses + 1
        return dict(rebuilds)

    seen = dict.fromkeys(rebuilds, 0)
    for members in (first, second):
        assert miss_counts(members) == {
            **dict.fromkeys(["identity", "__add__", "sum_duplicates"], len(members)),
            "reduceat": 0,
        }
    for members in (first, second, first):
        assert miss_counts(members) == seen


def test_adjacency_words_are_packed_once_by_their_first_reader(spies):
    """Whoever reads the §4.2 words first — a round routed to ``packed``, a
    ``kernel`` fault recovered ``blas -> packed`` on a cold miss — packs them
    once per structure (not per layer, not per replay), and the logits are
    the ``blas`` round's."""
    subgraphs = _eight_subgraphs()
    structures = subgraphs[:4], subgraphs[4:]
    model = make_cluster_gcn(12, 3)
    assert model.num_layers > 1  # several aggregations share one adjacency

    def serve(engine_name, fault_plan=None):
        engine = InferenceEngine(
            model,
            ServingConfig(feature_bits=1, engine=engine_name, batch_size=4),
            fault_plan=fault_plan,
        ).warm_up()
        scatters, logits = [], []
        for members in (structures[0], structures[0], structures[1]):
            spies["pack_edges"] = 0
            logits.append([r.logits for r in engine.infer(members)])
            scatters.append(spies["pack_edges"])
        assert spies["_csr_from_words"] == 0
        return engine, scatters, logits

    def assert_same_logits(golden, logits):
        for want, got in zip(golden, logits):
            for a, b in zip(want, got):
                np.testing.assert_array_equal(a, b)

    _, scatters, golden = serve("blas")
    assert scatters == [0, 0, 0]
    _, scatters, logits = serve("packed")
    assert scatters == [1, 0, 1]  # miss, replay, second structure
    assert_same_logits(golden, logits)
    # Probes 0 and 3 are the cold miss's first two aggregations on ``blas``
    # (1 is the first one's ``packed`` retry, 2 the update between them).
    faults = FaultPlan(seed=0, specs=[FaultSpec("kernel", at=(0, 3))])
    engine, scatters, logits = serve("blas", faults)
    assert [e.detail for e in faults.events] == ["aggregate/L0:blas", "aggregate/L1:blas"]
    assert engine.stats.step_retries == 2
    assert scatters == [1, 0, 0]
    assert_same_logits(golden, logits)


def test_one_bit_threshold_is_derived_once_per_calibration_site(monkeypatch):
    """Eq. 2's 1-bit threshold is a property of the frozen parameters: a
    miss derives it where it calibrates, and no later round derives it."""
    counts = {"threshold": 0}
    spy = cached_property(
        _counting(counts, "threshold", QuantParams.__dict__["threshold"].func)
    )
    spy.__set_name__(QuantParams, "threshold")
    monkeypatch.setattr(QuantParams, "threshold", spy)

    subgraphs = _eight_subgraphs()
    model = make_cluster_gcn(12, 3)
    calibration = ActivationCalibration()
    engine = InferenceEngine(
        model,
        ServingConfig(feature_bits=1, engine="blas", batch_size=4),
        calibration=calibration,
    ).warm_up()
    assert counts["threshold"] == model.num_layers  # the weights, packed once
    engine.infer(subgraphs[:4])
    sites = len(calibration)
    assert sites == 2 * model.num_layers
    assert counts["threshold"] == model.num_layers + sites
    engine.infer(subgraphs[:4])  # a replay
    engine.infer(subgraphs[4:])  # a second structure
    assert counts["threshold"] == model.num_layers + sites


# --------------------------------------------------------------------- #
# Replay-invariant derivations: once per artifact, dead with the artifact
# --------------------------------------------------------------------- #
@pytest.fixture
def derivations(monkeypatch):
    """Call counters on what a replay must look up rather than recompute:
    the executor's per-step counter derivation (``tc.kernel``'s binding —
    the modeled report's own calls go through ``runtime.executor``'s), the
    modeled report, ``GemmSpec`` construction and the codes range check."""
    counts = dict.fromkeys(
        ["derive_tile_counters", "_modeled_report", "GemmSpec", "check_codes"], 0
    )
    counting = partial(_counting, counts)

    monkeypatch.setattr(
        tc_kernel, "derive_tile_counters",
        counting("derive_tile_counters", tc_kernel.derive_tile_counters),
    )
    monkeypatch.setattr(
        runtime_executor, "_modeled_report",
        counting("_modeled_report", runtime_executor._modeled_report),
    )
    monkeypatch.setattr(
        GemmSpec, "__post_init__", counting("GemmSpec", GemmSpec.__post_init__)
    )
    for module in (bitpack, bitdecomp):
        monkeypatch.setattr(
            module, "check_codes", counting("check_codes", bitdecomp.check_codes)
        )
    return counts


@pytest.fixture
def structures():
    g = planted_partition_graph(
        480, 2700, num_communities=12, feature_dim=12, num_classes=3,
        rng=np.random.default_rng(7),
    )
    subgraphs = induced_subgraphs(g, metis_like_partition(g, 12))
    return [subgraphs[i : i + 4] for i in range(0, 12, 4)]


def test_warm_round_derives_nothing_a_miss_derives_once(derivations, structures):
    model = make_batched_gin(12, 3, hidden_dim=16, seed=4)
    engine = InferenceEngine(
        model, ServingConfig(feature_bits=8, engine="blas", batch_size=4)
    ).warm_up()

    def round_counts(members):
        for name in derivations:
            derivations[name] = 0
        engine.infer(members)
        return dict(derivations)

    for members in structures[:2]:
        miss = round_counts(members)
        # Once per GEMM step — two aggregations of one width over one
        # census are one launch geometry, hence one derivation.
        plan = engine.plan_for(SubgraphBatch(members=tuple(members)))
        steps = list(plan.gemm_steps())
        assert len(steps) == 2 * model.num_layers
        assert miss["derive_tile_counters"] == len({step.spec for step in steps})
        assert miss["_modeled_report"] == 1  # once per round
        assert miss["GemmSpec"] > 0  # the plan compiles, the report models
        assert miss["check_codes"] == 0  # activations are proven, not re-read
    for members in structures[:2] * 2:
        assert round_counts(members) == dict.fromkeys(derivations, 0)


def test_a_plan_miss_over_a_seen_shape_prices_nothing(monkeypatch, structures):
    """Dispatch is priced once per ``(node count, census band)``: a plan
    miss over a shape seen before binds that shape's template, with no
    ``decide`` and no compile; a first sight prices each GEMM once."""
    from repro.plan import ir
    from repro.serving import CostModelDispatcher

    counts = dict.fromkeys(["decide", "compile_forward_plan"], 0)
    monkeypatch.setattr(
        CostModelDispatcher, "decide",
        _counting(counts, "decide", CostModelDispatcher.decide),
    )
    monkeypatch.setattr(
        engine_module, "compile_forward_plan",
        _counting(counts, "compile_forward_plan", ir.compile_forward_plan),
    )
    model = make_cluster_gcn(12, 3)
    engine = InferenceEngine(
        model, ServingConfig(feature_bits=1, batch_size=4, plan_cache_capacity=1)
    ).warm_up()
    first, second = structures[:2]
    assert sum(s.num_nodes for s in first) != sum(s.num_nodes for s in second)

    def miss_counts(members):
        for name in counts:
            counts[name] = 0
        misses = engine.stats.plan_cache.misses
        engine.infer(members)
        assert engine.stats.plan_cache.misses == misses + 1
        return dict(counts)

    first_sight = {"decide": 2 * model.num_layers, "compile_forward_plan": 1}
    assert miss_counts(first) == miss_counts(second) == first_sight
    for members in (first, second, first):
        assert miss_counts(members) == dict.fromkeys(counts, 0)


def test_a_mutation_over_a_seen_shape_prices_and_sorts_nothing(monkeypatch):
    """A ``DynamicSession`` mutation binds the engine's template for the
    graph's ``(node count, census band)``: when that pair was seen before
    it makes no ``decide`` call, compiles nothing and sorts no census."""
    from repro.dynamic import DynamicSession
    from repro.graph.csr import CSRGraph
    from repro.plan import ir
    from repro.plan.autotune import fraction_band
    from repro.serving import CostModelDispatcher

    rng = np.random.default_rng(0)
    n = 320
    graph = CSRGraph.from_edges(
        n,
        rng.integers(0, n, size=(60, 2)),
        features=rng.standard_normal((n, 8)).astype(np.float32),
    )
    session = DynamicSession(
        make_cluster_gcn(8, 4, seed=1), graph, ServingConfig(record_timings=False)
    )
    session.serve()
    band = fraction_band(session.mutable.nonzero_fraction)

    counts = dict.fromkeys(["decide", "compile_forward_plan", "unique"], 0)
    monkeypatch.setattr(
        CostModelDispatcher, "decide",
        _counting(counts, "decide", CostModelDispatcher.decide),
    )
    monkeypatch.setattr(
        engine_module, "compile_forward_plan",
        _counting(counts, "compile_forward_plan", ir.compile_forward_plan),
    )
    monkeypatch.setattr(np, "unique", _counting(counts, "unique", np.unique))
    # Edges inside diagonal tiles: every mutation keeps the census band.
    for edit in (("insert", 0, 1), ("insert", 2, 3), ("delete", 0, 1), ("insert", 4, 5)):
        session.mutate([edit])
        assert fraction_band(session.mutable.nonzero_fraction) == band
        assert counts == dict.fromkeys(counts, 0)
    assert session.stats.plans_patched == 4


def test_replayed_counters_equal_fresh_derivations_times_replays(structures):
    model = make_batched_gin(12, 3, hidden_dim=16, seed=4)
    config = ServingConfig(feature_bits=8, engine="blas", batch_size=4)
    calibration = ActivationCalibration()
    engine = InferenceEngine(model, config, calibration=calibration).warm_up()
    members = structures[0]
    engine.infer(members)
    before = (engine.stats.mma_ops, engine.stats.tiles_total, engine.stats.tiles_skipped)
    device_before = engine.device_report.total_s(), engine.device_report.mma_ops
    replays = 5
    for _ in range(replays):
        engine.infer(members)

    # One fresh forward with nothing pre-bound: its own adjacency, its own
    # plan, a report modeled from scratch.
    batch = SubgraphBatch(members=tuple(members))
    adjacency = pack_batch_adjacency(batch)
    fresh = quantized_forward(
        model, batch, feature_bits=8, calibration=calibration,
        packed_adjacency=adjacency, engine="blas",
    ).total_counters
    report = modeled_plan_report(
        model,
        QGTCRunConfig(feature_bits=8, weight_bits=8, kernel=config.kernel),
        num_nodes=batch.num_nodes,
        tile_plan=adjacency.plan,
        device=config.device,
    )
    assert fresh.tiles_skipped > 0
    after = (engine.stats.mma_ops, engine.stats.tiles_total, engine.stats.tiles_skipped)
    assert tuple(a - b for a, b in zip(after, before)) == tuple(
        replays * each
        for each in (fresh.mma_ops, fresh.tiles_total, fresh.tiles_skipped)
    )
    assert engine.device_report.mma_ops - device_before[1] == replays * report.mma_ops
    assert engine.device_report.total_s() - device_before[0] == pytest.approx(
        replays * report.total_s(), rel=1e-12
    )


def test_evicted_adjacency_is_collectable_with_its_derivations(structures):
    """Nothing memoised for a replay may pin the artifact it describes: a
    side table keyed by the adjacency would keep every evicted one alive."""
    model = make_cluster_gcn(12, 3)
    engine = InferenceEngine(
        model,
        ServingConfig(
            feature_bits=4, engine="blas", batch_size=4,
            adjacency_cache_capacity=2, plan_cache_capacity=2,
        ),
    ).warm_up()
    first = SubgraphBatch(members=tuple(structures[0]))
    engine.infer(structures[0])
    engine.infer(structures[0])  # a warm replay: every memo is populated
    adjacency = engine.packed_adjacency_for(first)
    plan = engine.plan_for(first, adjacency=adjacency)
    assert adjacency.plan.derived and all(
        step.derived for step in plan.gemm_steps() if step.spec.role == "update"
    )
    refs = [weakref.ref(adjacency), weakref.ref(adjacency.plan), weakref.ref(plan)]
    del adjacency, plan
    for members in structures[1:]:  # two more structures: LRU evicts the first
        engine.infer(members)
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


# --------------------------------------------------------------------- #
# Identity, bindings and accounting: once per artifact, not once per round
# --------------------------------------------------------------------- #
class _CountingLock:
    """A lock wrapper counting its acquisitions."""

    def __init__(self, lock):
        self.lock, self.acquisitions = lock, 0

    def __enter__(self):
        self.acquisitions += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


@pytest.fixture
def rederivations(monkeypatch):
    """Call counters on what a hit holds already: the plan's ``repr`` and
    any digest hashed in the plan layer, the shape bucket, the exact GEMM
    dtype and engine-name resolution (under every name they are imported
    by), and ``SubgraphBatch`` construction."""
    # By module name: ``repro.plan.autotune`` and ``repro.core.bitgemm`` are
    # also functions their packages export.
    autotune, backends, cache, ir, registry, bitgemm, quantized = (
        sys.modules[f"repro.{name}"]
        for name in (
            "plan.autotune", "plan.backends", "plan.cache", "plan.ir",
            "plan.registry", "core.bitgemm", "gnn.quantized",
        )
    )
    counts = dict.fromkeys(
        ["repr", "blake2b", "bucket_for", "exact_gemm_dtype",
         "resolve_engine_name", "SubgraphBatch"], 0
    )
    counting = partial(_counting, counts)
    monkeypatch.setattr(
        ir.ExecutionPlan, "__repr__", counting("repr", ir.ExecutionPlan.__repr__)
    )
    for module in (ir, cache):
        monkeypatch.setattr(
            module, "hashlib",
            SimpleNamespace(blake2b=counting("blake2b", hashlib.blake2b)),
        )
    monkeypatch.setattr(
        autotune, "bucket_for", counting("bucket_for", autotune.bucket_for)
    )
    for name, home, importers in (
        ("exact_gemm_dtype", bitgemm, (quantized, backends)),
        ("resolve_engine_name", registry, (ir, quantized)),
    ):
        spy = counting(name, getattr(home, name))
        for module in (home, *importers):
            monkeypatch.setattr(module, name, spy)
    monkeypatch.setattr(
        SubgraphBatch, "__post_init__",
        counting("SubgraphBatch", SubgraphBatch.__post_init__),
    )
    return counts


def test_warm_round_rederives_nothing_its_artifacts_fix(rederivations, structures):
    """A plan-cache hit compares two sealed strings; a step's backend,
    dtype, label and bucket are bound to it on its first execution; the
    round is one batch and its samples reach the table under one lock."""
    model = make_batched_gin(12, 3, hidden_dim=16, seed=4)
    engine = InferenceEngine(
        model, ServingConfig(feature_bits=8, batch_size=4)
    ).warm_up()
    table_lock = engine.dispatch_table._lock = _CountingLock(
        engine.dispatch_table._lock
    )

    def round_counts(members):
        for name in rederivations:
            rederivations[name] = 0
        table_lock.acquisitions = 0
        engine.infer(members)
        return dict(rederivations), table_lock.acquisitions

    steps = 2 * model.num_layers
    miss, _ = round_counts(structures[0])
    # Compiled (one resolve per step) and bound on its first execution (one
    # more); a digest is sealed where the plan, and its template, enter
    # their verified segments.
    assert miss["resolve_engine_name"] == 2 * steps
    assert miss["repr"] == 2 and miss["blake2b"] == 2
    assert miss["SubgraphBatch"] == 1
    for _ in range(2):  # the first replay already finds everything bound
        warm, locks = round_counts(structures[0])
        assert warm == {**dict.fromkeys(rederivations, 0), "SubgraphBatch": 1}
        assert locks == 1
    assert engine.stats.autotune_samples == 3 * steps


def test_bindings_and_digests_die_with_what_they_hang_on(structures):
    """A step's bindings and a plan's digest live on the plan, a member's
    structure digest on the member — nothing else keeps either alive."""
    engine = InferenceEngine(
        make_cluster_gcn(12, 3),
        ServingConfig(feature_bits=4, batch_size=4, plan_cache_capacity=1,
                      adjacency_cache_capacity=1),
    ).warm_up()
    members = list(structures[0])
    engine.infer(members)
    engine.infer(members)
    plan = engine.plan_for(SubgraphBatch(members=tuple(members)))
    assert "digest" in plan.__dict__
    assert all(
        any(isinstance(key, tuple) for key in step.derived) and "bucket" in step.derived
        for step in plan.gemm_steps()
    )
    assert all("_member_key" in sub.__dict__ for sub in members)
    refs = [weakref.ref(plan), weakref.ref(members[0]), weakref.ref(members[0].graph)]
    del plan, members
    # ``structures`` (the fixture's list) still references the first four
    # members: drop them there too, then evict their plan.
    del structures[0]
    engine.infer(structures[0])
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


# --------------------------------------------------------------------- #
# Telemetry is derived off the round path
# --------------------------------------------------------------------- #
def test_warm_round_never_touches_derived_telemetry(monkeypatch, structures):
    """A round updates counters with plain ``+=``; the field-driven
    ``snapshot`` / ``merge`` / ``as_metrics`` (and the ``dataclasses.fields``
    walk under them) belong to whoever *reads* the stats."""
    import dataclasses

    from repro import telemetry

    counts = dict.fromkeys(["snapshot", "merge", "as_metrics", "fields"], 0)
    for name in ("snapshot", "merge", "as_metrics"):
        monkeypatch.setattr(
            telemetry.Counters, name,
            _counting(counts, name, getattr(telemetry.Counters, name)),
        )
    spy = _counting(counts, "fields", dataclasses.fields)
    monkeypatch.setattr(dataclasses, "fields", spy)
    monkeypatch.setattr(telemetry, "fields", spy)

    engine = InferenceEngine(
        make_batched_gin(12, 3, hidden_dim=16, seed=4),
        ServingConfig(feature_bits=8, batch_size=4),
    ).warm_up()
    engine.infer(structures[0])
    for name in counts:
        counts[name] = 0
    engine.infer(structures[0])  # warm
    engine.infer(structures[1])  # and a structure miss, for good measure
    assert counts == {"snapshot": 0, "merge": 0, "as_metrics": 0, "fields": 0}
    engine.stats.snapshot().as_metrics()  # the spies do see a reader
    assert counts["snapshot"] >= 1 and counts["as_metrics"] == 1 and counts["fields"] >= 2


@pytest.mark.timeout(120)
def test_stats_readers_never_disturb_serving_workers(structures):
    """Bounded, seeded stress: one thread snapshots the pool and builds
    PAGs in a loop while two workers serve 200 requests.  Nothing raises
    (a snapshot never iterates a live dict or ring), and the final totals
    are the quiescent sum — no reader lost or doubled an update."""
    import threading

    from repro.perf import build_pag
    from repro.serving import PoolConfig, ServingPool

    requests = [sub for members in structures for sub in members]
    requests = (requests * 17)[:200]
    errors: list[BaseException] = []
    reads = 0
    stop = threading.Event()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ServingPool(
            make_batched_gin(12, 3, hidden_dim=16, seed=4),
            ServingConfig(feature_bits=8, batch_size=4),
            pool=PoolConfig(workers=2),
        ) as pool:

            def read_loop():
                nonlocal reads
                try:
                    while not stop.is_set():
                        stats = pool.stats()
                        assert stats.requests >= 0
                        assert build_pag(pool).nodes("worker")
                        reads += 1
                except BaseException as exc:  # surfaced below, on the test thread
                    errors.append(exc)

            reader = threading.Thread(target=read_loop, daemon=True)
            reader.start()
            pool.serve(requests)
            stop.set()
            reader.join(timeout=30)
            assert not reader.is_alive()
            stats = pool.stats()
            engines = pool.workers
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and reads > 0
    assert stats.requests == len(requests) == sum(e.stats.requests for e in engines)
    assert stats.batches == sum(e.stats.batches for e in engines)
    assert stats.mma_ops == sum(e.stats.mma_ops for e in engines)
    assert stats.wall_s == pytest.approx(sum(e.stats.wall_s for e in engines))
    for phase, seconds in stats.phase_seconds.items():
        assert seconds == pytest.approx(
            sum(e.stats.phase_seconds.get(phase, 0.0) for e in engines)
        )


# --------------------------------------------------------------------- #
# A pool round makes no timed wait: the backlog is the batching window
# --------------------------------------------------------------------- #
@pytest.fixture
def shard_gets(monkeypatch):
    """Every ``get`` on a pool shard's request queue, as ``(block,
    timeout)`` — ``get_nowait`` included, which is ``get(block=False)``."""
    import queue

    from repro.serving import pool as pool_module

    calls: list[tuple[bool, float | None]] = []

    class RecordingQueue(queue.Queue):
        def get(self, block=True, timeout=None):
            calls.append((block, timeout))
            return super().get(block, timeout)

    monkeypatch.setattr(
        pool_module, "queue",
        SimpleNamespace(Queue=RecordingQueue, Empty=queue.Empty, Full=queue.Full),
    )
    return calls


@pytest.mark.timeout(120)
def test_pool_and_gateway_rounds_never_wait_on_a_timer(shard_gets, structures):
    """Through a 2-worker pool and the gateway, a shard blocks only for a
    round's first request and takes the rest of the round without
    waiting: no queue read carries a timeout."""
    from repro.serving import GatewayConfig, PoolConfig, ServingGateway, ServingPool

    requests = [sub for members in structures for sub in members]
    with ServingPool(
        make_batched_gin(12, 3, hidden_dim=16, seed=4),
        ServingConfig(feature_bits=8, batch_size=4),
        pool=PoolConfig(workers=2),
    ) as pool:
        pool.serve(requests)
        ServingGateway(pool, GatewayConfig(max_in_flight=16)).run(requests)
        stats = pool.stats()
    assert stats.requests == 2 * len(requests)
    assert {block for block, _ in shard_gets} == {True, False}
    assert [timeout for _, timeout in shard_gets if timeout is not None] == []


def test_lone_request_on_an_idle_shard_is_a_singleton_round(shard_gets, structures):
    from repro.serving import PoolConfig, ServingPool

    with ServingPool(
        make_batched_gin(12, 3, hidden_dim=16, seed=4),
        ServingConfig(feature_bits=8, batch_size=4),
        pool=PoolConfig(workers=1),
    ) as pool:
        pool.submit(structures[0][0]).result(timeout=30)
        stats = pool.stats()
    assert stats.batches == stats.requests == 1
    assert [timeout for _, timeout in shard_gets if timeout is not None] == []


# --------------------------------------------------------------------- #
# A dispatch table lives in memory: no pool mode writes one to disk
# --------------------------------------------------------------------- #
def test_thread_pool_rounds_never_serialise_the_dispatch_table(
    monkeypatch, structures, tmp_path
):
    """Thread shards record into one mounted table, so 100 rounds
    JSON-encode nothing and leave the ``spool_dir`` the repo benchmark
    still passes untouched; shutdown writes no file either."""
    import json

    from repro.serving import PoolConfig, ServingPool

    counts = {"dumps": 0}
    monkeypatch.setattr(json, "dumps", _counting(counts, "dumps", json.dumps))

    requests = [sub for members in structures for sub in members]
    pool = ServingPool(
        make_batched_gin(12, 3, hidden_dim=16, seed=4),
        ServingConfig(feature_bits=8, batch_size=4),
        pool=PoolConfig(workers=2, spool_dir=str(tmp_path / "spool")),
    )
    for i in range(100):  # one at a time: every request is its own round
        pool.submit(requests[i % len(requests)]).result(timeout=30)
    stats = pool.stats()
    pool.shutdown()
    assert stats.batches == 100 and stats.autotune_samples > 0
    assert counts == {"dumps": 0}
    assert list(tmp_path.iterdir()) == []


def test_process_pool_serve_writes_no_table_files(structures, tmp_path):
    """Forked shards return logits and stats only: ``serve()`` leaves the
    ``spool_dir`` absent and makes no temporary directory of its own."""
    import tempfile

    from repro.serving import PoolConfig, ServingPool

    scratch = Path(tempfile.gettempdir())
    before = set(scratch.glob("repro-pool-*"))
    spool = tmp_path / "spool"
    pool = ServingPool(
        make_batched_gin(12, 3, hidden_dim=16, seed=4),
        ServingConfig(feature_bits=8, batch_size=4),
        pool=PoolConfig(workers=2, mode="process", spool_dir=str(spool)),
    )
    results = pool.serve([sub for members in structures for sub in members])
    pool.shutdown()
    assert results and pool.stats().autotune_samples > 0
    assert not spool.exists() or list(spool.iterdir()) == []
    assert set(scratch.glob("repro-pool-*")) <= before


# --------------------------------------------------------------------- #
# A bound replay: the program's NumPy calls plus fixed-shape accounting
# --------------------------------------------------------------------- #
@pytest.fixture
def bindings(monkeypatch):
    """Call counters on what a bound program takes once: kernel configs and
    emulators, the pair and census checks, counter records and their
    merges, the shape bucket and a step-level binding (its exact dtype and
    its backend resolution, under every name they are imported by)."""
    from repro.tc.counters import KernelCounters

    # By module name: some are also functions their packages export.
    autotune, registry, bitgemm, quantized = (
        sys.modules[f"repro.{name}"]
        for name in ("plan.autotune", "plan.registry", "core.bitgemm", "gnn.quantized")
    )
    counts = dict.fromkeys(
        ["KernelConfig", "BitGemmKernel", "check_pair", "matches", "KernelCounters",
         "merge", "bucket_for", "exact_gemm_dtype", "resolve_engine_name"], 0
    )
    counting = partial(_counting, counts)
    for cls, method, name in (
        (tc_kernel.KernelConfig, "__post_init__", "KernelConfig"),
        (tc_kernel.BitGemmKernel, "__init__", "BitGemmKernel"),
        (tc_kernel.TileSkipPlan, "matches", "matches"),
        (KernelCounters, "__init__", "KernelCounters"),
        (KernelCounters, "merge", "merge"),
    ):
        monkeypatch.setattr(cls, method, counting(name, getattr(cls, method)))
    for name, home, importers in (
        ("check_pair", bitpack, (tc_kernel, bitgemm)),
        ("bucket_for", autotune, ()),
        ("exact_gemm_dtype", bitgemm, (quantized,)),
        ("resolve_engine_name", registry, (quantized,)),
    ):
        spy = counting(name, getattr(home, name))
        for module in (home, *importers):
            monkeypatch.setattr(module, name, spy)
    return counts


def test_a_bound_replay_is_numpy_calls_and_fixed_accounting(bindings, structures):
    """A second replay of a round constructs no kernel config, emulator or
    counter record, merges nothing, runs no pair or census check, buckets
    nothing and takes the dispatch table's lock once; a miss over a shape
    seen before binds no step-level record again."""
    model = make_batched_gin(12, 3, hidden_dim=16, seed=4)
    engine = InferenceEngine(
        model,
        ServingConfig(feature_bits=8, batch_size=4, plan_cache_capacity=1,
                      adjacency_cache_capacity=1),
    ).warm_up()
    table_lock = engine.dispatch_table._lock = _CountingLock(engine.dispatch_table._lock)

    def round_counts(members):
        for name in bindings:
            bindings[name] = 0
        table_lock.acquisitions = 0
        logits = [r.logits for r in engine.infer(members)]
        return dict(bindings), table_lock.acquisitions, logits

    first, seen, _ = round_counts(structures[0])  # binds
    assert first["BitGemmKernel"] == 1 and first["exact_gemm_dtype"] > 0
    _, _, bound_logits = round_counts(structures[0])  # the first replay
    counts, locks, logits = round_counts(structures[0])  # the second
    assert counts == dict.fromkeys(bindings, 0) and locks == 1
    for want, got in zip(bound_logits, logits):
        np.testing.assert_array_equal(want, got)
    assert engine.stats.plan_cache.hits >= 2

    round_counts(structures[1])  # evicts the first structure's artifacts
    misses = engine.stats.plan_cache.misses
    counts, _, logits = round_counts(structures[0])  # a miss over a seen shape
    assert engine.stats.plan_cache.misses == misses + 1
    assert counts["exact_gemm_dtype"] == counts["resolve_engine_name"] == 0
    for want, got in zip(bound_logits, logits):
        np.testing.assert_array_equal(want, got)


# --------------------------------------------------------------------- #
# A warm step is one native pass: no NumPy Eq. 2, no float64 activation
# --------------------------------------------------------------------- #
needs_kernel = pytest.mark.skipif(native.load() is None, reason="no C compiler on this host")


@needs_kernel
def test_a_warm_round_quantizes_and_sums_rows_natively(monkeypatch, structures):
    """The binding round runs Eq. 2 and the update steps' row sums in NumPy,
    one per step; a warm ``blas`` round runs neither — each step's tail
    writes the next step's codes and their row sums."""
    counts = dict.fromkeys(["quantize_into", "_row_sums"], 0)
    for name in counts:
        real = getattr(quantized_module, name)
        monkeypatch.setattr(quantized_module, name, _counting(counts, name, real))
    model = make_batched_gin(12, 3, hidden_dim=16, seed=4)
    engine = InferenceEngine(model, ServingConfig(feature_bits=8, engine="blas", batch_size=4))

    def round_counts():
        for name in counts:
            counts[name] = 0
        engine.infer(structures[0])
        return dict(counts)

    steps = 2 * model.num_layers
    assert round_counts() == {"quantize_into": steps, "_row_sums": model.num_layers}
    assert round_counts() == round_counts() == {"quantize_into": 0, "_row_sums": 0}


#: A warm round may hold, at its peak, three ``(n, hidden)`` buffers in the
#: step's exact dtype (float32 here: a product, its codes and the next
#: step's codes), the float64 features and logits, and this much of round
#: records; one float64 ``(n, hidden)`` intermediate is two float32 ones.
ROUND_RECORDS_BYTES = 64 << 10


@needs_kernel
def test_a_warm_round_allocates_no_float64_activation(monkeypatch, structures):
    """Peak traced memory of a warm ``blas`` round stays under the named
    bound; the NumPy tail, which widens every product into a float64
    activation, does not."""
    members = structures[0]
    n = sum(sub.num_nodes for sub in members)
    hidden, classes, features = 256, 3, 12
    bound = (3 * n * hidden * np.dtype(np.float32).itemsize
             + n * (features + classes) * np.dtype(np.float64).itemsize + ROUND_RECORDS_BYTES)

    def warm_peak():
        engine = InferenceEngine(
            make_batched_gin(features, classes, hidden_dim=hidden, seed=4),
            ServingConfig(feature_bits=8, engine="blas", batch_size=4),
        )
        engine.infer(members)
        engine.infer(members)
        tracemalloc.start()
        try:
            engine.infer(members)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert warm_peak() <= bound
    monkeypatch.setattr(native, "load", lambda: None)
    assert warm_peak() > bound + n * hidden * np.dtype(np.float64).itemsize // 2

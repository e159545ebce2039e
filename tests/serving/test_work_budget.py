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
static or a dynamic mutation, over a seen shape prices nothing, and a
dynamic mutate-and-serve binds the snapshot's own CSR.  With the
native kernel, a warm round runs no NumPy Eq. 2 and no row-sum GEMV, and
its peak memory holds no float64 activation (a named ``tracemalloc``
bound).
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import operator
import sys
import time
import tracemalloc
import weakref
from functools import cached_property, partial
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
from repro.plan import ir
from repro.plan.ir import GemmSpec
from repro.runtime import executor as runtime_executor
from repro.runtime.executor import QGTCRunConfig, modeled_plan_report
from repro.runtime.report import EpochReport
from repro.serving import BackendHealth, InferenceEngine, ServingConfig
from repro.serving import engine as engine_module
from repro.serving import supervision
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
    """Dispatch is decided once per node count: a plan miss over a shape
    seen before binds that shape's template, with no dispatch call and no
    compile; a first sight decides each GEMM once."""
    from repro.plan import ir

    counts = dict.fromkeys(["static_backend", "compile_forward_plan"], 0)
    monkeypatch.setattr(
        engine_module, "static_backend",
        _counting(counts, "static_backend", engine_module.static_backend),
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

    first_sight = {"static_backend": 2 * model.num_layers, "compile_forward_plan": 1}
    assert miss_counts(first) == miss_counts(second) == first_sight
    for members in (first, second, first):
        assert miss_counts(members) == dict.fromkeys(counts, 0)


def test_a_mutation_over_a_seen_shape_prices_and_sorts_nothing(monkeypatch):
    """A ``DynamicSession`` mutation binds the engine's template for the
    graph's node count: it makes no dispatch decision, compiles nothing and
    sorts no census."""
    from repro.dynamic import DynamicSession
    from repro.graph.csr import CSRGraph
    from repro.plan import ir

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

    counts = dict.fromkeys(["static_backend", "compile_forward_plan", "unique"], 0)
    monkeypatch.setattr(
        engine_module, "static_backend",
        _counting(counts, "static_backend", engine_module.static_backend),
    )
    monkeypatch.setattr(
        engine_module, "compile_forward_plan",
        _counting(counts, "compile_forward_plan", ir.compile_forward_plan),
    )
    monkeypatch.setattr(np, "unique", _counting(counts, "unique", np.unique))
    for edit in (("insert", 0, 1), ("insert", 2, 3), ("delete", 0, 1), ("insert", 4, 5)):
        session.mutate([edit])
        assert counts == dict.fromkeys(counts, 0)
    assert session.stats.plans_patched == 4


def test_a_dynamic_mutate_and_serve_packs_and_decodes_nothing(spies):
    """A ``DynamicSession`` round on a ``blas`` plan binds the snapshot's own
    CSR: ``mutate(8 edits)`` plus ``serve()`` packs no word, decodes no word
    back into a CSR and ballots no word-wide census."""
    from repro.dynamic import DynamicSession
    from repro.graph.csr import CSRGraph

    rng = np.random.default_rng(3)
    n = 320
    graph = CSRGraph.from_edges(
        n,
        rng.integers(0, n, size=(900, 2)),
        features=rng.standard_normal((n, 8)).astype(np.float32),
    )
    session = DynamicSession(
        make_cluster_gcn(8, 4, seed=1), graph, ServingConfig(engine="blas", record_timings=False)
    )
    session.serve()
    for _ in range(3):
        csr = session.mutable.to_csr()
        rows = np.repeat(np.arange(n), np.diff(csr.indptr))
        present = np.stack([rows, csr.indices], axis=1)[rows < csr.indices]
        absent = [(u, v) for u, v in rng.integers(0, n, size=(64, 2)).tolist()
                  if u != v and not session.mutable.has_edge(u, v)]
        edits = [("delete", *e) for e in rng.choice(present, 4, replace=False).tolist()]
        edits += [("insert", *e) for e in absent[:4]]
        for name in spies:
            spies[name] = 0
        assert len(session.mutate(edits).applied) == 8
        session.serve()
        assert {name: spies[name] for name in spies if name != "blake2b"} == {
            "pack_matrix": 0, "pack_edges": 0, "tile_nonzero_mask": 0, "_csr_from_words": 0,
        }
    assert session.stats.stale_kernel_hits == 0


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
    # The arrays too: a native entry bound once per template reads the CSR per call.
    held = (adjacency, adjacency.plan, plan, adjacency.operand, adjacency.csr.indptr, adjacency.csr.indices)
    refs = list(map(weakref.ref, held))
    del adjacency, plan, held
    for members in structures[1:]:  # two more structures: LRU evicts the first
        engine.infer(members)
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


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
    any digest hashed in the plan layer, the harness's shape bucket, the exact GEMM
    dtype and engine-name resolution (under every name they are imported
    by), and ``SubgraphBatch`` construction."""
    # By module name: ``repro.plan.autotune`` and ``repro.core.bitgemm`` are
    # also functions their packages export.
    autotune, cache, ir, registry, bitgemm, quantized = (
        importlib.import_module(f"repro.{name}")
        for name in (
            "plan.autotune", "plan.cache", "plan.ir", "plan.registry",
            "core.bitgemm", "gnn.quantized",
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
        ("exact_gemm_dtype", bitgemm, (quantized, registry)),
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
    dtype and label are bound to it on its first execution; the round is
    one batch, buckets nothing and records into no dispatch table."""
    model = make_batched_gin(12, 3, hidden_dim=16, seed=4)
    engine = InferenceEngine(
        model, ServingConfig(feature_bits=8, batch_size=4)
    ).warm_up()
    assert "table" not in engine.plan_artifacts.kinds()

    def round_counts(members):
        for name in rederivations:
            rederivations[name] = 0
        engine.infer(members)
        return dict(rederivations)

    steps = 2 * model.num_layers
    miss = round_counts(structures[0])
    # Compiled (one resolve per step) and bound on its first execution (one
    # more); a digest is sealed where the plan, and its template, enter
    # their verified segments: the template's ``repr`` is hashed once, into
    # the sealed part both digests compose with their adjacency keys.
    assert miss["resolve_engine_name"] == 2 * steps
    assert miss["repr"] == 1 and miss["blake2b"] == 3
    assert miss["SubgraphBatch"] == 1
    for _ in range(2):  # the first replay already finds everything bound
        warm = round_counts(structures[0])
        assert warm == {**dict.fromkeys(rederivations, 0), "SubgraphBatch": 1}


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
        any(isinstance(key, tuple) for key in step.derived)
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
# A lone gateway request on an idle shard is served by its caller
# --------------------------------------------------------------------- #
@pytest.fixture
def shard_puts(monkeypatch):
    """Requests ``put`` on a pool shard's queue (shutdown sentinels
    aside) and ``PoolResult.add_done_callback`` calls, counted."""
    import queue

    from repro.serving import pool as pool_module

    counts = {"put": 0, "add_done_callback": 0}

    class RecordingQueue(queue.Queue):
        def put(self, item, block=True, timeout=None):
            counts["put"] += item is not pool_module._SHUTDOWN
            return super().put(item, block, timeout)

    monkeypatch.setattr(
        pool_module, "queue",
        SimpleNamespace(Queue=RecordingQueue, Empty=queue.Empty, Full=queue.Full),
    )
    real = pool_module.PoolResult.add_done_callback
    monkeypatch.setattr(
        pool_module.PoolResult, "add_done_callback",
        _counting(counts, "add_done_callback", real),
    )
    return counts


def _one_at_a_time(gateway, requests):
    """Gateway replies to ``requests``, each awaited before the next."""
    import asyncio

    async def drive():
        return [await gateway.submit(sub) for sub in requests]

    return asyncio.run(drive())


def _pool_parts():
    return make_batched_gin(12, 3, hidden_dim=16, seed=4), ServingConfig(
        feature_bits=8, batch_size=4
    )


def test_a_lone_gateway_request_on_an_idle_shard_is_served_by_its_caller(
    shard_puts, structures
):
    """One request in flight at a time: the loop thread runs each round on
    the routed shard's engine.  No shard-queue put, no completion
    callback, a single engine's bits, and every round in pool stats."""
    import threading

    from repro.serving import GatewayConfig, PoolConfig, ServingGateway, ServingPool

    model, config = _pool_parts()
    requests = [sub for members in structures for sub in members]
    calibration = ActivationCalibration()
    expected = InferenceEngine(model, config, calibration=calibration).infer(requests)
    threads: list[str] = []
    with ServingPool(
        model, config, pool=PoolConfig(workers=2), calibration=calibration
    ) as pool:
        for engine in pool.workers:
            real = engine.infer
            engine.infer = lambda batch, real=real: (
                threads.append(threading.current_thread().name) or real(batch)
            )
        gateway = ServingGateway(pool, GatewayConfig(max_in_flight=16))
        replies = _one_at_a_time(gateway, requests)
        stats = pool.stats()
    assert shard_puts == {"put": 0, "add_done_callback": 0}
    assert gateway.stats().caller_served == len(requests)
    assert threads == [threading.main_thread().name] * len(requests)
    assert stats.requests == stats.batches == len(requests)
    for sub, want, got in zip(requests, expected, replies):
        np.testing.assert_array_equal(got.logits, want.logits)
        assert got.worker == f"w{pool.shard_of(sub)}"


def test_a_lone_gateway_request_reads_no_queue_depth(monkeypatch, structures):
    """Routing is the home shard, so a lone request on an idle shard never
    asks the pool how deep its queues are."""
    from repro.serving import GatewayConfig, PoolConfig, ServingGateway, ServingPool

    counts = {"queue_depths": 0}
    monkeypatch.setattr(
        ServingPool, "queue_depths",
        _counting(counts, "queue_depths", ServingPool.queue_depths),
    )
    model, config = _pool_parts()
    with ServingPool(model, config, pool=PoolConfig(workers=2)) as pool:
        gateway = ServingGateway(pool, GatewayConfig(max_in_flight=16))
        _one_at_a_time(gateway, structures[0])
    assert gateway.stats().caller_served == len(structures[0])
    assert counts == {"queue_depths": 0}


def test_a_gateway_burst_still_coalesces_through_the_shard_queues(
    shard_puts, structures
):
    """A burst admitted in one tick sees itself after the yield: every
    request is queued, none is caller-served, and the backlog behind a
    stalled first round coalesces."""
    from repro.serving import GatewayConfig, PoolConfig, ServingGateway, ServingPool

    model, config = _pool_parts()
    requests = [sub for members in structures for sub in members]
    plan = FaultPlan(seed=0, specs=[FaultSpec("slow_shard", at=(0,), delay_s=0.2)])
    with ServingPool(
        model, config, pool=PoolConfig(workers=1), fault_plan=plan
    ) as pool:
        gateway = ServingGateway(pool, GatewayConfig(max_in_flight=16))
        gateway.run(requests)
        stats = pool.stats()
    assert shard_puts["put"] == shard_puts["add_done_callback"] == len(requests)
    assert gateway.stats().caller_served == 0
    assert stats.requests == len(requests)
    assert stats.requests / stats.batches > 1


def test_a_caller_served_round_draws_no_worker_probe(structures):
    """A ``worker`` fault models a drain thread dying and a caller never
    dies: caller-served rounds leave the site unprobed, ``slow_shard``
    still stalls them, and the drain thread's next round still fires it."""
    from repro.serving import PoolConfig, ServingGateway, ServingPool

    model, config = _pool_parts()
    requests = structures[0]
    plan = FaultPlan(
        seed=0,
        specs=[
            FaultSpec("worker", at=(0,)),
            FaultSpec("slow_shard", at=(0,), delay_s=0.01),
        ],
    )
    with ServingPool(
        model,
        config,
        pool=PoolConfig(workers=2, supervise_interval_s=0.01),
        fault_plan=plan,
    ) as pool:
        gateway = ServingGateway(pool)
        _one_at_a_time(gateway, requests)
        assert gateway.stats().caller_served == len(requests)
        assert plan.snapshot()["worker"] == {"probes": 0, "fires": 0}
        assert plan.snapshot()["slow_shard"] == {"probes": len(requests), "fires": 1}
        # Through the queue, the drain thread probes and dies; the
        # request is re-queued onto the respawned shard and served.
        assert pool.submit(requests[0]).result(timeout=30) is not None
        assert plan.fires("worker") == 1
        assert pool.stats().respawns == 1


def test_a_busy_dead_or_shut_down_shard_is_never_served_inline(structures):
    """Held drain lock, dead worker, closed pool: ``serve_if_idle`` runs
    nothing, and the gateway falls back to the queue path and its error."""
    import asyncio

    from repro.errors import ConfigError, WorkerDied
    from repro.serving import PoolConfig, ServingGateway, ServingPool

    model, config = _pool_parts()
    sub = structures[0][0]
    with ServingPool(model, config, pool=PoolConfig(workers=1)) as pool:
        with pool._workers[0].lock:  # a round in progress
            assert pool.serve_if_idle(sub, 0) is None
        served = pool.serve_if_idle(sub, 0)
        assert served.done() and served.worker == "w0"
        assert pool.stats().requests == 1

    plan = FaultPlan(seed=0, specs=[FaultSpec("worker", at=(0,))])
    dead = ServingPool(
        model, config, pool=PoolConfig(workers=1, supervise=False), fault_plan=plan
    )
    with pytest.raises(WorkerDied):
        dead.submit(sub).result(timeout=30)
    gateway = ServingGateway(dead)
    assert dead.serve_if_idle(sub, 0) is None
    with pytest.raises(WorkerDied):
        asyncio.run(gateway.submit(sub))
    dead.shutdown()

    closed = ServingPool(model, config, pool=PoolConfig(workers=1))
    closed.shutdown()
    assert closed.serve_if_idle(sub, 0) is None
    with pytest.raises(ConfigError):
        asyncio.run(ServingGateway(closed).submit(sub))
    for pool in (dead, closed):
        assert pool.stats().requests == 0
    assert gateway.stats().caller_served == 0


# --------------------------------------------------------------------- #
# The pool writes nothing to disk
# --------------------------------------------------------------------- #
def test_thread_pool_rounds_never_serialise_the_dispatch_table(
    monkeypatch, structures, tmp_path
):
    """There is no dispatch table to share or save: 100 rounds JSON-encode
    nothing and leave the ``spool_dir`` the repo benchmark still passes
    untouched; shutdown writes no file either."""
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
    assert stats.batches == 100
    assert counts == {"dumps": 0}
    assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------- #
# A bound replay: the program's NumPy calls plus fixed-shape accounting
# --------------------------------------------------------------------- #
@pytest.fixture
def bindings(monkeypatch):
    """Call counters on what a bound program takes once: kernel configs and
    emulators, the pair and census checks, the Python §4.3 ballot, counter
    records and their merges, the shape bucket and a step-level binding
    (its exact dtype and its backend resolution, under every name they are
    imported by)."""
    from repro.tc.counters import KernelCounters

    # By module name: some are also functions their packages export.
    autotune, registry, bitgemm, quantized = (
        importlib.import_module(f"repro.{name}")
        for name in ("plan.autotune", "plan.registry", "core.bitgemm", "gnn.quantized")
    )
    counts = dict.fromkeys(
        ["KernelConfig", "BitGemmKernel", "check_pair", "matches", "tile_masks", "plan_tile_skip",
         "KernelCounters", "merge", "bucket_for", "exact_gemm_dtype", "resolve_engine_name"], 0
    )
    counting = partial(_counting, counts)
    for cls, method, name in (
        (tc_kernel.KernelConfig, "__post_init__", "KernelConfig"),
        (tc_kernel.BitGemmKernel, "__init__", "BitGemmKernel"),
        (tc_kernel.TileSkipPlan, "matches", "matches"),
        (bitpack.Operand, "tile_masks", "tile_masks"),
        (KernelCounters, "__init__", "KernelCounters"),
        (KernelCounters, "merge", "merge"),
    ):
        monkeypatch.setattr(cls, method, counting(name, getattr(cls, method)))
    for name, home, importers in (
        ("check_pair", bitpack, (tc_kernel, bitgemm)),
        ("plan_tile_skip", tc_kernel, (quantized,)),
        ("bucket_for", autotune, ()),
        ("exact_gemm_dtype", bitgemm, (quantized, registry)),
        ("resolve_engine_name", registry, (quantized,)),
    ):
        spy = counting(name, getattr(home, name))
        for module in (home, *importers):
            monkeypatch.setattr(module, name, spy)
    return counts


def test_a_bound_replay_is_numpy_calls_and_fixed_accounting(bindings, structures):
    """A second replay of a round constructs no kernel config, emulator or
    counter record, merges nothing, runs no pair or census check and
    buckets nothing; a miss over a shape seen before binds no step-level
    record again."""
    model = make_batched_gin(12, 3, hidden_dim=16, seed=4)
    engine = InferenceEngine(
        model,
        ServingConfig(feature_bits=8, batch_size=4, plan_cache_capacity=1,
                      adjacency_cache_capacity=1),
    ).warm_up()

    def round_counts(members):
        for name in bindings:
            bindings[name] = 0
        logits = [r.logits for r in engine.infer(members)]
        return dict(bindings), logits

    first, _ = round_counts(structures[0])  # binds
    assert first["BitGemmKernel"] == 1 and first["exact_gemm_dtype"] > 0
    _, bound_logits = round_counts(structures[0])  # the first replay
    counts, logits = round_counts(structures[0])  # the second
    assert counts == dict.fromkeys(bindings, 0)
    for want, got in zip(bound_logits, logits):
        np.testing.assert_array_equal(want, got)
    assert engine.stats.plan_cache.hits >= 2

    round_counts(structures[1])  # evicts the first structure's artifacts
    misses = engine.stats.plan_cache.misses
    counts, logits = round_counts(structures[0])  # a miss over a seen shape
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


@needs_kernel
def test_a_binding_round_over_a_frozen_calibration_is_native(monkeypatch, structures):
    """A ``cold_structures``-shaped stream — 1-bit rounds of new structures
    through caches of capacity 2, so every round binds — over a frozen
    calibration: a binding round runs no NumPy Eq. 2 and no row-sum GEMV,
    its steps' tails are native, and it lowers every step the first time
    its template binds and none after (the template part is kept)."""
    counts = dict.fromkeys(["quantize_into", "_row_sums", "_bind_step"], 0)
    for name in counts:
        real = getattr(quantized_module, name)
        monkeypatch.setattr(quantized_module, name, _counting(counts, name, real))
    model = make_cluster_gcn(12, 3, seed=4)
    engine = InferenceEngine(model, ServingConfig(
        feature_bits=1, batch_size=4, adjacency_cache_capacity=2, plan_cache_capacity=2,
    ))
    steps = 2 * model.num_layers
    engine.infer(structures[0])  # first touch: every site calibrates, on NumPy
    assert len(engine.calibration) == steps
    templates, lowered = engine.plan_artifacts.segment("template").stats, []
    for members in [*structures[1:], *structures]:
        for name in counts:
            counts[name] = 0
        misses = templates.misses
        engine.infer(members)
        lowered.append(steps if templates.misses > misses else 0)
        assert counts == {"quantize_into": 0, "_row_sums": 0, "_bind_step": lowered[-1]}
    assert engine.stats.adjacency_cache.hits == 0 and 0 in lowered


def _gateway_open_structure():
    """One structure of the ``gateway_open`` mix: ~256 nodes, 8 features."""
    g = planted_partition_graph(
        1024, 6000, num_communities=4, feature_dim=8, num_classes=4,
        rng=np.random.default_rng(5),
    )
    return induced_subgraphs(g, metis_like_partition(g, 4))[:1]


def _gateway_open_rounds(counts, members):
    """Three rounds of a ``gateway_open``-shaped engine (batched GIN, hidden
    8, 1 bit) over one structure: the binding round, the first replay and
    the second, with the second's call counts."""
    engine = InferenceEngine(make_batched_gin(8, 4, hidden_dim=8, seed=5),
                             ServingConfig(feature_bits=1, batch_size=2))
    logits = [engine.infer(members)[0].logits for _ in range(2)]
    for name in counts:
        counts[name] = 0
    logits.append(engine.infer(members)[0].logits)
    stats = engine.stats
    return dict(counts), logits, (stats.mma_ops, stats.kernel_launches, stats.tiles_total,
                                  stats.tiles_skipped)


@needs_kernel
def test_a_one_bit_bound_replay_takes_its_census_from_the_native_pass(bindings, monkeypatch):
    """The 1-bit twin of the bound-replay budget: each update step's codes
    come with their live-tile count from the native pass that wrote them,
    so a second replay ballots nothing in Python, checks no pair and builds
    no counter record.  Without the kernel the same rounds ballot in Python
    and serve the same logits and the same counters."""
    members = _gateway_open_structure()
    counts, logits, stats = _gateway_open_rounds(bindings, members)
    assert counts == dict.fromkeys(bindings, 0)
    monkeypatch.setattr(native, "load", lambda: None)
    numpy_counts, numpy_logits, numpy_stats = _gateway_open_rounds(bindings, members)
    assert numpy_counts["tile_masks"] == numpy_counts["plan_tile_skip"] > 0
    for want, got in zip(numpy_logits, logits):
        np.testing.assert_array_equal(want, got)
    assert numpy_stats == stats and stats[3] > 0


@needs_kernel
def test_a_cold_miss_over_seen_census_counts_derives_no_counters(monkeypatch, structures):
    """A ``cold_structures``-shaped stream (1-bit cluster GCN, caches of
    capacity 1): a miss over a structure served before binds a new
    adjacency, whose aggregate census and 1-bit activations have counts its
    steps have seen — every step's counters are looked up, none derived."""
    counts = {"_derive_counters": 0}
    monkeypatch.setattr(tc_kernel.BitGemmKernel, "_derive_counters", _counting(
        counts, "_derive_counters", tc_kernel.BitGemmKernel._derive_counters))
    engine = InferenceEngine(make_cluster_gcn(12, 3, seed=4), ServingConfig(
        feature_bits=1, batch_size=4, adjacency_cache_capacity=1, plan_cache_capacity=1,
    ))
    engine.infer(structures[0])  # first touch: calibrates
    engine.infer(structures[1])  # evicts the first structure
    misses, hits = engine.stats.plan_cache.misses, engine.stats.adjacency_cache.hits
    counts["_derive_counters"] = 0
    engine.infer(structures[0])
    assert engine.stats.plan_cache.misses == misses + 1
    assert engine.stats.adjacency_cache.hits == hits
    assert counts == {"_derive_counters": 0}


def _cold_cycles(counts, structures, cycles):
    """A ``cold_structures``-shaped engine (1-bit cluster GCN, caches of
    capacity 2 under a cycle of 3 structures, so every round is a miss):
    one first-touch round that calibrates, then ``cycles`` cycles, with the
    call counts of each cycle."""
    engine = InferenceEngine(make_cluster_gcn(12, 3, seed=4), ServingConfig(
        feature_bits=1, batch_size=4, adjacency_cache_capacity=2, plan_cache_capacity=2,
    ))
    engine.infer(structures[-1])
    per_cycle = []
    for _ in range(cycles):
        for name in counts:
            counts[name] = 0
        for members in structures:
            engine.infer(members)
        per_cycle.append(dict(counts))
    assert engine.stats.adjacency_cache.hits == engine.stats.plan_cache.hits == 0
    return engine, per_cycle


@needs_kernel
def test_a_cold_miss_builds_natively_and_models_no_seen_census(monkeypatch, structures):
    """A cold miss builds its adjacency in one native pass: no
    concatenation in NumPy, no Python ballot.  A miss over a ``(node count,
    live tiles)`` pair its template has seen models no report.  Counters
    and the device report are those of the NumPy path with a report modeled
    afresh per round."""
    counts = dict.fromkeys(["adjacency_csr", "tile_masks", "plan_tile_skip", "_modeled_report"], 0)
    counting = partial(_counting, counts)
    monkeypatch.setattr(SubgraphBatch, "adjacency_csr",
                        counting("adjacency_csr", SubgraphBatch.adjacency_csr))
    monkeypatch.setattr(bitpack.Operand, "tile_masks",
                        counting("tile_masks", bitpack.Operand.tile_masks))
    spy = counting("plan_tile_skip", tc_kernel.plan_tile_skip)
    for module in (tc_kernel, quantized_module):
        monkeypatch.setattr(module, "plan_tile_skip", spy)
    monkeypatch.setattr(runtime_executor, "_modeled_report",
                        counting("_modeled_report", runtime_executor._modeled_report))

    engine, (first, second) = _cold_cycles(counts, structures, 2)
    # The first touch already modeled the last structure's pair.
    assert first == {"adjacency_csr": 0, "tile_masks": 0, "plan_tile_skip": 0,
                     "_modeled_report": len(structures) - 1}
    assert second == dict.fromkeys(counts, 0)

    monkeypatch.setattr(native, "load", lambda: None)
    numpy_engine, (numpy_first, _) = _cold_cycles(counts, structures, 2)
    assert numpy_first["adjacency_csr"] == len(structures) and numpy_first["plan_tile_skip"] > 0
    stats = [(e.stats.mma_ops, e.stats.kernel_launches, e.stats.tiles_total, e.stats.tiles_skipped)
             for e in (engine, numpy_engine)]
    assert stats[0] == stats[1] and stats[0][3] > 0
    fresh = EpochReport(system=engine.device_report.system, dataset=engine.device_report.dataset)
    config = engine.config
    run_config = QGTCRunConfig(feature_bits=1, weight_bits=config.effective_weight_bits,
                               kernel=config.kernel)
    for members in [structures[-1], *structures * 2]:
        batch = SubgraphBatch(members=tuple(members))
        fresh.merge(modeled_plan_report(engine.model, run_config, num_nodes=batch.num_nodes,
                                        tile_plan=pack_batch_adjacency(batch).plan,
                                        device=config.device))
    assert engine.device_report == numpy_engine.device_report == fresh


def test_the_report_memo_is_bounded_and_dies_with_its_template(structures):
    """The reports a cold miss keeps by census count hang on the template's
    aggregate step: at most ``mt * kt + 1`` per node count, and collectable
    once the template and the plans bound from it are evicted."""
    engine, _ = _cold_cycles({}, structures, 2)
    templates = engine.plan_artifacts.segment("template")
    refs = []
    for key in templates.keys():
        step = templates.get(key).layers[0].aggregate
        reports = [v for k, v in step.derived.items() if k[0] == "report"]
        mt, kt = step.spec.tile_grid()[:2]
        assert 1 <= len(reports) <= mt * kt + 1
        refs += [weakref.ref(step), *map(weakref.ref, reports)]
    del step, reports
    engine.plan_artifacts.segment("template").clear()
    for segment in ("plan", "adjacency"):
        engine.plan_artifacts.segment(segment).clear()
    gc.collect()
    assert refs and [ref() for ref in refs] == [None] * len(refs)


@needs_kernel
def test_a_cold_miss_binds_only_its_adjacency(monkeypatch, structures):
    """On a ``cold_structures``-shaped stream, a miss whose template has
    bound once binds its aggregate steps' adjacency and census only: no
    native entry, no step lowered again and no ``repr`` of a template (its
    digest is sealed).  Logits, counters, phase layouts, kernel counts and
    the device report are those of an engine on the NumPy path."""
    counts = dict.fromkeys(["bind_tail", "bind_quantize", "_bind_step/update",
                            "_bind_step/aggregate", "repr"], 0)
    for name in ("bind_tail", "bind_quantize"):
        monkeypatch.setattr(native, name, _counting(counts, name, getattr(native, name)))
    real_bind_step = quantized_module._bind_step

    def bind_step(step, *args):
        counts[f"_bind_step/{step.spec.role}"] += 1
        return real_bind_step(step, *args)

    monkeypatch.setattr(quantized_module, "_bind_step", bind_step)
    plan_repr = ir.ExecutionPlan.__repr__
    monkeypatch.setattr(ir.ExecutionPlan, "__repr__", _counting(counts, "repr", plan_repr))
    rounds = []
    run_round = InferenceEngine.run_round

    def recording(self, *args, **kwargs):
        forward = run_round(self, *args, **kwargs)
        rounds.append((forward.logits.view(np.uint64), forward.counters, forward.binding,
                       [phase[:3] for phase in forward.phases]))
        return forward

    monkeypatch.setattr(InferenceEngine, "run_round", recording)

    engine, (first, second) = _cold_cycles(counts, structures, 2)
    assert second == dict.fromkeys(counts, 0)
    assert first["bind_tail"] > 0  # the first-touch template binds its entries on its next miss
    native_rounds = rounds[:]
    rounds.clear()
    monkeypatch.setattr(native, "load", lambda: None)
    numpy_engine, _ = _cold_cycles(counts, structures, 2)
    assert len(rounds) == len(native_rounds) == 1 + 2 * len(structures)
    for (logits, counters, binding, layout), want in zip(native_rounds, rounds):
        np.testing.assert_array_equal(logits, want[0])
        assert (counters, binding, layout) == want[1:] and binding
        assert [phase for phase, _, _ in layout].count("bind") == 2 * engine.model.num_layers
    stats = [(e.stats.mma_ops, e.stats.kernel_launches, e.stats.tiles_total, e.stats.tiles_skipped)
             for e in (engine, numpy_engine)]
    assert stats[0] == stats[1] and stats[0][3] > 0
    assert engine.device_report == numpy_engine.device_report


def _template_entries(engine) -> list[tuple]:
    """Each kept template part's native ``(quantize, tail)`` entries, in step order."""
    templates = engine.plan_artifacts.segment("template")
    return [templates.get(key).layers[0].aggregate.derived["program"].shared["native"]
            for key in templates.keys()]


def _with_table(entries) -> list[bool]:
    """Which of ``entries`` bound the 1-bit threshold form's table."""
    return [entry is not None and bool(entry._args.contents.table) for entry in entries]


@needs_kernel
def test_only_tails_from_one_bit_into_one_bit_codes_bind_a_threshold_table(structures):
    """A ``cold_structures``-shaped template (1-bit cluster GCN, three
    layers) binds a threshold table on each of its five quantizing tails —
    from 1-bit codes into 1-bit codes — and none on the logits tail or on
    any quantize-only entry (step 0's runs); a 4- or 8-bit template binds
    none."""
    engine, _ = _cold_cycles({}, structures, 1)
    parts = _template_entries(engine)
    assert parts
    for entries in parts:
        quantize, tails = zip(*entries)
        assert _with_table(tails) == [True] * 5 + [False]
        assert _with_table(quantize) == [False] * 6
    for bits in (4, 8):
        engine = InferenceEngine(make_cluster_gcn(12, 3, seed=4), ServingConfig(feature_bits=bits, batch_size=4))
        for members in structures * 2:
            engine.infer(members)
        parts = _template_entries(engine)
        assert parts and not any(any(_with_table(pair)) for entries in parts for pair in entries)


@needs_kernel
def test_a_blas_aggregate_step_is_one_native_pass(monkeypatch, structures):
    """Over a frozen calibration a ``blas`` aggregate step's product and
    tail are one foreign call over its adjacency's CSR: a cold miss over a
    seen template makes no scipy sparse matmul and one native call per step
    (and the features' quantize); a warm replay is the program's one entry
    (``test_a_warm_replay_is_one_foreign_call``) and calls no step entry.
    On the NumPy path every aggregate step is a scipy matmul."""
    from scipy.sparse import _base, _sparsetools

    counts = dict.fromkeys(["_matmul_dispatch", "csr_matvecs", "native", "gathering"], 0)
    monkeypatch.setattr(_base._spbase, "_matmul_dispatch",
                        _counting(counts, "_matmul_dispatch", _base._spbase._matmul_dispatch))
    monkeypatch.setattr(_sparsetools, "csr_matvecs",
                        _counting(counts, "csr_matvecs", _sparsetools.csr_matvecs))
    run = native._Bound.run

    def counting_run(self, values, sums=None, csr=None):
        counts["native"] += 1
        counts["gathering"] += csr is not None
        return run(self, values, sums, csr)

    monkeypatch.setattr(native._Bound, "run", counting_run)
    engine, (_, cold) = _cold_cycles(counts, structures, 2)
    layers, rounds = engine.model.num_layers, len(structures)
    one_pass = {"_matmul_dispatch": 0, "csr_matvecs": 0, "native": 2 * layers + 1, "gathering": layers}
    assert cold == {name: rounds * calls for name, calls in one_pass.items()}

    engine.infer(structures[0])  # now held by the caches: the next round replays
    for name in counts:
        counts[name] = 0
    engine.infer(structures[0])
    assert engine.stats.plan_cache.hits == 1 and counts == dict.fromkeys(one_pass, 0)

    monkeypatch.setattr(native, "load", lambda: None)
    _, (_, numpy_cold) = _cold_cycles(counts, structures, 2)
    assert numpy_cold["native"] == 0
    assert numpy_cold["_matmul_dispatch"] == numpy_cold["csr_matvecs"] == rounds * layers


@needs_kernel
def test_a_cold_miss_copies_nothing_its_members_hold(monkeypatch, structures):
    """On the third cycle of a ``cold_structures``-shaped stream (every
    round a miss over members served before) a round is a view of its
    members: it concatenates no feature matrix — nor does a warm replay —
    builds no scipy compressed matrix (no batch CSR), makes no
    ``dataclasses.replace`` (a retarget swaps one record) and takes no
    member array's address (:func:`native.csr_record` and
    :func:`native.feature_rows` are memoised on the members).  Logits and the device report
    are those of an engine on the NumPy path."""
    import dataclasses

    from scipy.sparse import _compressed

    counts = dict.fromkeys(["features", "_cs_matrix", "replace", "csr_record", "feature_rows"], 0)
    counting = partial(_counting, counts)
    monkeypatch.setattr(SubgraphBatch, "features", counting("features", SubgraphBatch.features))
    monkeypatch.setattr(_compressed._cs_matrix, "__init__",
                        counting("_cs_matrix", _compressed._cs_matrix.__init__))
    replace = counting("replace", dataclasses.replace)
    for module in [dataclasses, *(m for m in list(sys.modules.values())
                                  if getattr(m, "__name__", "").startswith("repro"))]:
        if getattr(module, "replace", None) is dataclasses.replace:
            monkeypatch.setattr(module, "replace", replace)
    for name in ("csr_record", "feature_rows"):
        monkeypatch.setattr(native, name, counting(name, getattr(native, name)))
    logits = []
    run_round = InferenceEngine.run_round

    def recording(self, *args, **kwargs):
        forward = run_round(self, *args, **kwargs)
        logits.append(forward.logits.view(np.uint64))
        return forward

    monkeypatch.setattr(InferenceEngine, "run_round", recording)

    def stream():  # the second cycle is each template's first over bound entries
        engine, (_, _, third) = _cold_cycles(counts, structures, 3)
        engine.infer(structures[0])  # now held by the caches: the next round replays
        for name in counts:
            counts[name] = 0
        engine.infer(structures[0])
        assert engine.stats.plan_cache.hits == 1
        return engine, third, dict(counts)

    engine, cold, replay = stream()
    assert cold == replay == dict.fromkeys(counts, 0)
    native_logits = logits[:]
    logits.clear()
    monkeypatch.setattr(native, "load", lambda: None)
    numpy_engine, numpy_cold, _ = stream()
    assert numpy_cold["features"] == len(structures) and numpy_cold["_cs_matrix"] > 0
    assert numpy_cold["csr_record"] == numpy_cold["feature_rows"] == 0
    assert len(logits) == len(native_logits)
    for got, want in zip(native_logits, logits):
        np.testing.assert_array_equal(got, want)
    assert engine.device_report == numpy_engine.device_report


@needs_kernel
def test_a_kernel_fault_before_a_fused_aggregate_recovers_on_packed(structures):
    """A ``kernel`` fault probed before a warm round's fused aggregate
    attempts sends each to ``packed``, whose int64 product takes the NumPy
    tail: the round's logits are the fault-free round's, bit for bit."""
    model = make_cluster_gcn(12, 3, seed=4)
    config = ServingConfig(feature_bits=1, batch_size=4)

    def third_round(faults):
        engine = InferenceEngine(model, config, fault_plan=faults)
        engine.infer(structures[0])
        engine.infer(structures[0])
        at = faults.probes("kernel")
        return engine, at, [r.logits for r in engine.infer(structures[0])]

    _, at, want = third_round(FaultPlan(seed=0, specs=[]))
    # at + 1 probes the first one's ``packed`` retry, at + 2 the update between them
    faults = FaultPlan(seed=0, specs=[FaultSpec("kernel", at=(at, at + 3))])
    engine, _, got = third_round(faults)
    assert [e.detail for e in faults.events] == ["aggregate/L0:blas", "aggregate/L1:blas"]
    assert engine.stats.step_retries == 2
    for a, b in zip(want, got):
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("model, bits", [
    (partial(make_batched_gin, 12, 3, hidden_dim=16, seed=4), 8),
    (partial(make_cluster_gcn, 12, 3, seed=4), 1),
])
def test_a_warm_replay_runs_under_one_guard(monkeypatch, structures, model, bits):
    """A warm replay through an engine with a health record and an armed
    (silent) fault plan makes each step's attempt inline: no
    ``StepRecovery.run``, no fallback chain, the ``kernel`` site probed once
    a step, and the round's successes recorded under one lock acquire."""
    health, faults = BackendHealth(), FaultPlan(seed=0, specs=[FaultSpec("kernel", at=(10**9,))])
    engine = InferenceEngine(model(), ServingConfig(feature_bits=bits, batch_size=4),
                             health=health, fault_plan=faults)
    logits = [engine.infer(structures[0])[0].logits for _ in range(2)]  # bind, then replay
    counts = dict.fromkeys(["run", "fallback_chain"], 0)
    monkeypatch.setattr(supervision.StepRecovery, "run",
                        _counting(counts, "run", supervision.StepRecovery.run))
    monkeypatch.setattr(supervision, "fallback_chain",
                        _counting(counts, "fallback_chain", supervision.fallback_chain))
    lock = health._lock = _CountingLock(health._lock)
    steps = 2 * engine.model.num_layers
    for replay in range(1, 3):
        probes, successes = faults.probes("kernel"), health.snapshot()["successes"]
        lock.acquisitions = 0
        logits.append(engine.infer(structures[0])[0].logits)
        assert lock.acquisitions == 1 and counts == {"run": 0, "fallback_chain": 0}
        assert faults.probes("kernel") == probes + steps
        assert health.snapshot()["successes"] == successes + steps
        np.testing.assert_array_equal(logits[-1].view(np.uint64), logits[-2].view(np.uint64))
    assert engine.stats.plan_cache.hits == 3 and faults.fires("kernel") == 0


@needs_kernel
def test_a_warm_fused_aggregate_converts_only_its_per_call_arrays(monkeypatch, structures):
    """A warm fused aggregate call makes one foreign call and converts only
    the arrays that are new each call — its codes and its two outputs: the
    adjacency's block table and degrees reach C by the addresses its
    program took when it bound them.  An armed (silent) fault plan keeps
    the warm round on the step loop."""
    faults = FaultPlan(seed=0, specs=[FaultSpec("kernel", at=(10**9,))])
    engine = InferenceEngine(make_cluster_gcn(12, 3, seed=4), ServingConfig(feature_bits=1, batch_size=4),
                             fault_plan=faults)
    want = [engine.infer(structures[0])[0].logits for _ in range(2)]  # bind, then replay
    calls, run, buffer = [], native._Bound.run, native._buffer

    def spying_run(self, values, sums=None, csr=None):
        if csr is None:
            return run(self, values, sums, csr)
        converted, foreign, fn = [], [], self._fn
        self._fn = lambda *args: foreign.append(args) or fn(*args)
        monkeypatch.setattr(native, "_buffer", lambda a: converted.append(a) or buffer(a))
        try:
            out = run(self, values, sums, csr)
        finally:
            self._fn = fn
            monkeypatch.setattr(native, "_buffer", buffer)
        calls.append((values, sums, csr, out, converted, foreign))
        return out

    monkeypatch.setattr(native._Bound, "run", spying_run)
    got = engine.infer(structures[0])[0].logits
    np.testing.assert_array_equal(got.view(np.uint64), want[-1].view(np.uint64))
    assert len(calls) == engine.model.num_layers
    for values, sums, csr, (codes, row_sums, _), converted, foreign in calls:
        assert sums is None and len(foreign) == 1
        converted = [a for a in converted if a is not None]
        assert len(converted) == 3 and all(map(operator.is_, converted, (values, codes, row_sums)))
        assert all(c is not a for c in converted for a in csr[2])
        # The degrees, then the members' block table in place of a batch CSR.
        assert (foreign[0][2], *foreign[0][5:]) == (*(a.ctypes.data for a in csr[2][:2]), None)


def _foreign_calls(monkeypatch, counts: dict, brackets: list) -> None:
    """Count, under ``counts["foreign"]``, calls of every function of the
    native library, and ``_Bound.run`` (whose entries were looked up when
    bound) apart; ``brackets`` gets the Python clock around each program
    entry call."""
    lib = native.load()
    entries = [f"tail_{p}_{o}" for p in native.PRODUCT_DTYPES for o in (*native.CODE_DTYPES, "logits")]
    for name in ("adjacency", *entries, *(f"thresholds_{p}" for p in native.PRODUCT_DTYPES)):
        monkeypatch.setattr(lib, name, _counting(counts, "foreign", getattr(lib, name)))
    real = lib.run_program

    def run_program(*args):
        counts["foreign"] += 1
        brackets.append(time.perf_counter())
        try:
            return real(*args)
        finally:
            brackets.append(time.perf_counter())

    monkeypatch.setattr(lib, "run_program", run_program)
    monkeypatch.setattr(native._Bound, "run", _counting(counts, "_Bound.run", native._Bound.run))


@needs_kernel
@pytest.mark.parametrize("model, bits", [
    (partial(make_batched_gin, 12, 3, hidden_dim=16, seed=4), 8),
    (partial(make_cluster_gcn, 12, 3, seed=4), 1),
])
def test_a_warm_replay_is_one_foreign_call(monkeypatch, structures, model, bits):
    """A warm replay is one foreign call, into its program's entry: no step
    entry (``_Bound.run``), no bound step's ``matmul``, no other native
    function.  The entry's stamps are monotone and lie between the Python
    clock reads around the call; with the round's first (taken before the
    features are materialised) they are one more than the replay layout."""
    engine = InferenceEngine(model(), ServingConfig(feature_bits=bits, batch_size=4))
    want = [engine.infer(structures[0])[0].logits for _ in range(2)]  # bind, then the first replay
    adjacencies = engine.plan_artifacts.segment("adjacency")
    (adjacency,) = map(adjacencies.peek, adjacencies.keys())
    counts, brackets, forwards = dict.fromkeys(["foreign", "_Bound.run", "matmul"], 0), [], []
    program = adjacency.derived["program"]
    adjacency.derived["program"] = program._replace(steps=tuple(
        b._replace(matmul=_counting(counts, "matmul", b.matmul)) for b in program.steps))
    _foreign_calls(monkeypatch, counts, brackets)
    execute = engine_module.execute_forward_plan
    monkeypatch.setattr(engine_module, "execute_forward_plan",
                        lambda *a, **k: forwards.append(execute(*a, **k)) or forwards[-1])
    got = engine.infer(structures[0])[0].logits
    np.testing.assert_array_equal(got.view(np.uint64), want[-1].view(np.uint64))
    assert counts == {"foreign": 1, "_Bound.run": 0, "matmul": 0}
    (forward,) = forwards
    stamps = forward.stamps
    assert not forward.binding and len(stamps) == len(forward.program.layouts[0]) + 1
    assert stamps == sorted(stamps) and stamps[0] <= brackets[0] <= stamps[1] and stamps[-1] <= brackets[1]


@needs_kernel
def test_a_fault_plan_or_a_refused_entry_keeps_the_step_loop(monkeypatch, structures):
    """A warm round with a fault plan armed runs the step loop and never
    calls the program entry; an entry that refuses its round (``-1``, as for
    a NaN) hands it to the loop, which serves it to the same bits."""
    model, config = make_cluster_gcn(12, 3, seed=4), ServingConfig(feature_bits=1, batch_size=4)
    steps = 2 * model.num_layers
    faults = FaultPlan(seed=0, specs=[FaultSpec("kernel", at=(10**9,))])
    armed, engine = InferenceEngine(model, config, fault_plan=faults), InferenceEngine(model, config)
    armed.infer(structures[0])
    engine.infer(structures[0])
    engine.infer(structures[0])  # the first replay binds the entry
    counts, brackets = dict.fromkeys(["foreign", "_Bound.run"], 0), []
    _foreign_calls(monkeypatch, counts, brackets)
    want = [armed.infer(structures[0])[0].logits for _ in range(2)][-1]
    assert counts == {"foreign": 0, "_Bound.run": 2 * (steps + 1)} and faults.probes("kernel") == 3 * steps

    monkeypatch.setattr(native.load(), "run_program", lambda *args: brackets.append(args) or -1)
    counts.update(dict.fromkeys(counts, 0))
    got = engine.infer(structures[0])[0].logits
    # The refused call, then the loop: the features' quantize and each step's tail.
    assert len(brackets) == 1 and counts == {"foreign": 0, "_Bound.run": steps + 1}
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _arrays(root) -> list[np.ndarray]:
    """Every array reachable from ``root`` through containers and
    ``repro`` objects (not through functions, classes or modules)."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, (tuple, list, dict)) or type(obj).__module__.startswith("repro"):
            stack.extend(gc.get_referents(obj))
    return found


def test_the_template_part_is_one_per_template_and_pins_no_adjacency(structures):
    """What a program binds apart from its adjacency is kept once per
    template, on its aggregate step's memo — the last key bound, shared by
    every program bound from it — holds no array sized by an adjacency, so
    evicted adjacencies die while their template lives, and it dies with
    its template and the plans bound from it."""
    engine, _ = _cold_cycles({}, structures, 2)
    templates = engine.plan_artifacts.segment("template")
    adjacencies = engine.plan_artifacts.segment("adjacency")
    parts = {}
    for key in templates.keys():
        step = templates.peek(key).layers[0].aggregate
        (part,) = [v for v in step.derived.values() if isinstance(v, quantized_module._Program)]
        parts[id(step.derived)] = part
        n = step.spec.m
        assert not [a for a in _arrays(part) if n in a.shape]
        assert all(b.fixed is b.matmul is b.counters is b.epilogue[2] is None
                   for b in part.steps if b.aggregate)
    for plan in map(engine.plan_cache.peek, engine.plan_cache.keys()):
        program = adjacencies.peek(plan.adjacency_keys()[0]).derived["program"]
        part = parts[id(plan.layers[0].aggregate.derived)]
        assert program.key[1:] == part.key
        assert program.shared is part.shared and program.layouts is part.layouts
    refs = [weakref.ref(adjacencies.peek(key)) for key in adjacencies.keys()]
    engine.plan_artifacts.segment("plan").clear()
    adjacencies.clear()
    gc.collect()
    assert refs and [ref() for ref in refs] == [None] * len(refs)
    refs = [weakref.ref(part.kernel) for part in parts.values()]
    refs += [weakref.ref(templates.peek(key).layers[0].aggregate) for key in templates.keys()]
    del step, part, parts, program, plan
    engine.plan_artifacts.segment("template").clear()
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_gateway_routing_hashes_a_structure_once(monkeypatch, structures):
    """The pool routes a structure by a digest memoised on the member:
    twenty gateway requests for one structure hash it once."""
    from repro.serving import GatewayConfig, PoolConfig, ServingGateway, ServingPool
    from repro.serving import pool as pool_module

    counts = {"blake2b": 0}
    monkeypatch.setattr(pool_module, "hashlib",
                        SimpleNamespace(blake2b=_counting(counts, "blake2b", hashlib.blake2b)))
    sub = structures[0][0]
    with ServingPool(
        make_batched_gin(12, 3, hidden_dim=8, seed=5),
        ServingConfig(feature_bits=1, batch_size=2),
        pool=PoolConfig(workers=2),
    ) as pool:
        ServingGateway(pool, GatewayConfig(max_in_flight=4)).run([sub] * 20)
        home = pool.shard_of(sub)
        assert pool.stats().requests == 20
    assert counts == {"blake2b": 1}
    want = hashlib.blake2b(digest_size=8)
    for array in (sub.graph.indptr, b"|", sub.graph.indices):
        want.update(array if isinstance(array, bytes) else array.tobytes())
    assert home == int.from_bytes(want.digest(), "little") % 2


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

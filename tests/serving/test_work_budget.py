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
and those derivations die with the artifact they hang on.
"""

from __future__ import annotations

import gc
import hashlib
import sys
import weakref
from functools import cached_property, partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import bitdecomp, bitpack
from repro.core.quantization import QuantParams
from repro.faultinject import FaultPlan, FaultSpec
from repro.gnn import make_batched_gin, make_cluster_gcn, quantized_forward
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
    # more); the digest is sealed where the plan enters the verified segment.
    assert miss["resolve_engine_name"] == 2 * steps
    assert miss["repr"] == 1 and miss["blake2b"] == 1
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
            pool=PoolConfig(workers=2, max_delay_s=0.0),
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
    for i in range(100):  # deadline 0: every request is its own round
        pool.submit(requests[i % len(requests)], deadline_s=0.0).result(timeout=30)
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

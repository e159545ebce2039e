"""Structured events: one JSON line per state transition, free until
somebody listens.

Counters say *how many*; an event says *what just changed* (a backend
quarantined, a worker respawned, an entry poisoned).  Each site below is
driven by a seeded ``faultinject`` plan or a direct transition, and must
emit exactly one parseable line on its module's ``repro.*`` logger — and
with no handler configured, serving must never build a ``LogRecord``.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.core import native
from repro.faultinject import FaultPlan, FaultSpec
from repro.gnn import make_batched_gin
from repro.graph import induced_subgraphs
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.plan.cache import LRUCache, artifact_digest
from repro.serving import (
    BackendHealth,
    InferenceEngine,
    PoolConfig,
    ServingConfig,
    ServingPool,
)


@pytest.fixture
def subgraphs(rng):
    g = planted_partition_graph(
        160, 1000, num_communities=8, feature_dim=8, num_classes=3, rng=rng
    )
    return induced_subgraphs(g, metis_like_partition(g, 8))


@pytest.fixture
def model(subgraphs):
    g = subgraphs[0].graph
    return make_batched_gin(g.features.shape[1], 3, hidden_dim=8, seed=3)


@pytest.fixture
def events(caplog):
    """``events(name)``: the parsed lines of that event seen so far, each
    checked to be one sorted-key JSON object from a ``repro.*`` logger."""
    caplog.set_level(logging.INFO, logger="repro")

    def parsed(name: str) -> list[dict]:
        found = []
        for record in caplog.records:
            assert record.name.startswith("repro.")
            line = record.getMessage()
            payload = json.loads(line)
            assert line == json.dumps(payload, sort_keys=True) and "\n" not in line
            if payload["event"] == name:
                found.append(payload)
        return found

    return parsed


class TestEachSiteEmitsOneLine:
    def test_circuit_breaker_transitions(self, events):
        now = [0.0]
        health = BackendHealth(
            quarantine_after=2, probe_after_s=5.0, clock=lambda: now[0]
        )
        health.record_failure("blas")
        assert events("backend_quarantined") == []
        health.record_failure("blas")
        assert health.vetoed("blas")
        now[0] = 6.0
        assert not health.vetoed("blas") and not health.vetoed("blas")
        health.record_success("blas")
        health.record_success("blas")  # already closed: a counter, no event
        for name in ("backend_quarantined", "backend_half_open", "backend_closed"):
            assert events(name) == [{"event": name, "backend": "blas"}]

    def test_poisoned_entry_discarded(self, events):
        plan = FaultPlan(seed=0, specs=[FaultSpec("cache", at=(0,))])
        cache = LRUCache(4, digest_of=artifact_digest, fault_plan=plan)
        cache.put(("plan", "x"), ("compiled",))
        assert cache.get(("plan", "x")) is None
        cache.put(("plan", "x"), ("compiled",))
        assert cache.get(("plan", "x")) == ("compiled",)
        (event,) = events("poisoned_entry_discarded")
        assert event["key"] == artifact_digest(("plan", "x"))

    def test_step_recovered_on_fallback(self, events, model, subgraphs):
        plan = FaultPlan(seed=0, specs=[FaultSpec("kernel", at=(0,))])
        engine = InferenceEngine(
            model, ServingConfig(feature_bits=2, engine="blas"), fault_plan=plan
        )
        engine.infer_one(subgraphs[0])
        engine.infer_one(subgraphs[0])
        assert engine.stats.step_retries == 1
        (event,) = events("step_recovered")
        assert event["failed"] == ["blas"] and event["backend"] == "packed"
        assert event["step"]

    def test_engine_start_reports_the_blas_pin(self, events, model, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        InferenceEngine(model, label="w3")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        InferenceEngine(model)
        pinned, unpinned = events("engine_start")
        assert pinned == {
            "event": "engine_start", "shard": "w3", "blas_pinned": True,
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
            "native_tail": native.load() is not None,
        }
        assert unpinned["blas_pinned"] is False

    def test_stale_plans_invalidated(self, events, model, subgraphs, caplog):
        # The site is gone with stale plans: invalidating after timings that
        # favour the other backend emits no line at all.
        engine = InferenceEngine(
            model,
            ServingConfig(feature_bits=8, batch_size=8, record_timings=False),
        )
        engine.infer(subgraphs)
        for key in engine.plan_cache.keys():
            for step in engine.plan_cache.peek(key).gemm_steps():
                engine.dispatcher.record_timing(step.spec, "packed", 1e-9)
        caplog.clear()
        assert engine.invalidate_stale_plans() == []
        assert events("stale_plans_invalidated") == []
        assert caplog.records == []

    @pytest.mark.timeout(60)
    def test_worker_respawn_with_requeued_count(self, events, model, subgraphs):
        plan = FaultPlan(seed=0, specs=[FaultSpec("worker", at=(1,))])
        with ServingPool(
            model,
            ServingConfig(feature_bits=2, batch_size=2),
            pool=PoolConfig(workers=2, supervise_interval_s=0.01),
            fault_plan=plan,
        ) as pool:
            pool.serve(subgraphs)
            stats = pool.stats()
        (event,) = events("worker_respawned")
        assert stats.respawns == 1 and event["requeued"] == stats.requeued >= 1
        assert event["shard"] in ("w0", "w1") and "InjectedFault" in event["cause"]


class TestSilentUntilConfigured:
    def test_library_installs_a_null_handler_and_nothing_else(self):
        root = logging.getLogger("repro")
        assert [type(h) for h in root.handlers] == [logging.NullHandler]
        assert root.level == logging.NOTSET and root.propagate
        for name, logger in logging.root.manager.loggerDict.items():
            if name.startswith("repro.") and isinstance(logger, logging.Logger):
                assert logger.handlers == [] and logger.level == logging.NOTSET

    def test_serving_builds_no_log_record_without_a_handler(
        self, monkeypatch, model, subgraphs
    ):
        made = []
        real = logging.Logger.makeRecord
        monkeypatch.setattr(
            logging.Logger, "makeRecord",
            lambda self, *a, **k: made.append(a) or real(self, *a, **k),
        )
        # Transitions included: a kernel fault recovered, an entry poisoned.
        plan = FaultPlan(
            seed=0, specs=[FaultSpec("kernel", at=(0,)), FaultSpec("cache", at=(0,))]
        )
        engine = InferenceEngine(
            model, ServingConfig(feature_bits=2, engine="blas"), fault_plan=plan
        )
        engine.infer(subgraphs)
        engine.infer(subgraphs)
        assert engine.stats.step_retries == 1 and plan.fires("cache") == 1
        assert made == []

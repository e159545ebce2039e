"""Tests for digest-verified cache reads and poisoned-entry recovery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.faultinject import FaultPlan, FaultSpec
from repro.gnn import make_batched_gin
from repro.gnn.quantized import ActivationCalibration
from repro.graph import induced_subgraphs
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.plan.cache import LRUCache, PlanCache, artifact_digest
from repro.serving import InferenceEngine, ServingConfig


@pytest.fixture
def workload(rng):
    g = planted_partition_graph(
        128, 800, num_communities=4, feature_dim=8, num_classes=3, rng=rng
    )
    subgraphs = induced_subgraphs(g, metis_like_partition(g, 4))
    model = make_batched_gin(8, 3, hidden_dim=8, seed=3)
    return model, subgraphs


class TestArtifactDigest:
    def test_prefers_own_digest_attribute(self):
        class Artifact:
            digest = "abc123"

        assert artifact_digest(Artifact()) == "abc123"

    def test_falls_back_to_repr_hash(self):
        a = artifact_digest((1, 2, 3))
        assert a == artifact_digest((1, 2, 3))
        assert a != artifact_digest((1, 2, 4))


class TestVerifiedLRUCache:
    def make(self, **kwargs):
        return LRUCache(4, digest_of=artifact_digest, **kwargs)

    def test_clean_entries_verify_and_hit(self):
        cache = self.make()
        cache.put("k", (1, 2))
        assert cache.get("k") == (1, 2)
        assert cache.stats.poisoned == 0

    def test_corrupt_entry_is_discarded_and_counted(self):
        cache = self.make()
        cache.put("k", (1, 2))
        assert cache.corrupt("k")
        assert cache.get("k") is None  # poisoned: dropped, a miss
        assert cache.stats.poisoned == 1
        # The rebuild repopulates with a fresh digest; reads verify again.
        cache.put("k", (1, 2))
        assert cache.get("k") == (1, 2)
        assert cache.stats.poisoned == 1

    def test_corrupt_on_unverified_cache_is_config_error(self):
        plain = LRUCache(4)
        plain.put("k", 1)
        with pytest.raises(ConfigError):
            plain.corrupt("k")

    def test_fault_plan_cache_site_poisons_a_read(self):
        plan = FaultPlan(seed=0, specs=[FaultSpec("cache", at=(0,))])
        cache = self.make(fault_plan=plan)
        cache.put("k", (1, 2))
        assert cache.get("k") is None  # injected corruption on first read
        assert cache.stats.poisoned == 1
        assert plan.fires("cache") == 1
        cache.put("k", (1, 2))
        assert cache.get("k") == (1, 2)  # site disarmed: verifies again

    def test_get_or_build_rebuilds_poisoned_entry(self):
        cache = self.make()
        builds = []

        def builder():
            builds.append(1)
            return (1, 2)

        assert cache.get_or_build("k", builder) == (1, 2)
        cache.corrupt("k")
        assert cache.get_or_build("k", builder) == (1, 2)
        assert len(builds) == 2


class TestPlanCacheVerification:
    def test_only_compiled_segments_verify(self):
        cache = PlanCache({"plan": 4, "weight": 4})
        assert PlanCache.VERIFIED_KINDS == frozenset({"plan", "template"})
        cache.put(("plan", "x"), ("compiled",))
        assert cache.segment("plan").corrupt(("plan", "x"))
        assert cache.get(("plan", "x")) is None
        assert cache.total_stats().poisoned == 1
        # Unverified segments don't even track digests.
        cache.put(("weight", 0), ("packed",))
        with pytest.raises(ConfigError):
            cache.segment("weight").corrupt(("weight", 0))


class TestEnginePoisonRecovery:
    def test_poisoned_plan_recompiles_bit_identically(self, workload):
        model, subgraphs = workload
        config = ServingConfig(feature_bits=2, batch_size=2)
        calibration = ActivationCalibration()
        engine = InferenceEngine(model, config, calibration=calibration)
        expected = [engine.infer_one(sg).logits for sg in subgraphs]

        # Corrupt every cached compiled plan in place, then replay: the
        # verified read discards each poisoned entry, recompiles, and the
        # replayed logits do not change.
        segment = engine.plan_cache
        for key in list(segment.keys()):
            segment.corrupt(key)
        got = [engine.infer_one(sg).logits for sg in subgraphs]
        assert engine.plan_cache.stats.poisoned >= 1
        for want, have in zip(expected, got):
            assert np.array_equal(want, have)

    def test_fault_plan_cache_site_counts_in_session_stats(self, workload):
        model, subgraphs = workload
        plan = FaultPlan(seed=0, specs=[FaultSpec("cache", at=(0,))])
        engine = InferenceEngine(
            model, ServingConfig(feature_bits=2), fault_plan=plan
        )
        engine.infer_one(subgraphs[0])
        engine.infer_one(subgraphs[0])  # replay probes the verified read
        assert plan.fires("cache") == 1
        assert engine.stats.plan_cache.poisoned + engine.stats.weight_cache.poisoned >= 1

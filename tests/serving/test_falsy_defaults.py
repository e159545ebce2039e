"""Regression tests for the falsy-empty default-coalescing bug class.

``BackendRegistry``, ``ActivationCalibration``, ``DispatchTable``,
``LRUCache`` and plain dicts all define ``__len__``, so an *empty*
instance is falsy — and every ``caller_supplied or default()`` pattern
silently swapped a deliberately-passed empty container for a private
default.  These tests pin the fixed behavior: only ``None`` selects the
default; an explicitly passed empty container is honored (and, for
shared mounts, stays aliased across sessions).
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, ShapeError
from repro.core.bitgemm import bitgemm_codes
from repro.core.bitpack import pack_matrix
from repro.plan.autotune import registry_digest
from repro.plan.cache import PlanCache, ThreadSafeLRUCache, artifact_nbytes
from repro.plan.executor import execute_gemm_plan
from repro.plan.ir import GemmSpec, GemmStep, PackStep
from repro.plan.registry import BackendRegistry, default_registry, resolve_engine_name
from repro.serving import CostModelDispatcher
from repro.tc.hardware import RTX3090


@pytest.fixture
def empty_registry():
    return BackendRegistry()


class TestSharedSegments:
    def test_initially_empty_shared_segment_aliases_across_sessions(self):
        # The satellite scenario: a pool mounts one (still empty) shared
        # segment into several session caches before any traffic.  The
        # old `shared or {}` coalescing couldn't drop the *mapping* here
        # (a one-entry dict is truthy), but the invariant worth pinning
        # is the aliasing itself: the first session's insertions must be
        # the second session's hits.
        segment = ThreadSafeLRUCache(8, size_of=artifact_nbytes)
        first = PlanCache({"plan": 4}, shared={"weight": segment})
        second = PlanCache({"plan": 4}, shared={"weight": segment})
        assert first.segment("weight") is second.segment("weight")
        first.put(("weight", 0), b"packed-planes")
        assert second.get(("weight", 0)) == b"packed-planes"
        assert segment.stats.hits == 1

    def test_explicitly_empty_shared_mapping_behaves_like_none(self):
        # `shared={}` is falsy; the fix makes it equivalent to (not
        # silently swapped for) the None default.
        cache = PlanCache({"plan": 4}, shared={})
        assert cache.kinds() == ("plan",)

    def test_empty_capacities_with_shared_segment_is_valid(self):
        # All segments mounted, none owned: the falsy-empty *capacities*
        # mapping must not trip the "needs at least one kind" guard.
        segment = ThreadSafeLRUCache(8)
        cache = PlanCache({}, shared={"weight": segment})
        assert cache.kinds() == ("weight",)


class TestEmptyRegistryHonored:
    """An explicitly empty registry must surface as 'nothing registered',
    never silently resolve against the default backend set."""

    def test_resolve_engine_name_rejects_instead_of_falling_back(
        self, empty_registry
    ):
        spec = GemmSpec(m=8, k=8, n=8, bits_a=1, bits_b=1, role="update")
        with pytest.raises(ShapeError, match="registered: \\(\\)"):
            resolve_engine_name("packed", spec, registry=empty_registry)
        # None still means "the default set".
        assert resolve_engine_name("packed", spec, registry=None) == "packed"

    def test_executor_rejects_instead_of_falling_back(self, empty_registry):
        import numpy as np

        step = GemmStep(
            spec=GemmSpec(m=4, k=4, n=4, bits_a=1, bits_b=1, role="update"),
            backend="packed",
            pack_a=PackStep(layout="col", bits=1, cache_key=None),
            pack_b=PackStep(layout="row", bits=1, cache_key=None),
        )
        a = pack_matrix(np.ones((4, 4), dtype=np.int64), 1, layout="col")
        b = pack_matrix(np.ones((4, 4), dtype=np.int64), 1, layout="row")
        with pytest.raises(ShapeError, match="registered: \\(\\)"):
            execute_gemm_plan(step, a, b, registry=empty_registry)

    def test_bitgemm_facade_rejects_instead_of_falling_back(
        self, empty_registry
    ):
        import numpy as np

        a = np.ones((4, 4), dtype=np.int64)
        b = np.ones((4, 4), dtype=np.int64)
        with pytest.raises(ShapeError, match="registered: \\(\\)"):
            bitgemm_codes(a, b, 1, 1, engine="packed", registry=empty_registry)

    def test_registry_digest_of_empty_registry_is_distinct(
        self, empty_registry
    ):
        # The digest identifies *which* backend set measured a table; an
        # empty set must not masquerade as the default set.
        assert registry_digest(empty_registry) != registry_digest(None)
        assert registry_digest(None) == registry_digest(default_registry())

    def test_dispatcher_with_empty_registry_cannot_price(self, empty_registry):
        dispatcher = CostModelDispatcher(RTX3090, registry=empty_registry)
        with pytest.raises(ConfigError, match="no priceable backend"):
            dispatcher.decide(64, 64, 16, 1, 1)

"""Regression tests for the falsy-empty default-coalescing bug class.

``BackendRegistry``, ``ActivationCalibration``, ``LRUCache`` and plain
dicts all define ``__len__``, so an *empty*
instance is falsy — and every ``caller_supplied or default()`` pattern
silently swapped a deliberately-passed empty container for a private
default.  These tests pin the fixed behavior: only ``None`` selects the
default; an explicitly passed empty container is honored (and, for
shared mounts, stays aliased across sessions).
"""

from __future__ import annotations

import pytest

from repro.errors import ShapeError
from repro.core.bitgemm import bitgemm_codes
from repro.plan.cache import LRUCache, PlanCache, artifact_nbytes
from repro.plan.ir import GemmSpec
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
        segment = LRUCache(8, size_of=artifact_nbytes)
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
        segment = LRUCache(8)
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

    def test_bitgemm_facade_rejects_instead_of_falling_back(
        self, empty_registry
    ):
        import numpy as np

        a = np.ones((4, 4), dtype=np.int64)
        b = np.ones((4, 4), dtype=np.int64)
        with pytest.raises(ShapeError, match="registered: \\(\\)"):
            bitgemm_codes(a, b, 1, 1, engine="packed", registry=empty_registry)

    def test_dispatcher_with_empty_registry_cannot_swap_it_for_the_default(
        self, empty_registry
    ):
        dispatcher = CostModelDispatcher(RTX3090, registry=empty_registry)
        assert dispatcher.registry is empty_registry


class TestEmptyDispatchTableHonored:
    """The dispatch table is gone; the one container a dispatcher still
    keeps for its caller is the registry."""

    def test_dispatcher_keeps_and_fills_a_caller_empty_registry(self, empty_registry):
        # Kept, not copied: what the caller registers afterwards, the
        # dispatcher's registry holds.
        dispatcher = CostModelDispatcher(RTX3090, registry=empty_registry)
        empty_registry.register(default_registry().get("packed"))
        assert dispatcher.registry is empty_registry
        assert dispatcher.registry.names() == ("packed",)

"""Identity minted once, on the immutable object it identifies.

A compiled plan seals its content digest on first read (a verified cache
hit compares two strings), a batch member memoises its structure digest
and its self-looped CSR on itself — but only while mutation cannot go
unnoticed — and a plan step
binds what every launch would re-derive (backend, dtype, label, bucket,
counters) into ``GemmStep.derived``.  Each memo must equal the fresh
derivation, follow its object through ``replace`` / pickle the right way,
and notice every change of what it was derived from.
"""

from __future__ import annotations

import gc
import pickle
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bitgemm import codes_gemm, exact_gemm_dtype
from repro.core.bitpack import Operand
from repro.gnn import make_batched_gin
from repro.gnn.quantized import _bind
from repro.graph import induced_subgraphs
from repro.graph.batching import Subgraph, SubgraphBatch
from repro.graph.csr import CSRGraph
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.plan import Backend, BackendRegistry, compile_forward_plan
from repro.plan.autotune import bucket_for, bucket_in
from repro.plan.cache import PlanCache, artifact_digest
from repro.plan.ir import GemmSpec, compile_gemm_step
from repro.plan.registry import default_registry, resolve_engine_name
from repro.serving import InferenceEngine, ServingConfig
from repro.serving.engine import _member_key
from repro.tc.kernel import BitGemmKernel, KernelConfig


@pytest.fixture
def subgraphs(rng):
    g = planted_partition_graph(
        128, 800, num_communities=4, feature_dim=8, num_classes=3, rng=rng
    )
    return induced_subgraphs(g, metis_like_partition(g, 4))


@pytest.fixture
def model():
    return make_batched_gin(8, 3, hidden_dim=8, seed=3)


def _plan(model, **kwargs):
    return compile_forward_plan(
        model, num_nodes=64, feature_bits=4, engine="blas",
        adjacency_key=("adjacency", "a"), **kwargs,
    )


class TestPlanDigest:
    def test_sealed_once_and_what_a_verified_segment_records(self, model):
        plan = _plan(model)
        assert "digest" not in plan.__dict__  # not a field, sealed on demand
        assert artifact_digest(plan) is plan.digest is plan.__dict__["digest"]
        assert "digest" not in repr(plan) and plan == _plan(model)
        assert plan.digest == _plan(model).digest  # content, not identity

    def test_a_copy_seals_its_own(self, model):
        plan = _plan(model)
        sealed = plan.digest
        patched = plan.retarget_adjacency(("adjacency", "b"))
        fewer = replace(plan, layers=plan.layers)
        for copy in (patched, fewer):
            assert "digest" not in copy.__dict__  # never inherited
        assert patched.digest != sealed
        assert fewer.digest == sealed  # same content, hashed for itself

    def test_pickle_round_trips_the_digest_not_the_bindings(self, model, subgraphs):
        engine = InferenceEngine(model, ServingConfig(feature_bits=8, batch_size=4))
        engine.infer(subgraphs)
        plan = engine.plan_for(SubgraphBatch(members=tuple(subgraphs)))
        assert all(step.derived for step in plan.gemm_steps())
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan and clone.__dict__["digest"] == plan.digest
        # Bindings hold live registry objects: a shipped step re-derives them.
        assert not any("derived" in step.__dict__ for step in clone.gemm_steps())

    def test_a_swapped_entry_is_still_caught(self, model):
        """What a hit verifies now: the record against the digest of the
        artifact the entry holds (``corrupt()`` and the ``cache`` fault site
        are pinned, unedited, in ``tests/serving/test_cache_poisoning.py``)."""
        cache = PlanCache({"plan": 4})
        plan = _plan(model)
        cache.put(("plan", "x"), plan)
        assert cache.get(("plan", "x")) is plan
        segment = cache.segment("plan")
        segment._entries[("plan", "x")] = plan.retarget_adjacency(("adjacency", "b"))
        assert cache.get(("plan", "x")) is None
        assert segment.stats.poisoned == 1


class TestMemberDigestMemo:
    def test_in_place_writes_raise_once_digested(self, subgraphs):
        sub = subgraphs[0]
        key = _member_key(sub)
        assert _member_key(sub) is key  # looked up, not re-hashed
        for array in (sub.graph.indptr, sub.graph.indices):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_a_rebound_array_changes_the_adjacency_key(self, model, subgraphs):
        engine = InferenceEngine(model, ServingConfig(feature_bits=4, batch_size=4))
        batch = SubgraphBatch(members=tuple(subgraphs))
        before = engine._members_digest(batch)
        graph = subgraphs[0].graph
        # A different, equally valid structure: two neighbours of node 0 swapped
        # for one repeated (the CSR stays well formed).
        rebound = graph.indices.copy()
        rebound[1] = rebound[0]
        graph.indices = rebound
        after = engine._members_digest(batch)
        assert after[0] != before[0] and after[1:] == before[1:]
        assert engine._members_digest(batch) == after  # and memoised again

    def test_a_thawed_or_unpickled_member_is_hashed_again(self, subgraphs):
        sub = subgraphs[0]
        key = _member_key(sub)
        sub.graph.indices.setflags(write=True)
        sub.graph.indices[1] = sub.graph.indices[0]
        assert _member_key(sub)[2] != key[2]
        shipped = pickle.loads(pickle.dumps(subgraphs[1]))
        assert shipped.graph.indices.flags.writeable  # pickle thaws arrays
        fresh = _member_key(subgraphs[1])
        assert _member_key(shipped) == fresh
        shipped.graph.indices[1] = shipped.graph.indices[0]  # before any digest
        shipped.__dict__.pop("_member_key", None)
        assert _member_key(shipped)[2] != fresh[2]

    def test_borrowed_memory_is_never_trusted(self, subgraphs):
        graph = subgraphs[0].graph
        store = np.concatenate([graph.indices, graph.indices])
        view = CSRGraph(indptr=graph.indptr.copy(), indices=store[: graph.indices.size])
        sub = Subgraph(graph=view, original_nodes=subgraphs[0].original_nodes)
        key = _member_key(sub)
        assert "_member_key" not in sub.__dict__
        store[1] = store[0]  # through the owner: no flag could stop this
        assert _member_key(sub)[2] != key[2]

    @pytest.mark.timeout(60)
    def test_concurrent_digests_of_one_member_agree(self, rng):
        """Two shards route the same ``Subgraph``: whichever thread's memo
        lands, every caller reads the one content digest (seeded schedule
        stress, as ``tests/serving/test_work_budget.py``'s reader test)."""
        g = planted_partition_graph(
            512, 4000, num_communities=16, feature_dim=4, num_classes=2, rng=rng
        )
        members = induced_subgraphs(g, metis_like_partition(g, 16))
        expected = [_member_key(pickle.loads(pickle.dumps(sub))) for sub in members]
        seen: list[list[tuple]] = [[], [], []]
        start = threading.Barrier(len(seen))

        def digest_all(out):
            start.wait(timeout=30)
            for _ in range(20):
                out.extend(_member_key(sub) for sub in members)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=digest_all, args=(out,)) for out in seen]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for out in seen:
            assert out == expected * 20


#: Every memo a member carries, under the one rule of ``Subgraph.memo``:
#: ``name -> (key in the member's __dict__, read)``.
MEMBER_MEMOS = {
    "member_key": ("_member_key", _member_key),
    "self_looped_csr": ("_self_looped_csr", lambda sub: sub.self_looped_csr),
    "csr_block": ("_native_block", lambda sub: sub.csr_block),
}


def _content(value: tuple) -> tuple:
    """A memo's value in a form ``==`` compares by content — a native
    record (bytes) by what it says past the addresses, which must be those
    of the arrays it travels with."""
    if isinstance(value[0], np.ndarray) and isinstance(value[-1], bytes):
        words = np.frombuffer(value[-1], np.intp)
        assert words[:2].tolist() == [v.ctypes.data for v in value[:2]]
        value = (*value[:-1], words[2:].tobytes())
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in value)


def _fresh(read, sub: Subgraph) -> tuple:
    """What ``read`` derives from scratch: an unpickled member's arrays
    borrow the pickle's memory, so nothing memoised is trusted."""
    return _content(read(pickle.loads(pickle.dumps(sub))))


@pytest.fixture(params=sorted(MEMBER_MEMOS))
def member_memo(request):
    return MEMBER_MEMOS[request.param]


class TestEveryMemberMemoFollowsTheRule:
    """``TestMemberDigestMemo``'s cases, once per memo a member carries."""

    def test_served_from_the_member_while_the_arrays_hold(self, member_memo, subgraphs):
        name, read = member_memo
        sub = subgraphs[0]
        value = read(sub)
        assert read(sub) is value and sub.__dict__[name][2] is value
        assert _content(value) == _fresh(read, sub)
        for array in (sub.graph.indptr, sub.graph.indices):
            assert not array.flags.writeable

    def test_a_rebound_array_derives_again(self, member_memo, subgraphs):
        name, read = member_memo
        sub = subgraphs[0]
        before = _content(read(sub))
        rebound = sub.graph.indices.copy()
        rebound[1] = rebound[0]
        sub.graph.indices = rebound
        after = read(sub)
        assert _content(after) != before and _content(after) == _fresh(read, sub)
        assert read(sub) is after  # and memoised again

    def test_a_thawed_or_unpickled_member_derives_again(self, member_memo, subgraphs):
        name, read = member_memo
        sub = subgraphs[0]
        before = _content(read(sub))
        sub.graph.indices.setflags(write=True)
        sub.graph.indices[1] = sub.graph.indices[0]
        assert _content(read(sub)) != before
        shipped = pickle.loads(pickle.dumps(subgraphs[1]))
        fresh = _content(read(subgraphs[1]))
        assert _content(read(shipped)) == fresh
        shipped.graph.indices[1] = shipped.graph.indices[0]
        assert _content(read(shipped)) != fresh

    def test_borrowed_memory_is_never_trusted(self, member_memo, subgraphs):
        name, read = member_memo
        graph = subgraphs[0].graph
        store = np.concatenate([graph.indices, graph.indices])
        view = CSRGraph(indptr=graph.indptr.copy(), indices=store[: graph.indices.size])
        sub = Subgraph(graph=view, original_nodes=subgraphs[0].original_nodes)
        before = _content(read(sub))
        assert name not in sub.__dict__ and store.flags.writeable
        store[1] = store[0]  # through the owner: no flag could stop this
        assert _content(read(sub)) != before

    @pytest.mark.timeout(60)
    def test_concurrent_reads_of_one_member_agree(self, member_memo, rng):
        name, read = member_memo
        g = planted_partition_graph(
            512, 4000, num_communities=16, feature_dim=4, num_classes=2, rng=rng
        )
        members = induced_subgraphs(g, metis_like_partition(g, 16))
        expected = [_fresh(read, sub) for sub in members]
        seen: list[list[tuple]] = [[], [], []]
        start = threading.Barrier(len(seen))

        def read_all(out):
            start.wait(timeout=30)
            for _ in range(20):
                out.extend(_content(read(sub)) for sub in members)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=read_all, args=(out,)) for out in seen]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for out in seen:
            assert out == expected * 20

    def test_the_self_looped_csr_dies_with_its_member(self, subgraphs):
        sub = subgraphs.pop(0)
        batch = SubgraphBatch(members=(sub,))
        adjacency = batch.adjacency_csr()  # a copy: it holds no memo array
        indptr, indices = sub.self_looped_csr
        refs = [weakref.ref(sub), weakref.ref(indptr), weakref.ref(indices)]
        del sub, batch, indptr, indices
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]
        assert adjacency.nnz > 0


def _registry(names, flavour):
    """A registry holding ``names``, each a distinguishable ``blas`` clone."""
    caps = default_registry().get("blas").caps
    return BackendRegistry(
        [
            Backend(
                name=name, caps=caps,
                run=lambda a, b, masks=None, tag=(name, flavour): codes_gemm(a, b, masks),
            )
            for name in names
        ]
    )


specs = st.builds(
    GemmSpec,
    m=st.integers(1, 40), k=st.integers(1, 300), n=st.integers(1, 24),
    bits_a=st.sampled_from([1, 2, 8, 16, 32]), bits_b=st.sampled_from([1, 4, 8, 32]),
    role=st.sampled_from(["aggregate", "update"]),
)


class TestStepBindings:
    @given(
        spec=specs,
        names=st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True),
        pick=st.integers(0, 3),
        config=st.builds(
            KernelConfig,
            zero_tile_jumping=st.booleans(),
            reuse=st.sampled_from(["cross-bit", "cross-tile"]),
        ),
        fractions=st.lists(
            st.one_of(st.none(), st.floats(0.0, 1.0)), min_size=1, max_size=3
        ),
        layer=st.integers(0, 3),
    )
    def test_bound_values_equal_fresh_derivations(
        self, spec, names, pick, config, fractions, layer
    ):
        registry = _registry(names, "first")
        name = names[pick % len(names)]
        step = compile_gemm_step(spec, engine=name, registry=registry)

        def check():
            backend, dtype, label = _bind(step, layer, registry)
            assert backend is registry.get(resolve_engine_name(name, spec, registry))
            assert dtype == exact_gemm_dtype(spec.k, spec.bits_a, spec.bits_b)
            assert label == f"{spec.role}/L{layer}"
            assert _bind(step, layer, registry) is _bind(step, layer, registry)
            return backend

        first = check()
        # A replaced backend is a new registry state: the binding follows it.
        registry.register(_registry([name], "second").get(name), replace=True)
        assert check() is not first
        # A registry that lacks the backend raises as every ``engine=`` does.
        others = [n for n in "abcd" if n != name]
        with pytest.raises(Exception) as lacking:
            _bind(step, layer, _registry(others, "first"))
        with pytest.raises(type(lacking.value)):
            resolve_engine_name(name, spec, _registry(others, "first"))
        registry.unregister(name)
        with pytest.raises(type(lacking.value)):
            _bind(step, layer, registry)

        for fraction in fractions + fractions[:1]:  # asked again: a lookup
            assert bucket_in(step.derived, spec, fraction) == bucket_for(spec, fraction)

        # Counters of census-less launches, memoised on the step, equal a
        # fresh derivation — per kernel configuration.
        rng = np.random.default_rng(spec.m * 1000 + spec.k)
        a = Operand(rng.integers(0, 2, size=(spec.m, spec.k)), 1, "col")
        b = Operand(rng.integers(0, 1 << min(spec.bits_b, 8), size=(spec.k, spec.n)),
                    spec.bits_b, "row")
        backend = default_registry().get("blas")
        for cfg in (config, KernelConfig(), config):
            kernel = BitGemmKernel(cfg)
            memo = {} if cfg.zero_tile_jumping else step.derived  # census: its own
            held = kernel.launch(backend, a, b, None, memo).counters
            assert kernel.launch(backend, a, b, None, memo).counters == held
            assert held == BitGemmKernel(cfg).launch(backend, a, b).counters

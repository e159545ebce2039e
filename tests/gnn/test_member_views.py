"""A batch is a view of its members: rounds over the views equal rounds over copies.

:func:`~repro.gnn.quantized.pack_batch_adjacency` keeps the members'
self-looped CSRs as the adjacency's diagonal blocks, and a fused aggregate
gathers through each block at its node offset; step 0's native quantize
reads each member's float32 or float64 feature rows by address.  The
reference is the same plan, under the same frozen calibration, over the
batch CSR (:meth:`SubgraphBatch.adjacency_csr`) and the features
concatenated into float64 (:meth:`SubgraphBatch.features`): logits, bit
for bit, and every step's ``tc.*`` counters must be equal.  Members are
drawn at sizes either side of a group of 8 rows and a block of 128
columns, so their offsets straddle tile seams; some have an isolated node,
some no edges at all.
"""

from __future__ import annotations

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.core.bitpack import Operand
from repro.core.quantization import calibrate
from repro.errors import ShapeError, is_retryable
from repro.gnn import make_batched_gin, make_cluster_gcn
from repro.gnn.quantized import (
    ActivationCalibration,
    PackedAdjacency,
    execute_forward_plan,
    pack_batch_adjacency,
    pack_layer_weight,
)
from repro.graph.batching import Subgraph, SubgraphBatch
from repro.graph.csr import CSRGraph
from repro.plan.ir import compile_forward_plan
from repro.serving import InferenceEngine, ServingConfig
from repro.tc.kernel import plan_tile_skip

needs_kernel = pytest.mark.skipif(native.load() is None, reason="no C compiler on this host")

SIZES = (1, 7, 8, 9, 127, 128, 129)
FEATURES = 12
MODELS = {
    "gcn1": (lambda: make_cluster_gcn(FEATURES, 3, seed=4), 1),
    "gin8": (lambda: make_batched_gin(FEATURES, 3, hidden_dim=16, seed=4), 8),
}


def member(num_nodes: int, kind: str, wide: bool, seed: int, width: int = FEATURES) -> Subgraph:
    """A ``kind`` member — ``dense``, ``isolated`` (node 0 has no edge) or
    ``edgeless`` — with ``width`` float64 features when ``wide``."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, num_nodes, size=(0 if kind == "edgeless" else 3 * num_nodes, 2))
    if kind == "isolated":
        edges = edges[(edges != 0).all(axis=1)]
    graph = CSRGraph.from_edges(num_nodes, edges,
                                features=rng.standard_normal((num_nodes, width)).astype(np.float32))
    if wide:  # CSRGraph stores float32; a member may carry float64 features all the same
        graph.features = graph.features.astype(np.float64) + rng.standard_normal((num_nodes, width)) / 7
    return Subgraph(graph=graph, original_nodes=np.arange(num_nodes))


def batch_csr(batch: SubgraphBatch) -> PackedAdjacency:
    """The adjacency as one concatenated batch CSR (the NumPy reference)."""
    operand = Operand(csr=batch.adjacency_csr())
    degrees = np.diff(operand.csr.indptr).astype(np.float64)[:, None]
    return PackedAdjacency(operand, plan_tile_skip(operand), degrees)


@needs_kernel
@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    members=st.lists(
        st.tuples(st.sampled_from(SIZES), st.sampled_from(["dense", "isolated", "edgeless"]), st.booleans()),
        min_size=1, max_size=8,
    ),
    model=st.sampled_from(sorted(MODELS)),
    seed=st.integers(0, 2**16),
)
@example(members=[(1, "edgeless", False)], model="gcn1", seed=0)  # the diagonal alone
@example(members=[(7, "isolated", True), (129, "dense", False), (8, "edgeless", True),
                  (127, "dense", True), (9, "isolated", False), (128, "dense", False),
                  (1, "edgeless", True), (129, "isolated", False)], model="gin8", seed=1)
def test_member_view_rounds_equal_batch_csr_rounds(members, model, seed):
    build, bits = MODELS[model]
    model = build()
    batch = SubgraphBatch(members=tuple(
        member(n, kind, wide, seed + i) for i, (n, kind, wide) in enumerate(members)
    ))
    plan = compile_forward_plan(model, num_nodes=batch.num_nodes, feature_bits=bits, engine="blas")
    calibration = ActivationCalibration()
    weights = [pack_layer_weight(w, layer.update.spec.bits_b) for w, layer in zip(model.weights, plan.layers)]

    def run(adjacency):
        return execute_forward_plan(plan, model, batch, packed_weights=weights, packed_adjacency=adjacency,
                                    calibration=calibration)

    run(pack_batch_adjacency(batch))  # freezes every site and keeps the template part
    views, viewed, member_rows = pack_batch_adjacency(batch), [], native.member_rows
    assert len(views.operand.blocks) == len(batch.members) and views.operand.csr_nbytes
    assert views.operand._csr is None
    with mock.patch.object(native, "member_rows", lambda *args: viewed.append(member_rows(*args)) or viewed[-1]):
        got, replay = run(views), run(views)  # a binding round over the template, then a replay
    assert len(viewed) == 2 and None not in viewed  # step 0 read the members' rows
    assert views.operand._csr is None  # and no batch CSR was built
    np.testing.assert_array_equal(got.logits.view(np.uint64), replay.logits.view(np.uint64))
    concatenated, features = [], SubgraphBatch.features
    with mock.patch.object(native, "member_rows", lambda *args: None), mock.patch.object(
        SubgraphBatch, "features", lambda self, dtype=None: concatenated.append(dtype) or features(self, dtype)
    ):
        want = run(batch_csr(batch))
    assert concatenated == [np.float64]
    np.testing.assert_array_equal(got.logits.view(np.uint64), want.logits.view(np.uint64))
    assert got.counters == want.counters
    assert np.array_equal(views.degrees, batch_csr(batch).degrees)
    assert np.array_equal(views.plan.masks[0], batch_csr(batch).plan.masks[0])


@pytest.mark.parametrize("library", ["native", "numpy"])
def test_members_of_another_feature_width_raise_a_shape_error(monkeypatch, library):
    """Members 4 and 5 features wide raise :class:`ShapeError` — a
    validation error, so a gateway never retries it — whether a round
    concatenates the features (a first round, or no library) or step 0
    reads the members' rows natively (a round over a bound template)."""
    if library == "numpy":
        monkeypatch.setattr(native, "load", lambda: None)
    elif native.load() is None:
        pytest.skip("no C compiler on this host")
    config = ServingConfig(feature_bits=1, batch_size=2)
    engine = InferenceEngine(make_cluster_gcn(4, 3, seed=4), config)
    engine.infer([member(9, "dense", False, 1, width=4), member(7, "dense", False, 2, width=4)])
    mixed = [member(9, "dense", False, 3, width=4), member(7, "isolated", True, 4, width=5)]
    fresh = InferenceEngine(make_cluster_gcn(4, 3, seed=4), config)
    viewed, member_rows = [], native.member_rows
    monkeypatch.setattr(native, "member_rows", lambda *args: viewed.append(member_rows(*args)) or viewed[-1])
    for serving, members in ((engine, mixed), (engine, mixed[::-1]), (fresh, mixed)):
        with pytest.raises(ShapeError) as raised:
            serving.infer(members)
        assert not is_retryable(raised.value)
    assert len(viewed) == (2 if library == "native" else 0) and None not in viewed


def test_a_members_native_records_follow_their_arrays_and_no_pickle():
    """A member's feature record is kept while ``graph.features`` is the
    same array and derives again for a rebound one; its CSR record follows
    the structure memo; neither crosses a pickle (an address means nothing
    in another process)."""
    sub = member(9, "dense", False, 1)
    rows, block = sub.feature_rows, sub.csr_block
    assert sub.feature_rows is rows and sub.csr_block is block
    assert rows.held == (sub.graph.features,) and address(rows) == sub.graph.features.ctypes.data
    assert block[:2] == sub.self_looped_csr and addresses_its_arrays(block)
    sub.graph.features = sub.graph.features.copy()  # rebound: derives again
    assert address(sub.feature_rows) == sub.graph.features.ctypes.data
    clone = pickle.loads(pickle.dumps(sub))
    assert not [name for name in vars(clone) if name.startswith("_native")]
    assert address(clone.feature_rows) == clone.graph.features.ctypes.data
    assert addresses_its_arrays(clone.csr_block)


def address(rows: native.Rows) -> int:
    """The address a one-member :class:`native.Rows` reads its rows at."""
    return int(np.frombuffer(rows.table, np.intp)[1])


def addresses_its_arrays(block: tuple) -> bool:
    """Whether a CSR block's native record addresses the block's own arrays."""
    return np.frombuffer(block[2], np.intp)[:2].tolist() == [a.ctypes.data for a in block[:2]]


@needs_kernel
@pytest.mark.parametrize("source", ["unpickled", "borrowed"])
def test_members_whose_arrays_are_not_memoised_serve_through_their_own_records(source):
    """A member whose structure arrays borrow their memory (unpickled from
    protocol 5, or a view of a larger array) derives its self-looped CSR afresh on every
    read: each block of its adjacency must still address the arrays it
    travels with, and a fused round over the views must equal the NumPy
    round over the batch CSR and the concatenated features."""
    members = [member(n, kind, wide, 30 + i) for i, (n, kind, wide) in
               enumerate([(9, "dense", True), (129, "isolated", False), (8, "edgeless", False)])]
    if source == "unpickled":
        members = [pickle.loads(pickle.dumps(sub, protocol=5)) for sub in members]  # views of the pickle
    else:
        for sub in members:
            store = np.concatenate([sub.graph.indices, sub.graph.indices])
            sub.graph.indices = store[: sub.graph.indices.size]
    batch = SubgraphBatch(members=tuple(members))
    model = MODELS["gin8"][0]()
    plan = compile_forward_plan(model, num_nodes=batch.num_nodes, feature_bits=8, engine="blas")
    calibration = ActivationCalibration()
    weights = [pack_layer_weight(w, layer.update.spec.bits_b) for w, layer in zip(model.weights, plan.layers)]

    def run(adjacency):
        return execute_forward_plan(plan, model, batch, packed_weights=weights, packed_adjacency=adjacency,
                                    calibration=calibration).logits

    run(pack_batch_adjacency(batch))  # freezes every site and keeps the template part
    views = pack_batch_adjacency(batch)
    assert "_native_block" not in vars(members[0]) and all(map(addresses_its_arrays, views.operand.blocks))
    got = run(views)
    with mock.patch.object(native, "member_rows", lambda *args: None):
        want = run(batch_csr(batch))
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert views.operand._csr is None


@needs_kernel
@pytest.mark.parametrize("width", [1, 50, 128, 130, 257])
def test_the_quantize_entry_reads_member_rows_of_any_width(width):
    """Step 0's entry over members' float32 and float64 rows — whole rows
    of a block in one span, in place, or split into 128-column blocks —
    writes the codes, row sums and live-tile count of the float64
    concatenation."""
    rng = np.random.default_rng(width)
    features = [rng.standard_normal((n, width)).astype(dtype)
                for n, dtype in ((9, np.float32), (7, np.float64), (1, np.float32), (16, np.float64), (8, np.float64))]
    dense = np.concatenate(features, dtype=np.float64)
    rows = native.member_rows([native.feature_rows(f) for f in features], dense.shape)
    for bits in (1, 8):
        entry = native.bind_quantize(calibrate(dense, bits), np.float32, dense.shape, True)
        (want, want_sums, want_live), (got, got_sums, got_live) = entry.run(dense), entry.run(rows)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
        np.testing.assert_array_equal(got_sums, want_sums)
        assert got_live == want_live

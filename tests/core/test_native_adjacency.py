"""A batch adjacency built in one native pass equals the NumPy path's.

:func:`~repro.gnn.quantized.pack_batch_adjacency` concatenates the members'
self-looped CSRs, writes the degrees and takes the §4.3 census in one call
into :mod:`repro.core.native`.  The reference is the same function with the
library unavailable (``native.load`` -> ``None``): the concatenated CSR,
its arrays' dtypes and canonical flag, the degrees and the tile mask must
be equal.  Members are drawn at sizes either side of a group of 8 rows and
a block of 128 columns, so their offsets straddle tile seams; some store
self loops, some have no edges.  A member the pass refuses raises what the
NumPy path raises, or builds what it builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.errors import PackingError
from repro.gnn.quantized import pack_batch_adjacency
from repro.graph.batching import Subgraph, SubgraphBatch
from repro.graph.csr import CSRGraph

pytestmark = pytest.mark.skipif(native.load() is None, reason="no C compiler on this host")

SIZES = (1, 7, 8, 9, 127, 128, 129, 257)


def member(num_nodes: int, edges: int, loops: bool, seed: int) -> Subgraph:
    """A member with about ``edges`` random edges, and its diagonal stored
    when ``loops``."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, num_nodes, size=(edges, 2))
    if loops:
        pairs = np.concatenate([pairs, np.repeat(np.arange(num_nodes), 2).reshape(-1, 2)])
    graph = CSRGraph.from_edges(num_nodes, pairs)
    return Subgraph(graph=graph, original_nodes=np.arange(num_nodes))


@dataclass(frozen=True)
class Stored(Subgraph):
    """A member whose self-looped CSR is ``loops``, as given: what a
    corrupted memo would hand the packer."""

    loops: tuple = ()

    @property
    def self_looped_csr(self):
        return self.loops


def stored(indptr, indices, dtype=np.int32) -> Stored:
    n = len(indptr) - 1
    graph = CSRGraph.from_edges(n, np.zeros((0, 2), np.int64))
    loops = (np.array(indptr, dtype), np.array(indices, dtype))
    return Stored(graph=graph, original_nodes=np.arange(n), loops=loops)


def reference(batch: SubgraphBatch):
    with mock.patch.object(native, "load", lambda: None):
        return pack_batch_adjacency(batch)


def assert_same(got, want) -> None:
    for a, b in ((got.csr.indptr, want.csr.indptr), (got.csr.indices, want.csr.indices),
                 (got.csr.data, want.csr.data), (got.degrees, want.degrees),
                 (got.plan.masks[0], want.plan.masks[0])):
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)
    assert got.csr.shape == want.csr.shape
    assert got.csr.has_canonical_format == want.csr.has_canonical_format
    assert got.csr.has_sorted_indices == want.csr.has_sorted_indices
    assert got.plan.nonzero_tiles == want.plan.nonzero_tiles


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    members=st.lists(
        st.tuples(st.sampled_from(SIZES), st.sampled_from([0, 1, 3]), st.booleans()),
        min_size=1, max_size=5,
    ),
    seed=st.integers(0, 2**16),
)
@example(members=[(1, 0, False)], seed=0)  # a single node: the diagonal alone
@example(members=[(7, 3, True), (129, 1, False), (8, 0, True), (257, 3, True)], seed=1)
def test_native_pass_equals_the_numpy_path(members, seed):
    """Whatever the members hold, the native pass's CSR, canonical flag,
    degrees and census are the NumPy path's, and it took none of them
    from the NumPy path."""
    batch = SubgraphBatch(members=tuple(
        member(n, density * n, loops, seed + i) for i, (n, density, loops) in enumerate(members)
    ))
    assert native.adjacency([sub.self_looped_csr for sub in batch.members]) is not None
    with mock.patch.object(SubgraphBatch, "adjacency_csr", side_effect=AssertionError):
        got = pack_batch_adjacency(batch)
    assert got.csr.has_canonical_format and not got.plan.masks[0].flags.writeable
    assert_same(got, reference(batch))


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param(([0, 2, 3], [1, 0, 1]), id="unsorted-row"),
        pytest.param(([0, 2, 3], [0, 0, 1]), id="repeated-coordinate"),
        pytest.param(([0, 2, 1], [0, 1]), id="decreasing-pointers"),
    ],
)
def test_a_non_canonical_member_raises_what_the_numpy_path_raises(bad):
    batch = SubgraphBatch(members=(member(9, 9, False, 0), stored(*bad)))
    assert native.adjacency([sub.self_looped_csr for sub in batch.members]) is None
    with pytest.raises(PackingError) as numpy_error:
        reference(batch)
    with pytest.raises(PackingError) as native_error:
        pack_batch_adjacency(batch)
    assert str(native_error.value) == str(numpy_error.value)


@pytest.mark.parametrize(
    "batch",
    [
        pytest.param(lambda: (stored([0, 1, 2], [0, 2]), member(8, 8, True, 1)), id="out-of-block"),
        pytest.param(lambda: (member(9, 9, True, 2), stored([0, 1, 2], [0, 1], np.int64)),
                     id="int64-member"),
    ],
)
def test_a_member_the_pass_does_not_take_builds_the_numpy_path(batch):
    """A row that leaves its block, or int64 arrays: the NumPy path's CSR."""
    batch = SubgraphBatch(members=batch())
    assert native.adjacency([sub.self_looped_csr for sub in batch.members]) is None
    assert_same(pack_batch_adjacency(batch), reference(batch))

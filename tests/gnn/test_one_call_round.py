"""A warm round is one foreign call, and it equals the step loop bit for bit.

Over a frozen calibration a bound program's replay runs every step —
step 0's quantize, each update step's BLAS GEMM and tail, each aggregate
step's gathering tail — in one native entry
(:func:`repro.core.native.bind_program`).  The reference is the same replay
through the step loop, which a round with an armed (silent) fault plan
keeps: logits bit for bit, each step's counters, their ``tc.*`` tallies
and the recoveries must be equal.  Batches are drawn at 7, 8, 9, 127, 128
and 129 rows (either side of a group of 8 rows and a block of 128
columns), hidden widths either side of 128 (and one past float32's exact
bound, so an update step runs dgemm), with an isolated node or no edge at
all; GIN and GCN at 1, 2, 4 and 8 bits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.faultinject import FaultPlan, FaultSpec
from repro.gnn import make_batched_gin, make_cluster_gcn
from repro.gnn.quantized import (
    ActivationCalibration,
    execute_forward_plan,
    pack_batch_adjacency,
    pack_layer_weight,
)
from repro.graph.batching import Subgraph, SubgraphBatch
from repro.graph.csr import CSRGraph
from repro.plan.ir import compile_forward_plan
from repro.serving.supervision import StepRecovery

needs_kernel = pytest.mark.skipif(native.load() is None or native.blas_gemm() is None,
                                  reason="no C compiler or no NumPy OpenBLAS on this host")

FEATURES = 12
MODELS = {"gin": make_batched_gin, "gcn": make_cluster_gcn}


def member(num_nodes: int, kind: str, seed: int) -> Subgraph:
    """A ``dense``, ``isolated`` (node 0 has no edge) or ``edgeless`` member."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, num_nodes, size=(0 if kind == "edgeless" else 3 * num_nodes, 2))
    if kind == "isolated":
        edges = edges[(edges != 0).all(axis=1)]
    graph = CSRGraph.from_edges(num_nodes, edges,
                                features=rng.standard_normal((num_nodes, FEATURES)).astype(np.float32))
    return Subgraph(graph=graph, original_nodes=np.arange(num_nodes))


def rounds(kind, bits, hidden, members, seed):
    """A binding round, then a replay per recovery: the one-call path (no
    fault plan) and the step loop (a silent fault plan armed); returns the
    two results and how many rounds ran as one call."""
    model = MODELS[kind](FEATURES, 3, hidden_dim=hidden, seed=seed)
    batch = SubgraphBatch(members=tuple(member(n, k, seed + i) for i, (n, k) in enumerate(members)))
    plan = compile_forward_plan(model, num_nodes=batch.num_nodes, feature_bits=bits, engine="blas")
    weights = [pack_layer_weight(w, layer.update.spec.bits_b) for w, layer in zip(model.weights, plan.layers)]
    calibration, adjacency = ActivationCalibration(), pack_batch_adjacency(batch)
    calls, run = [], native.Replay.run

    def forward(recovery):
        return execute_forward_plan(plan, model, batch, packed_weights=weights, packed_adjacency=adjacency,
                                    calibration=calibration, recovery=recovery)

    forward(StepRecovery())  # freezes every site and binds the program
    silent = FaultPlan(seed=0, specs=[FaultSpec("kernel", at=(10**9,))])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native.Replay, "run", lambda self, features: calls.append(1) or run(self, features))
        one_call, loop = forward(StepRecovery()), forward(StepRecovery(fault_plan=silent))
    assert silent.probes("kernel") == len(plan.layers) * 2
    return one_call, loop, len(calls)


def assert_same_round(got, want):
    np.testing.assert_array_equal(got.logits.view(np.uint64), want.logits.view(np.uint64))
    assert got.counters == want.counters and got.recoveries == want.recoveries == ()
    tallies = [(t.mma_ops, t.launches, t.tiles_total, t.tiles_skipped)
               for t in (got.total_counters, want.total_counters)]
    assert tallies[0] == tallies[1]
    assert len(got.stamps) == len(want.stamps) == len(got.program.layouts[0]) + 1


@needs_kernel
@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(sorted(MODELS)),
    bits=st.sampled_from([1, 2, 4, 8]),
    hidden=st.sampled_from([16, 127, 128, 129]),
    members=st.lists(st.tuples(st.sampled_from([7, 8, 9, 127, 128, 129]),
                               st.sampled_from(["dense", "isolated", "edgeless"])), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
)
@example(kind="gin", bits=8, hidden=300, members=[(129, "isolated")], seed=3)  # dgemm: 300 * 255**2 >= 2**24
@example(kind="gcn", bits=1, hidden=16, members=[(7, "edgeless")], seed=0)  # the diagonal alone
def test_a_one_call_round_equals_the_step_loop(kind, bits, hidden, members, seed):
    one_call, loop, calls = rounds(kind, bits, hidden, members, seed)
    assert calls == 1  # only the replay without a fault plan ran as one call
    assert_same_round(one_call, loop)


@needs_kernel
def test_without_numpys_sgemm_a_warm_round_takes_the_loop(monkeypatch):
    """With the GEMM lookup finding nothing, no program binds one entry: the
    replay runs the step loop, to the same bits."""
    want, _, _ = rounds("gin", 8, 129, [(9, "isolated"), (128, "dense")], 5)
    monkeypatch.setattr(native, "blas_gemm", lambda: None)
    looped, loop, calls = rounds("gin", 8, 129, [(9, "isolated"), (128, "dense")], 5)
    assert calls == 0
    assert_same_round(looped, want)
    assert_same_round(loop, want)

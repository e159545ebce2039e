"""The bound program of ``execute_forward_plan``: what binding checks once,
what a bound step hands its GEMM, and that binding and replay report alike.

A plan's first run over a set of artifacts lowers it against them; every
later run replays that program.  The checks that moved to binding must
still refuse what they refused per step, the codes a bound ``blas`` step
multiplies must stay inside the range the exact dtype was chosen for, and
a replay must describe its work exactly as the binding round did.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitgemm import exact_gemm_dtype
from repro.errors import BitwidthError
from repro.gnn import make_batched_gin, make_cluster_gcn
from repro.gnn import quantized as quantized_module
from repro.gnn.quantized import (
    ActivationCalibration,
    execute_forward_plan,
    pack_batch_adjacency,
    pack_layer_weight,
    quantized_forward,
)
from repro.graph import CSRGraph
from repro.graph.batching import Subgraph, SubgraphBatch
from repro.plan import compile_forward_plan

#: Largest sum each exact GEMM dtype accumulates without rounding.
DTYPE_LIMIT = {np.dtype(np.float32): 1 << 24, np.dtype(np.float64): 1 << 53}


def _batch(num_nodes: int, feature_dim: int, seed: int = 0) -> SubgraphBatch:
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, num_nodes, size=(3 * num_nodes, 2))
    graph = CSRGraph.from_edges(
        num_nodes, edges,
        features=rng.standard_normal((num_nodes, feature_dim)).astype(np.float32),
    )
    return SubgraphBatch(members=(Subgraph(graph=graph, original_nodes=np.arange(num_nodes)),))


class TestWeightBitwidthIsBound:
    """Weights wider than the plan's update steps would run in a dtype that
    is not exact for them: a 4-bit plan over 16-bit weights picks float32
    for sums that exceed ``2**24``."""

    def test_weights_wider_than_the_plan_raise(self):
        batch = _batch(512, 16)
        model = make_batched_gin(16, 4, hidden_dim=512, seed=2)
        plan = compile_forward_plan(
            model, num_nodes=batch.num_nodes, feature_bits=4, weight_bits=4, engine="blas"
        )
        wide = [pack_layer_weight(w, 16) for w in model.weights]
        with pytest.raises(BitwidthError, match="16-bit"):
            execute_forward_plan(plan, model, batch, packed_weights=wide)

    def test_weights_of_the_plans_width_run(self):
        batch = _batch(64, 8)
        model = make_batched_gin(8, 4, hidden_dim=16, seed=2)
        plan = compile_forward_plan(
            model, num_nodes=batch.num_nodes, feature_bits=4, weight_bits=4, engine="blas"
        )
        weights = [pack_layer_weight(w, 4) for w in model.weights]
        got = execute_forward_plan(plan, model, batch, packed_weights=weights)
        want = quantized_forward(model, batch, feature_bits=4, engine="packed")
        np.testing.assert_array_equal(got.logits, want.logits)


def _edge_k(bits_a: int, bits_b: int) -> int:
    """Largest reduction length whose product still fits float32."""
    return ((1 << 24) - 1) // (((1 << bits_a) - 1) * ((1 << bits_b) - 1))


@settings(max_examples=40)
@given(
    kind=st.sampled_from(["gin", "gcn"]),
    feature_bits=st.integers(1, 8),
    weight_bits=st.integers(1, 8),
    k=st.sampled_from(["tiny", "edge", "past_edge"]),
    num_nodes=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
def test_bound_blas_operands_are_proven_and_their_sums_exact(
    kind, feature_bits, weight_bits, k, num_nodes, seed
):
    """Every operand a bound ``blas`` step multiplies as proven codes lies in
    ``[0, 2**bits - 1]``, and the step's product bound ``k (2**a - 1)
    (2**b - 1)`` lies under its dtype's limit — at tiny ``k``, at the
    float32 edge and one past it (where the step must move to float64)."""
    edge = min(_edge_k(feature_bits, weight_bits), 600)
    feature_dim = {"tiny": 1 + seed % 3, "edge": edge, "past_edge": edge + 1}[k]
    batch = _batch(num_nodes, feature_dim, seed)
    maker = make_batched_gin if kind == "gin" else make_cluster_gcn
    model = maker(feature_dim, 3, hidden_dim=8, seed=seed % 7)
    adjacency = pack_batch_adjacency(batch)
    seen = []
    real = quantized_module.quantize_into

    def spy(values, params, dtype):
        codes = real(values, params, dtype)
        seen.append((codes, params.bits))
        return codes

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantized_module, "quantize_into", spy)
        quantized_forward(
            model, batch, feature_bits=feature_bits, weight_bits=weight_bits,
            engine="blas", calibration=ActivationCalibration(), packed_adjacency=adjacency,
        )
    program = adjacency.derived["program"]
    assert len(seen) == len(program.steps)
    for bound, (codes, bits) in zip(program.steps, seen):
        spec = bound.step.spec
        assert codes.dtype == bound.dtype == exact_gemm_dtype(spec.k, spec.bits_a, spec.bits_b)
        assert codes.min(initial=0) >= 0 and codes.max(initial=0) <= (1 << bits) - 1
        assert np.array_equal(codes, np.floor(codes))
        fixed = bound.fixed.matrix(bound.dtype)
        fixed = fixed.data if sp.issparse(fixed) else fixed  # the adjacency's ones
        fixed_bits = spec.bits_a if bound.aggregate else spec.bits_b
        assert fixed.min(initial=0) >= 0 and fixed.max(initial=0) <= (1 << fixed_bits) - 1
        product_bound = spec.k * ((1 << spec.bits_a) - 1) * ((1 << spec.bits_b) - 1)
        if bound.dtype in DTYPE_LIMIT:
            assert product_bound < DTYPE_LIMIT[bound.dtype]
        if not bound.aggregate and spec.k == feature_dim and k == "past_edge" and edge < 600:
            assert product_bound >= 1 << 24 and bound.dtype == np.float64


@pytest.mark.parametrize("engine", ["blas", "packed"])
def test_binding_round_and_replay_report_the_same_layout(engine):
    """A binding round and a bound replay return the same ``(phase, role,
    layer)`` sequence — the binding round's with one ``bind`` interval
    ahead of each step's ``quantize`` — and the same ``timings``
    spec/backend sequence."""
    batch = _batch(48, 8)
    model = make_batched_gin(8, 3, hidden_dim=16, seed=1)
    plan = compile_forward_plan(model, num_nodes=48, feature_bits=8, engine=engine)
    adjacency = pack_batch_adjacency(batch)
    weights = [pack_layer_weight(w, 8) for w in model.weights]
    calibration = ActivationCalibration()

    def run():
        return execute_forward_plan(
            plan, model, batch, packed_weights=weights, packed_adjacency=adjacency,
            calibration=calibration, apply_softmax=True,
        )

    binding = run()
    program = adjacency.derived["program"]
    replay = run()
    assert replay.program is program is binding.program
    assert [p[:3] for p in replay.phases] == [p[:3] for p in binding.phases if p.phase != "bind"]
    assert [p.phase for p in binding.phases][:7] == [
        "materialize", "bind", "quantize", "pack", "census", "gemm", "epilogue"
    ]
    assert "bind" not in [p.phase for p in replay.phases]
    binds = [i for i, p in enumerate(binding.phases) if p.phase == "bind"]
    assert len(binds) == len(binding.timings)
    assert all(binding.phases[i + 1][:3] == ("quantize", *binding.phases[i][1:3]) for i in binds)
    assert [p for p in binding.phases if p.phase == "activation"][-1][1:3] == ("forward", -1)
    assert [t[:2] for t in replay.timings] == [t[:2] for t in binding.timings] == [
        (step.spec, engine) for step in plan.gemm_steps()
    ]
    assert all(p.seconds >= 0.0 for p in replay.phases)
    gemm = [p.seconds for p in replay.phases if p.phase == "gemm"]
    assert gemm == [t.seconds for t in replay.timings]
    np.testing.assert_array_equal(replay.logits, binding.logits)
    assert replay.counters == binding.counters

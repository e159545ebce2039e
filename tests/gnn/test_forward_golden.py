"""Golden logits: the quantized forward is pinned bit for bit.

The digests below were recorded on the commit *before* the executor's
step pipeline was rewritten to run in one buffer (quantize into the GEMM's
dtype, consume the product in it, finish the epilogue in place).  Float
addition is not associative, so any reordered or pre-combined epilogue
term, any reciprocal-multiply in Eq. 2, any float32 intermediate changes
them.  Every operation on the way is IEEE-exact or an exact integer sum,
so the digests do not depend on the host; the one libm-dependent step,
softmax's ``exp``, is pinned as ``softmax(golden logits)`` instead of by
digest.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.gnn.activations import softmax
from repro.gnn.models import make_batched_gin, make_cluster_gcn
from repro.gnn.quantized import ActivationCalibration, quantized_forward
from repro.graph.batching import batch_subgraphs, induced_subgraphs
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition

GOLDEN = {
    "gin8": "42559ff02c680df22b23818ae247bdeaa08e13b3200e2219c6b588807120ee9d",
    "gcn1": "766a2ee751bd696c0e5f5ec59ac085f9921e646d8eb6044ebe8c825372f060e7",
    "gcn4": "dbc0cb399debe83c61694d728347e5006834f24b22b4cedfd63364d723f1bb4a",
}


def _batches(seed: int, nodes: int, edges: int, feature_dim: int, classes: int):
    g = planted_partition_graph(
        nodes, edges, num_communities=8, feature_dim=feature_dim,
        num_classes=classes, rng=np.random.default_rng(seed),
    )
    subs = induced_subgraphs(g, metis_like_partition(g, 6))
    return list(batch_subgraphs(subs, 3))


def digest(logits: np.ndarray) -> str:
    assert logits.dtype == np.float64
    return hashlib.blake2b(
        np.ascontiguousarray(logits).tobytes(), digest_size=32
    ).hexdigest()


def gin8(engine: str) -> np.ndarray:
    """8-bit batched GIN (update-first, non-zero biases), calibration frozen
    on the first batch and replayed on the second."""
    model = make_batched_gin(12, 4, hidden_dim=16, seed=2)
    for i, bias in enumerate(model.biases):
        bias += np.linspace(-0.3, 0.4, bias.size, dtype=bias.dtype) * (i + 1)
    first, second = _batches(11, 360, 2400, 12, 4)
    calibration = ActivationCalibration()
    quantized_forward(
        model, first, feature_bits=8, calibration=calibration, engine=engine
    )
    return quantized_forward(
        model, second, feature_bits=8, calibration=calibration, engine=engine
    ).logits


def gcn1(engine: str) -> np.ndarray:
    """1-bit cluster-GCN (aggregate-first), one-shot calibration."""
    model = make_cluster_gcn(10, 3, seed=5)
    (batch, _) = _batches(23, 300, 1700, 10, 3)
    return quantized_forward(model, batch, feature_bits=1, engine=engine).logits


def gcn4(engine: str, *, apply_softmax: bool = False) -> np.ndarray:
    """4-bit features against 8-bit weights, cluster-GCN."""
    model = make_cluster_gcn(14, 5, seed=9)
    (_, batch) = _batches(31, 420, 3100, 14, 5)
    return quantized_forward(
        model, batch, feature_bits=4, weight_bits=8, engine=engine,
        apply_softmax=apply_softmax,
    ).logits


CASES = {"gin8": gin8, "gcn1": gcn1, "gcn4": gcn4}


@pytest.mark.parametrize("engine", ["blas", "packed"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_logits_match_the_recorded_digest(case, engine):
    assert digest(CASES[case](engine)) == GOLDEN[case]


@pytest.mark.parametrize("engine", ["blas", "packed"])
def test_softmax_head_is_softmax_of_the_golden_logits(engine):
    probs = gcn4(engine, apply_softmax=True)
    np.testing.assert_array_equal(probs, softmax(gcn4(engine)))


if __name__ == "__main__":  # pragma: no cover - prints the digests to record
    for name in sorted(CASES):
        print(name, digest(CASES[name]("blas")), digest(CASES[name]("packed")))

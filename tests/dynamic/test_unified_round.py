"""A dynamic serve *is* an engine round.

``DynamicSession.serve`` resolves its operand and plan under the chained
structure digest and hands them to ``InferenceEngine.run_round`` — the
same method a static ``infer`` round lands in — so everything a round
does beyond the logits (step recovery, kernel counters, backend
attribution, modeled device time) must be indistinguishable between the
two.
"""

from __future__ import annotations

import numpy as np

from repro.dynamic import DynamicSession
from repro.faultinject import FaultPlan, FaultSpec
from repro.gnn.models import make_cluster_gcn
from repro.gnn.quantized import ActivationCalibration
from repro.graph.csr import CSRGraph
from repro.serving import InferenceEngine, ServingConfig


def feature_graph(n=320, edges=60):
    """Sparse enough that the zero-tile ballot skips tiles."""
    rng = np.random.default_rng(0)
    return CSRGraph.from_edges(
        n,
        rng.integers(0, n, size=(edges, 2)),
        features=rng.standard_normal((n, 8)).astype(np.float32),
    )


def test_injected_kernel_fault_on_a_dynamic_serve_recovers_bit_identically():
    graph = feature_graph()
    model = make_cluster_gcn(8, 4, seed=1)
    # A forced non-terminal backend: the fault at probe 0 lands on blas
    # and the step falls back to packed, whatever the host's timings.
    config = ServingConfig(engine="blas")
    calibration = ActivationCalibration()
    expected = DynamicSession(model, graph, config, calibration=calibration).serve()

    plan = FaultPlan(seed=0, specs=[FaultSpec("kernel", at=(0,))])
    engine = InferenceEngine(model, config, calibration=calibration, fault_plan=plan)
    session = DynamicSession(model, graph, engine=engine)
    served = session.serve()
    assert plan.fires("kernel") == 1
    assert engine.stats.step_retries == 1
    np.testing.assert_array_equal(served.logits, expected.logits)


def test_dynamic_serve_and_static_infer_account_identically():
    graph = feature_graph()
    model = make_cluster_gcn(8, 4, seed=1)
    # Analytic dispatch only: both sessions freeze the same backends.
    config = ServingConfig(record_timings=False)
    calibration = ActivationCalibration()
    session = DynamicSession(model, graph, config, calibration=calibration)
    static = InferenceEngine(model, config, calibration=calibration)

    served = session.serve()
    (result,) = static.infer(session.mutable.to_batch().members)
    np.testing.assert_array_equal(served.logits, result.logits)

    dynamic, fixed = session.engine.stats, static.stats
    for counter in ("requests", "batches", "nodes", "mma_ops", "tiles_total", "tiles_skipped"):
        assert getattr(dynamic, counter) == getattr(fixed, counter) > 0, counter
    assert dynamic.mma_ops == served.total_counters.mma_ops
    assert set(dynamic.backend_seconds) == set(fixed.backend_seconds) != set()
    assert set(dynamic.phase_seconds) == set(fixed.phase_seconds)
    assert session.engine.device_report.num_batches == 1
    assert static.device_report.num_batches == 1
    assert session.engine.device_report.mma_ops == static.device_report.mma_ops

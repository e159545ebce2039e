"""A bound plan keeps what its steps were bound to.

``ExecutionPlan.retarget_adjacency`` rebuilds every aggregate step (new
``pack_a`` / ``census`` keys) and shares the template step's
``GemmStep.derived`` memo; the bindings in it — resolved backend, exact
GEMM dtype, label — do not depend on the adjacency, so a
``DynamicSession`` round after a bind re-derives none of them, and no
census-dependent dispatch coordinate is derived either.
"""

from __future__ import annotations

import importlib
from unittest import mock

import numpy as np

from repro.dynamic import DynamicSession
from repro.gnn.models import make_cluster_gcn
from repro.graph.csr import CSRGraph
from repro.serving import ServingConfig


def test_a_patched_round_rederives_only_the_census_bucket(monkeypatch):
    rng = np.random.default_rng(0)
    n = 320
    graph = CSRGraph.from_edges(
        n,
        rng.integers(0, n, size=(60, 2)),
        features=rng.standard_normal((n, 8)).astype(np.float32),
    )
    model = make_cluster_gcn(8, 4, seed=1)
    session = DynamicSession(model, graph, ServingConfig())
    session.serve()
    session.serve()

    spies = {}
    modules = {
        name: importlib.import_module(f"repro.{name}")
        for name in ("plan.registry", "plan.ir", "gnn.quantized", "core.bitgemm",
                     "plan.backends", "plan.autotune")
    }
    for name, home, importers in (
        ("resolve_engine_name", "plan.registry", ("plan.ir", "gnn.quantized")),
        ("exact_gemm_dtype", "core.bitgemm", ("gnn.quantized", "plan.registry")),
        ("bucket_for", "plan.autotune", ()),
    ):
        spies[name] = mock.Mock(wraps=getattr(modules[home], name))
        for module in (home, *importers):
            monkeypatch.setattr(modules[module], name, spies[name])

    edits = iter(rng.permutation(n * n))
    for _ in range(6):
        u, v = divmod(int(next(edits)), n)
        before = session.stats.plans_patched
        session.mutate([("insert", u, (v + 1) % n if u == v else v)])
        patched = session.stats.plans_patched - before
        for spy in spies.values():
            spy.reset_mock()
        session.serve()
        if patched:
            assert not spies["resolve_engine_name"].called
            assert not spies["exact_gemm_dtype"].called
            # Not even the census bucket: no band keys dispatch any more.
            assert not spies["bucket_for"].called
    assert session.stats.plans_patched >= 3  # the patch path was exercised
    assert session.stats.stale_kernel_hits == 0

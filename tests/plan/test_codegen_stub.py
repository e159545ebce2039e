"""What is left of ``repro.codegen``: one no-op hook, imported by nothing
under ``src/``, and no round phase or cache segment that served it."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.codegen
from repro.gnn import make_cluster_gcn
from repro.graph import induced_subgraphs
from repro.graph.batching import SubgraphBatch
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.perf.pag import PHASE_ORDER
from repro.serving import InferenceEngine, ServingConfig
from repro.serving.engine import ROUND_PHASES

SRC = Path(repro.__file__).resolve().parent


@pytest.fixture
def batch():
    g = planted_partition_graph(
        160, 900, num_communities=4, feature_dim=8, num_classes=3,
        rng=np.random.default_rng(5),
    )
    return SubgraphBatch(members=tuple(induced_subgraphs(g, metis_like_partition(g, 4))))


def test_the_stub_is_all_that_is_left():
    public = {name for name in vars(repro.codegen) if not name.startswith("_")}
    assert public - {"annotations"} == {"prepare_plan_kernels"}
    assert repro.codegen.__all__ == ["prepare_plan_kernels"]


def test_nothing_under_src_imports_codegen():
    importers = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "codegen" for name in names):
                importers.append(str(path.relative_to(SRC)))
    assert importers == []


@pytest.mark.parametrize("engine", ["static", "auto", "packed", "blas"])
def test_prepare_is_free_for_every_plan(engine, batch):
    session = InferenceEngine(make_cluster_gcn(8, 3), ServingConfig(engine=engine))
    plan = session.plan_for(batch)
    adjacency = session.packed_adjacency_for(batch)
    assert repro.codegen.prepare_plan_kernels(plan, adjacency) == (0.0, 0.0)


def test_a_round_spends_only_in_its_named_phases(batch):
    session = InferenceEngine(make_cluster_gcn(8, 3), ServingConfig())
    session.infer(batch.members)
    assert set(session.stats.phase_seconds) <= set(ROUND_PHASES)
    assert set(ROUND_PHASES) <= set(PHASE_ORDER)
    assert not {"plan_lower", "kernel_compile"} & set(PHASE_ORDER)
    assert "kernel" not in session.plan_artifacts.kinds()


def test_template_cache_is_the_template_segments_window(batch):
    session = InferenceEngine(make_cluster_gcn(8, 3), ServingConfig(batch_size=4))
    assert session.stats.template_cache is session.plan_artifacts.segment("template").stats
    session.infer(batch.members)
    # The same members in reverse order: another structure, one node count.
    session.infer(batch.members[::-1])
    window = session.stats.template_cache
    assert window.misses >= 1 and window.lookups == session.stats.plan_cache.misses

"""A binding round's native entries equal its NumPy tail, bit for bit.

A round that lowers a program binds the native entries
(:mod:`repro.core.native`) of every step whose calibration site was frozen
before the round reached it: Eq. 2 from the features, and — when the next
site is frozen too — the epilogue, the ReLU and the next Eq. 2 in one call.
A site that is not frozen calibrates on the float64 activation, so that step
keeps NumPy.  Each case below runs one binding round with the kernel and one
with :func:`repro.core.native.load` returning ``None`` (a host without a
compiler), from equal copies of the calibration, and compares the logits'
bit patterns, the counters and the sites frozen afterwards.
"""

from __future__ import annotations

import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.errors import BitwidthError, ConfigError
from repro.gnn import make_batched_gin, make_cluster_gcn
from repro.gnn import quantized as quantized_module
from repro.gnn.quantized import (
    ActivationCalibration,
    execute_forward_plan,
    pack_batch_adjacency,
    pack_layer_weight,
)
from repro.graph import CSRGraph
from repro.graph.batching import Subgraph, SubgraphBatch
from repro.plan import compile_forward_plan

pytestmark = pytest.mark.skipif(native.load() is None, reason="no C compiler on this host")

FEATURES, CLASSES = 6, 3
MODELS = {"gcn": make_cluster_gcn, "gin": make_batched_gin}


def _graph(shape: str, num_nodes: int, rng) -> Subgraph:
    """Random edges; none at all (``zero_edge``); or random edges that skip
    node 0 (``empty_row``: its adjacency row is its self loop alone)."""
    edges = rng.integers(0, num_nodes, size=(2 * num_nodes, 2))
    if shape == "zero_edge":
        edges = edges[:0]
    elif shape == "empty_row":
        edges = edges[(edges != 0).all(axis=1)]
    features = rng.standard_normal((num_nodes, FEATURES)).astype(np.float32)
    graph = CSRGraph.from_edges(num_nodes, edges, features=features)
    return Subgraph(graph=graph, original_nodes=np.arange(num_nodes))


def _sites(plan) -> list[tuple[str, int]]:
    return [(q.site, q.bits) for q in (s.quantize_a or s.quantize_b for s in plan.gemm_steps())]


class _Case:
    """One model, plan and batch, and a binding round over fresh artifacts."""

    def __init__(self, kind: str, bits: int, engine: str, shape: str, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.model = MODELS[kind](FEATURES, CLASSES, hidden_dim=12, num_layers=2, seed=seed)
        members = (_graph(shape, 17, rng), _graph("edges", 9, rng))
        self.batch = SubgraphBatch(members=members)
        self.plan = compile_forward_plan(self.model, num_nodes=26, feature_bits=bits, engine=engine)
        self.weights = [pack_layer_weight(w, bits) for w in self.model.weights]

    def warm(self, seed: int) -> ActivationCalibration:
        """A calibration frozen by a round over another batch of this shape."""
        rng = np.random.default_rng(seed + 1)
        other = SubgraphBatch(members=(_graph("edges", 17, rng), _graph("edges", 9, rng)))
        calibration = ActivationCalibration()
        self.run(calibration, batch=other)
        return calibration

    def run(self, calibration, *, batch=None, kernel: bool = True, counts=None):
        batch = self.batch if batch is None else batch
        with pytest.MonkeyPatch.context() as mp:
            if not kernel:
                mp.setattr(native, "load", lambda: None)
            if counts is not None:
                real = quantized_module.quantize_into
                mp.setattr(quantized_module, "quantize_into", partial(_count, counts, real))
            return execute_forward_plan(
                self.plan, self.model, batch, packed_weights=self.weights,
                packed_adjacency=pack_batch_adjacency(batch), calibration=calibration,
            )


def _count(counts: list, real, *args):
    counts.append(1)
    return real(*args)


def _calibration(case: _Case, frozen: str, seed: int) -> ActivationCalibration:
    """``all`` sites frozen by another batch, ``part`` of them (a seeded
    subset, or every other one) or ``none``."""
    if frozen == "none":
        return ActivationCalibration()
    warm = case.warm(seed)
    if frozen == "all":
        return warm
    keep = np.random.default_rng(seed).random(len(_sites(case.plan))) < 0.5
    keep[::2] |= not keep.any()
    part = ActivationCalibration()
    for (site, bits), kept in zip(_sites(case.plan), keep):
        params = warm.frozen(site, bits)
        if kept:  # calibrate() on [alpha_min, alpha_max] gives the range back
            part.params_for(site, np.array([params.alpha_min, params.alpha_max]), bits)
    return part


def _copy(calibration: ActivationCalibration) -> ActivationCalibration:
    return pickle.loads(pickle.dumps(calibration))


@settings(max_examples=60)
@given(
    kind=st.sampled_from(sorted(MODELS)),
    bits=st.sampled_from([1, 2, 4, 8]),
    frozen=st.sampled_from(["all", "part", "none"]),
    shape=st.sampled_from(["edges", "zero_edge", "empty_row"]),
    engine=st.sampled_from(["blas", "packed"]),
    seed=st.integers(0, 2**16),
)
def test_a_binding_round_equals_its_numpy_tail(kind, bits, frozen, shape, engine, seed):
    case = _Case(kind, bits, engine, shape, seed)
    calibration = _calibration(case, frozen, seed)
    with_kernel, without = _copy(calibration), _copy(calibration)
    calls = []
    fused = case.run(with_kernel, counts=calls)
    reference = case.run(without, kernel=False)
    assert fused.logits.dtype == reference.logits.dtype == np.float64
    np.testing.assert_array_equal(fused.logits.view(np.uint64), reference.logits.view(np.uint64))
    assert fused.counters == reference.counters
    assert with_kernel.sites == without.sites
    if frozen == "all":  # every step quantized natively: features, then the fused tails
        assert calls == []


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("frozen", ["all", "none"])
def test_nan_features_raise_the_same_error_both_ways(kind, frozen):
    """Over a frozen site Eq. 2 refuses NaN (natively at step 0); a site
    that is not frozen refuses to calibrate on it, kernel or not."""
    case = _Case(kind, 4, "blas", "edges", 5)
    calibration = _calibration(case, frozen, 5)
    case.batch.members[0].graph.features[3, 1] = np.nan
    errors = []
    for kernel in (True, False):
        with pytest.raises((BitwidthError, ConfigError)) as raised:
            case.run(_copy(calibration), kernel=kernel)
        errors.append((type(raised.value), str(raised.value)))
    assert errors[0] == errors[1]
    assert errors[0][0] is (BitwidthError if frozen == "all" else ConfigError)


class TestFrozenRead:
    """``ActivationCalibration.frozen``: a site's frozen parameters or
    ``None``, read without ever calibrating."""

    def test_none_before_first_touch_then_the_frozen_params(self):
        calibration = ActivationCalibration()
        assert calibration.frozen("L0/agg", 4) is None
        params = calibration.params_for("L0/agg", np.array([-1.0, 3.0]), 4)
        assert calibration.frozen("L0/agg", 4) is params
        assert calibration.frozen("L0/agg", 8) is None
        assert calibration.frozen("L1/agg", 4) is None

    def test_a_pickled_copy_answers_the_same(self):
        calibration = ActivationCalibration()
        params = calibration.params_for("L0/upd", np.array([0.5, 2.0]), 2)
        copy = _copy(calibration)
        assert copy.frozen("L0/upd", 2) == params
        assert copy.frozen("L0/agg", 2) is None

    def test_it_never_calibrates(self, monkeypatch):
        calibrated = []
        monkeypatch.setattr(quantized_module, "calibrate", lambda *a, **k: calibrated.append(a))
        calibration = ActivationCalibration()
        for _ in range(3):
            assert calibration.frozen("L0/agg", 1) is None
        assert len(calibration) == 0 and calibrated == []

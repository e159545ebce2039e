"""Without the native kernel a warm round runs the NumPy tail, silently and
to the same bits.

Every test here runs with :func:`repro.core.native.load` returning ``None``
— what a host without a C compiler sees.  The golden digests and the bound
program's tests are collected here a second time, unedited; a warm replay
of each golden case reproduces its digest with the kernel and without it;
and a compile that fails is tried once per process, says so in one event
and never reaches a round.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
import test_forward_golden as golden
from test_bound_program import (  # noqa: F401 - collected here under the fallback
    TestWeightBitwidthIsBound,
    test_binding_round_and_replay_report_the_same_layout,
    test_bound_blas_operands_are_proven_and_their_sums_exact,
)
from test_forward_golden import (  # noqa: F401 - collected here under the fallback
    test_logits_match_the_recorded_digest,
    test_softmax_head_is_softmax_of_the_golden_logits,
)

from repro.core import native
from repro.gnn import make_batched_gin
from repro.gnn import quantized as quantized_module
from repro.gnn.quantized import ActivationCalibration, pack_batch_adjacency, pack_layer_weight
from repro.serving import InferenceEngine, ServingConfig

LOAD = native.load  # the real loader, for the tests that compare against it


@pytest.fixture(autouse=True)
def no_kernel(monkeypatch):
    monkeypatch.setattr(native, "load", lambda: None)
    return monkeypatch


def _warm_replays(monkeypatch):
    """Make every ``quantized_forward`` in the golden cases a binding round
    plus a warm replay over the same artifacts, returning the replay."""
    real = golden.quantized_forward

    def bind_then_replay(model, batch, **kwargs):
        bits = kwargs.get("weight_bits") or kwargs["feature_bits"]
        if kwargs.get("calibration") is None:  # an empty one is falsy
            kwargs["calibration"] = ActivationCalibration()
        kwargs["packed_adjacency"] = pack_batch_adjacency(batch)
        kwargs["packed_weights"] = [pack_layer_weight(w, bits) for w in model.weights]
        binding = real(model, batch, **kwargs)
        replay = real(model, batch, **kwargs)
        assert replay.program is binding.program
        np.testing.assert_array_equal(replay.logits, binding.logits)
        return replay

    monkeypatch.setattr(golden, "quantized_forward", bind_then_replay)


@pytest.mark.skipif(LOAD() is None, reason="no C compiler on this host")
@pytest.mark.parametrize("engine", ["blas", "packed"])
@pytest.mark.parametrize("case", sorted(golden.CASES))
def test_warm_replays_reproduce_the_golden_digests(case, engine, no_kernel):
    """A first touch of a shared calibration freezes what a one-shot forward
    calibrates, so each golden case's warm replay owes its digest — with
    the NumPy tail and with the kernel, to the bit."""
    _warm_replays(no_kernel)
    numpy_logits = golden.CASES[case](engine)
    no_kernel.setattr(native, "load", LOAD)
    native_logits = golden.CASES[case](engine)
    assert golden.digest(numpy_logits) == golden.digest(native_logits) == golden.GOLDEN[case]


def _engine_rounds(subgraphs):
    engine = InferenceEngine(
        make_batched_gin(12, 4, hidden_dim=16, seed=2),
        ServingConfig(feature_bits=8, engine="blas", batch_size=3),
    )
    return [r.logits for _ in range(3) for r in engine.infer(subgraphs)]


def test_a_warm_round_without_the_kernel_is_the_numpy_tail(no_kernel):
    subgraphs = golden._batches(11, 360, 2400, 12, 4)[0].members
    calls = []
    real = quantized_module.quantize_into
    no_kernel.setattr(quantized_module, "quantize_into", lambda *a: calls.append(1) or real(*a))
    _engine_rounds(subgraphs)
    assert len(calls) == 3 * 6  # six steps a round, every round


def test_a_failing_compile_is_tried_once_and_never_reaches_a_round(no_kernel, caplog):
    subgraphs = golden._batches(11, 360, 2400, 12, 4)[0].members
    no_kernel.setattr(native, "load", LOAD)
    served = _engine_rounds(subgraphs)
    runs = []
    real_run = native.subprocess.run
    no_kernel.setattr(native.subprocess, "run", lambda *a, **k: runs.append(a) or real_run(*a, **k))
    no_kernel.setattr(native, "_loaded", [])  # a fresh process
    no_kernel.setattr(native, "COMPILER", "false")
    caplog.set_level(logging.INFO, logger="repro")
    for again, want in zip(_engine_rounds(subgraphs), served):
        np.testing.assert_array_equal(again, want)
    assert native.load() is None and len(runs) == 1
    (event,) = [r for r in caplog.records if "native_tail_unavailable" in r.getMessage()]
    assert '"compiler": "false"' in event.getMessage()


def test_a_temp_dir_it_cannot_write_is_a_missing_kernel(no_kernel, tmp_path, caplog):
    no_kernel.setattr(native, "load", LOAD)
    no_kernel.setattr(native, "_loaded", [])  # a fresh process
    no_kernel.setattr(native.tempfile, "tempdir", str(tmp_path / "missing"))
    caplog.set_level(logging.INFO, logger="repro")
    assert native.load() is None
    assert ["native_tail_unavailable" in r.getMessage() for r in caplog.records] == [True]

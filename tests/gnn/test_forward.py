"""Tests for the fp32 reference and the quantized TC forward pass."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import BitwidthError
from repro.gnn.models import make_batched_gin, make_cluster_gcn
from repro.gnn.quantized import quantize_model_weights, quantized_forward
from repro.gnn.reference import reference_forward, reference_forward_dense
from repro.graph.batching import batch_subgraphs, induced_subgraphs
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.tc.kernel import KernelConfig


@pytest.fixture(scope="module")
def batch():
    g = planted_partition_graph(
        360,
        2400,
        num_communities=8,
        feature_dim=12,
        num_classes=4,
        rng=np.random.default_rng(11),
    )
    assignment = metis_like_partition(g, 6)
    subs = induced_subgraphs(g, assignment)
    return next(batch_subgraphs(subs, 3))


@pytest.fixture(scope="module")
def gcn():
    return make_cluster_gcn(12, 4, seed=2)


@pytest.fixture(scope="module")
def gin():
    return make_batched_gin(12, 4, hidden_dim=16, seed=2)


class TestReference:
    def test_sparse_equals_dense(self, batch, gcn):
        sparse = reference_forward(gcn, batch)
        dense = reference_forward_dense(
            gcn, batch.dense_adjacency(), batch.features()
        )
        np.testing.assert_allclose(sparse, dense, rtol=1e-4)

    def test_gin_order_differs_from_gcn(self, batch, gcn, gin):
        # With zero biases the two orders are algebraically identical
        # (associativity); a non-zero bias separates relu(A(XW + b)) from
        # relu((AX)W + b) because aggregation scales the bias by degree.
        out_gcn_zero_bias = reference_forward(gcn, batch)
        out_gin_zero_bias = reference_forward(gin, batch)
        np.testing.assert_allclose(
            out_gcn_zero_bias, out_gin_zero_bias, rtol=1e-4, atol=1e-5
        )
        import copy

        gcn_b = copy.deepcopy(gcn)
        gin_b = copy.deepcopy(gin)
        for m in (gcn_b, gin_b):
            for b in m.biases:
                b += 0.5
        out_gcn = reference_forward(gcn_b, batch)
        out_gin = reference_forward(gin_b, batch)
        assert out_gcn.shape == out_gin.shape == (batch.num_nodes, 4)
        assert not np.allclose(out_gcn, out_gin)

    def test_softmax_option(self, batch, gcn):
        probs = reference_forward(gcn, batch, apply_softmax=True)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)


class TestQuantizedForward:
    def test_error_shrinks_with_bits(self, batch, gcn):
        ref = reference_forward(gcn, batch)
        errs = []
        for bits in (2, 4, 8, 16):
            out = quantized_forward(gcn, batch, feature_bits=bits)
            errs.append(float(np.abs(out.logits - ref).mean()))
        assert errs[0] > errs[-1]
        assert errs[2] < errs[0] / 5
        # 16-bit is numerically indistinguishable at this scale.
        assert errs[3] < 1e-2 * max(1.0, float(np.abs(ref).mean()))

    def test_high_bits_match_argmax(self, batch, gcn):
        ref = reference_forward(gcn, batch)
        out = quantized_forward(gcn, batch, feature_bits=16)
        agree = (out.logits.argmax(1) == ref.argmax(1)).mean()
        assert agree > 0.99

    def test_gin_path(self, batch, gin):
        ref = reference_forward(gin, batch)
        out = quantized_forward(gin, batch, feature_bits=8)
        rel = np.abs(out.logits - ref).mean() / (np.abs(ref).mean() + 1e-12)
        assert rel < 0.1

    def test_kernel_count(self, batch, gcn):
        # GCN: 2 GEMM kernels (aggregate + update) per layer.
        out = quantized_forward(gcn, batch, feature_bits=4)
        assert len(out.counters) == 2 * gcn.num_layers
        assert out.total_counters.launches == 2 * gcn.num_layers

    def test_jumping_config_does_not_change_result(self, batch, gcn):
        on = quantized_forward(
            gcn, batch, feature_bits=4,
            kernel_config=KernelConfig(zero_tile_jumping=True),
        )
        off = quantized_forward(
            gcn, batch, feature_bits=4,
            kernel_config=KernelConfig(zero_tile_jumping=False),
        )
        np.testing.assert_allclose(on.logits, off.logits)
        assert on.total_counters.mma_ops <= off.total_counters.mma_ops

    def test_counters_see_batch_sparsity(self, batch, gcn):
        out = quantized_forward(gcn, batch, feature_bits=4)
        agg = out.counters[0]
        assert agg.tiles_skipped > 0  # block-diagonal zero tiles exist

    def test_separate_weight_bits(self, batch, gcn):
        out = quantized_forward(gcn, batch, feature_bits=4, weight_bits=8)
        assert out.logits.shape == (batch.num_nodes, 4)

    def test_invalid_bits(self, batch, gcn):
        with pytest.raises(BitwidthError):
            quantized_forward(gcn, batch, feature_bits=0)
        with pytest.raises(BitwidthError):
            quantize_model_weights(gcn, 33)

    def test_weight_quantization_cached_shapes(self, gcn):
        cached = quantize_model_weights(gcn, 4)
        assert len(cached) == gcn.num_layers
        for (codes, params), w in zip(cached, gcn.weights):
            assert codes.shape == w.shape
            assert params.bits == 4


class TestActivationsPackOnlyForWordBackends:
    """Structural, hardware-independent: which forwards bit-pack their
    activations, counted at ``Operand.pack``'s call into ``pack_matrix``
    (weights and the adjacency are packed through other bindings)."""

    @staticmethod
    def _count_packs(monkeypatch):
        from repro.core import bitpack

        calls = []
        real = bitpack.pack_matrix

        def counting(codes, bits, layout="col", **kwargs):
            calls.append((bits, layout))
            return real(codes, bits, layout, **kwargs)

        monkeypatch.setattr(bitpack, "pack_matrix", counting)
        return calls

    def test_8bit_blas_packs_nothing_packed_packs_every_gemm(
        self, batch, gcn, monkeypatch
    ):
        calls = self._count_packs(monkeypatch)
        on_blas = quantized_forward(gcn, batch, feature_bits=8, engine="blas")
        assert calls == []
        on_packed = quantized_forward(gcn, batch, feature_bits=8, engine="packed")
        assert len(calls) == len(on_packed.timings) == 2 * gcn.num_layers
        np.testing.assert_array_equal(on_blas.logits, on_packed.logits)

    def test_1bit_counters_identical_on_every_backend(self, batch, gcn, monkeypatch):
        from repro.plan import default_registry

        calls = self._count_packs(monkeypatch)
        results = {}
        for name in default_registry().names():
            del calls[:]
            results[name] = quantized_forward(
                gcn, batch, feature_bits=1, engine=name
            )
            # The 1-bit update operand is balloted for the modeled skip
            # counters whichever backend runs — from its codes on ``blas``,
            # which packs nothing; word backends pack once per GEMM.
            want = 0 if name == "blas" else len(results[name].timings)
            assert len(calls) == want, (name, calls)
        reference = results["packed"]
        assert reference.total_counters.tiles_skipped > 0
        for name, result in results.items():
            assert result.total_counters == reference.total_counters, name
            np.testing.assert_array_equal(result.logits, reference.logits)


class TestOneBufferStepPipeline:
    """Activations travel as range-proven codes in the GEMM's own dtype."""

    @staticmethod
    def _operand_spy(monkeypatch):
        """Every activation operand the executor builds: (layout, dtype, proven)."""
        from repro.gnn import quantized as module

        seen = []

        class Spy(module.Operand):
            def __init__(self, codes=None, bits=None, layout="col", **kwargs):
                if codes is not None:
                    seen.append((layout, np.asarray(codes).dtype, kwargs.get("proven")))
                super().__init__(codes, bits, layout, **kwargs)

        monkeypatch.setattr(module, "Operand", Spy)
        return seen

    @pytest.mark.parametrize("engine", ["blas", "packed"])
    def test_codes_arrive_in_each_steps_exact_gemm_dtype(
        self, batch, gin, engine, monkeypatch
    ):
        from repro.core.bitgemm import exact_gemm_dtype

        seen = self._operand_spy(monkeypatch)
        for bits, want in ((8, np.float32), (16, np.float64), (32, np.int64)):
            del seen[:]
            out = quantized_forward(gin, batch, feature_bits=bits, engine=engine)
            specs = [t.spec for t in out.timings]
            assert [dtype for _, dtype, _ in seen] == [
                exact_gemm_dtype(s.k, s.bits_a, s.bits_b) for s in specs
            ]
            assert all(proven for _, _, proven in seen)
            # GIN is update-first: the first operand is layer 0's left one.
            assert seen[0][:2] == ("col", np.dtype(want))

    def test_nan_activation_still_raises_bitwidth_error(self, batch, gcn):
        import dataclasses

        from repro.gnn.quantized import ActivationCalibration
        from repro.graph.batching import SubgraphBatch

        calibration = ActivationCalibration()
        clean = quantized_forward(gcn, batch, feature_bits=4, calibration=calibration)

        def poisoned(value):
            first = batch.members[0]
            features = first.graph.features.copy()
            features[1, 2] = value
            graph = dataclasses.replace(first.graph, features=features)
            member = dataclasses.replace(first, graph=graph)
            return SubgraphBatch(members=(member,) + tuple(batch.members[1:]))

        with pytest.raises(BitwidthError):
            quantized_forward(
                gcn, poisoned(np.nan), feature_bits=4, calibration=calibration
            )
        # An infinity clips into the top (bottom) bucket, as it always has.
        for value in (np.inf, -np.inf):
            out = quantized_forward(
                gcn, poisoned(value), feature_bits=4, calibration=calibration
            )
            assert np.isfinite(out.logits).all()
            assert out.logits.shape == clean.logits.shape

    @pytest.mark.parametrize("bits", [1, 8])
    def test_batched_equals_per_request_under_shared_calibration(
        self, batch, gin, bits
    ):
        from repro.gnn.quantized import ActivationCalibration
        from repro.graph.batching import SubgraphBatch

        calibration = ActivationCalibration()
        together = quantized_forward(
            gin, batch, feature_bits=bits, calibration=calibration
        )
        for member, rows in zip(batch.members, batch.member_slices()):
            alone = quantized_forward(
                gin, SubgraphBatch(members=(member,)), feature_bits=bits,
                calibration=calibration,
            )
            np.testing.assert_array_equal(alone.logits, together.logits[rows])

    @pytest.mark.parametrize("bits", [1, 4])
    def test_word_backends_pack_each_activation_exactly_once(
        self, batch, gcn, bits, monkeypatch
    ):
        from repro.plan import default_registry

        calls = TestActivationsPackOnlyForWordBackends._count_packs(monkeypatch)
        results = {}
        for name in default_registry().names():
            del calls[:]
            results[name] = quantized_forward(
                gcn, batch, feature_bits=bits, engine=name
            )
            want = 0 if name == "blas" else len(results[name].timings)
            assert len(calls) == want, (name, calls)
        for name, result in results.items():
            assert result.total_counters == results["packed"].total_counters, name
            np.testing.assert_array_equal(result.logits, results["packed"].logits)

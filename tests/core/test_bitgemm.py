"""Tests for any-bitwidth GEMM by 1-bit composition (paper §3, Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitgemm import (
    bitgemm,
    bitgemm_codes,
    bitgemm_planes,
    bmm_plane_packed,
    codes_gemm,
    matmul_int_reference,
    scalar_mul_decomposed,
    vector_dot_decomposed,
)
from repro.core.bitpack import Operand, pack_matrix
from repro.errors import BitwidthError, PackingError, ShapeError


class TestScalarDecomposed:
    def test_paper_example_3bit_by_2bit(self):
        # Eq. 5 worked example: every 3-bit x 2-bit product must be exact.
        for a in range(8):
            for b in range(4):
                assert scalar_mul_decomposed(a, b, 3, 2) == a * b

    def test_rejects_out_of_range(self):
        with pytest.raises(BitwidthError):
            scalar_mul_decomposed(8, 1, 3, 2)
        with pytest.raises(BitwidthError):
            scalar_mul_decomposed(-1, 1, 3, 2)

    @settings(max_examples=200, deadline=None)
    @given(
        bits_a=st.integers(1, 8),
        bits_b=st.integers(1, 8),
        data=st.data(),
    )
    def test_property(self, bits_a, bits_b, data):
        a = data.draw(st.integers(0, (1 << bits_a) - 1))
        b = data.draw(st.integers(0, (1 << bits_b) - 1))
        assert scalar_mul_decomposed(a, b, bits_a, bits_b) == a * b


class TestVectorDecomposed:
    def test_matches_dot(self, rng):
        va = rng.integers(0, 8, 50)
        vb = rng.integers(0, 4, 50)
        assert vector_dot_decomposed(va, vb, 3, 2) == int(va @ vb)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            vector_dot_decomposed(np.zeros(3, np.int64), np.zeros(4, np.int64), 1, 1)


class TestPlaneKernels:
    def test_packed_equals_codes_gemm(self, rng):
        a = rng.integers(0, 2, (17, 260)).astype(np.uint8)
        b = rng.integers(0, 2, (260, 9)).astype(np.uint8)
        pa = pack_matrix(a, 1, layout="col")
        pb = pack_matrix(b, 1, layout="row")
        packed = bmm_plane_packed(pa.plane(0), pb.plane(0))
        # From words (the 1-bit left operand enters as CSR) and from codes.
        for left in (Operand(packed=pa), Operand(a, 1, "col")):
            blas = codes_gemm(left, Operand(packed=pb))
            np.testing.assert_array_equal(packed[:17, :9], blas)
            np.testing.assert_array_equal(
                blas, (a.astype(np.int64) @ b.astype(np.int64))
            )

    def test_packed_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            bmm_plane_packed(np.zeros((2, 3), np.uint32), np.zeros((2, 4), np.uint32))
        with pytest.raises(ShapeError):
            bmm_plane_packed(np.zeros(3, np.uint32), np.zeros(3, np.uint32))

    def test_row_blocking_boundary(self, rng):
        # Exercise the blocked path across a block boundary.
        a = rng.integers(0, 2, (130, 128)).astype(np.uint8)
        b = rng.integers(0, 2, (128, 8)).astype(np.uint8)
        pa = pack_matrix(a, 1, layout="col")
        pb = pack_matrix(b, 1, layout="row")
        out = bmm_plane_packed(pa.plane(0), pb.plane(0), row_block=64)
        np.testing.assert_array_equal(
            out[:130, :8], a.astype(np.int64) @ b.astype(np.int64)
        )


class TestBitGemm:
    @pytest.mark.parametrize("engine", ["packed", "blas", "auto"])
    def test_exact_vs_reference(self, small_codes, engine):
        a, b = small_codes
        out = bitgemm_codes(a, b, 3, 2, engine=engine)
        np.testing.assert_array_equal(out, matmul_int_reference(a, b))

    @pytest.mark.parametrize("bits_a,bits_b", [(1, 1), (1, 4), (2, 3), (4, 4), (8, 8)])
    def test_bit_combinations(self, rng, bits_a, bits_b):
        a = rng.integers(0, 1 << bits_a, (33, 140))
        b = rng.integers(0, 1 << bits_b, (140, 21))
        np.testing.assert_array_equal(bitgemm_codes(a, b, bits_a, bits_b), a @ b)

    def test_layout_enforced(self, small_codes):
        a, b = small_codes
        pa = pack_matrix(a, 3, layout="col")
        pb_wrong = pack_matrix(b, 2, layout="col")
        with pytest.raises(PackingError):
            bitgemm(pa, pb_wrong)
        pa_wrong = pack_matrix(a, 3, layout="row")
        pb = pack_matrix(b, 2, layout="row")
        with pytest.raises(PackingError):
            bitgemm(pa_wrong, pb)

    def test_k_mismatch(self, rng):
        pa = pack_matrix(rng.integers(0, 2, (8, 100)), 1, layout="col")
        pb = pack_matrix(rng.integers(0, 2, (99, 8)), 1, layout="row")
        with pytest.raises(ShapeError):
            bitgemm(pa, pb)

    def test_unknown_engine(self, small_codes):
        a, b = small_codes
        with pytest.raises(ShapeError, match="unknown engine 'cuda'; registered: "):
            bitgemm_codes(a, b, 3, 2, engine="cuda")

    def test_only_selectors_and_auto_build_a_gemm_spec(self, small_codes, monkeypatch):
        # A literal name is checked against the registry and looked up; the
        # (m, k, n, bits) spec exists for whoever chooses by shape.
        from repro.plan.ir import GemmSpec

        built = []
        real = GemmSpec.__post_init__
        monkeypatch.setattr(
            GemmSpec, "__post_init__", lambda self: (built.append(self), real(self))[1]
        )
        a, b = small_codes
        want = matmul_int_reference(a, b)
        for engine in ("packed", "blas"):
            np.testing.assert_array_equal(bitgemm_codes(a, b, 3, 2, engine=engine), want)
        assert built == []
        np.testing.assert_array_equal(bitgemm_codes(a, b, 3, 2, engine="auto"), want)
        chosen = bitgemm_codes(a, b, 3, 2, engine=lambda m, k, n, ba, bb: "packed")
        np.testing.assert_array_equal(chosen, want)
        assert [(s.m, s.k, s.n, s.bits_a, s.bits_b) for s in built] == [
            (40, 150, 24, 3, 2)
        ] * 2

    def test_plane_products_shift_structure(self, rng):
        # bitgemm_planes[i, j] must equal the plane-product GEMM; summing
        # with shifts i+j reconstructs the product (Algorithm 1 line 10).
        a = rng.integers(0, 4, (16, 128))
        b = rng.integers(0, 4, (128, 8))
        pa = pack_matrix(a, 2, layout="col")
        pb = pack_matrix(b, 2, layout="row")
        partial = bitgemm_planes(pa, pb)
        assert partial.shape == (2, 2, 16, 8)
        total = sum(
            (partial[i, j].astype(np.int64) << (i + j))
            for i in range(2)
            for j in range(2)
        )
        np.testing.assert_array_equal(total, a @ b)

    def test_zero_matrices(self):
        a = np.zeros((8, 128), np.int64)
        b = np.zeros((128, 8), np.int64)
        np.testing.assert_array_equal(bitgemm_codes(a, b, 4, 4), np.zeros((8, 8)))

    def test_max_values_no_overflow(self):
        # Worst case accumulation: (2^8-1)^2 * K must fit int64 — trivially
        # true, but guard the plane shift arithmetic at high bit positions.
        k = 256
        a = np.full((8, k), 255, np.int64)
        b = np.full((k, 8), 255, np.int64)
        np.testing.assert_array_equal(bitgemm_codes(a, b, 8, 8), a @ b)

    def test_non_multiple_shapes(self, rng):
        # Shapes far from the 8/128 tile grid exercise padding correctness.
        a = rng.integers(0, 8, (9, 129))
        b = rng.integers(0, 8, (129, 1))
        np.testing.assert_array_equal(bitgemm_codes(a, b, 3, 3), a @ b)

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 24),
        k=st.integers(1, 200),
        n=st.integers(1, 24),
        bits_a=st.integers(1, 5),
        bits_b=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_gemm_property(self, m, k, n, bits_a, bits_b, seed):
        g = np.random.default_rng(seed)
        a = g.integers(0, 1 << bits_a, (m, k))
        b = g.integers(0, 1 << bits_b, (k, n))
        np.testing.assert_array_equal(bitgemm_codes(a, b, bits_a, bits_b), a @ b)

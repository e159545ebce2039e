"""The codes-first GEMM contract: :class:`~repro.core.bitpack.Operand`,
``Backend.run`` on every registered backend, the exact-dtype boundaries of
the one-GEMM ``blas`` engine, and the CSR view of a packed adjacency."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitgemm import (
    bitgemm,
    codes_gemm,
    exact_gemm_dtype,
    matmul_int_reference,
)
from repro.core.bitpack import Operand, pack_edges, pack_matrix, tile_nonzero_mask
from repro.errors import BitwidthError, PackingError, ShapeError
from repro.gnn.quantized import pack_batch_adjacency
from repro.graph.batching import batch_subgraphs, induced_subgraphs
from repro.graph.generators import planted_partition_graph
from repro.partition import metis_like_partition
from repro.plan import default_registry
from repro.tc.kernel import plan_tile_skip

#: Shapes off every padding boundary: ``M % 8 != 0``, ``K % 128 != 0``,
#: ``K = 1``, a tile-aligned one, and operands with an empty axis.
SHAPES = [
    (13, 150, 5),
    (9, 1, 3),
    (8, 128, 8),
    (1, 129, 17),
    (0, 40, 6),
    (7, 40, 0),
    (5, 0, 4),
]


def _codes(rng: np.random.Generator, shape, bits: int) -> np.ndarray:
    return rng.integers(0, 1 << bits, size=shape, dtype=np.int64)


class TestEveryBackendOnBothForms:
    @settings(max_examples=60)
    @given(
        bits_a=st.integers(1, 8),
        bits_b=st.integers(1, 8),
        shape=st.sampled_from(SHAPES),
        seed=st.integers(0, 2**16),
    )
    def test_run_equals_int64_oracle(self, bits_a, bits_b, shape, seed):
        m, k, n = shape
        rng = np.random.default_rng(seed)
        a, b = _codes(rng, (m, k), bits_a), _codes(rng, (k, n), bits_b)
        want = matmul_int_reference(a, b)
        for backend in default_registry():
            from_codes = backend.run(Operand(a, bits_a, "col"), Operand(b, bits_b, "row"))
            from_words = backend.run(
                Operand(packed=pack_matrix(a, bits_a, layout="col")),
                Operand(packed=pack_matrix(b, bits_b, layout="row")),
            )
            # ``run`` hands back int64 or the float dtype proven exact
            # for the product (what ``blas`` ran in); ``bitgemm`` int64.
            exact = (np.int64, exact_gemm_dtype(k, bits_a, bits_b))
            for got in (from_codes, from_words):
                assert got.dtype in exact and got.shape == (m, n)
                np.testing.assert_array_equal(got, want, err_msg=backend.name)

    @settings(max_examples=60)
    @given(
        bits=st.integers(1, 8),
        shape=st.sampled_from(SHAPES),
        layout=st.sampled_from(["col", "row"]),
        pad=st.sampled_from([8, 128]),
        seed=st.integers(0, 2**16),
    )
    def test_round_trip_and_geometry_match_pack_matrix(
        self, bits, shape, layout, pad, seed
    ):
        rows, cols = shape[0], shape[1]
        codes = _codes(np.random.default_rng(seed), (rows, cols), bits)
        packed = pack_matrix(codes, bits, layout=layout, pad_vectors=pad)
        operand = Operand(codes, bits, layout, pad_vectors=pad)
        # Geometry comes from the logical dims alone — before any pack.
        assert operand._packed is None
        assert operand.padded_vectors == packed.padded_vectors
        assert operand.k_words == packed.k_words
        assert (operand.logical_vectors, operand.logical_k) == (
            packed.logical_vectors,
            packed.logical_k,
        )
        np.testing.assert_array_equal(operand.packed.words, packed.words)
        assert operand.packed is operand.packed  # memoised
        # ... and words -> codes.
        back = Operand(packed=packed)
        assert back._codes is None
        np.testing.assert_array_equal(back.codes, codes)
        assert back.codes is back.codes  # memoised
        assert (back.padded_vectors, back.k_words) == (
            packed.padded_vectors,
            packed.k_words,
        )

    def test_needs_exactly_one_form(self):
        codes = np.zeros((2, 2), np.int64)
        with pytest.raises(PackingError):
            Operand()
        with pytest.raises(PackingError):
            Operand(codes, 1, packed=pack_matrix(codes, 1))
        with pytest.raises(ShapeError):
            Operand(np.zeros(3, np.int64), 1)


class TestExactnessBoundaries:
    """Worst-case (all-max) codes on either side of each dtype bound."""

    @staticmethod
    def _all_max(m, k, n, bits_a, bits_b):
        a = np.full((m, k), (1 << bits_a) - 1, dtype=np.int64)
        b = np.full((k, n), (1 << bits_b) - 1, dtype=np.int64)
        return a, b

    @pytest.mark.parametrize(
        "k, dtype", [(258, np.float32), (259, np.float64)]
    )
    def test_float32_bound_8x8_bit(self, k, dtype):
        # 258 * 255**2 = 16_776_450 < 2**24 <= 259 * 255**2.
        assert exact_gemm_dtype(k, 8, 8) == dtype
        a, b = self._all_max(3, k, 2, 8, 8)
        got = codes_gemm(Operand(a, 8, "col"), Operand(b, 8, "row"))
        np.testing.assert_array_equal(got, matmul_int_reference(a, b))
        np.testing.assert_array_equal(
            bitgemm(Operand(a, 8, "col"), Operand(b, 8, "row"), engine="blas"),
            bitgemm(Operand(a, 8, "col"), Operand(b, 8, "row"), engine="packed"),
        )

    @pytest.mark.parametrize("k, dtype", [(1, np.float64), (2, np.int64)])
    def test_float64_bound_26x27_bit(self, k, dtype):
        # (2**26 - 1) * (2**27 - 1) < 2**53 <= twice that.
        assert exact_gemm_dtype(k, 26, 27) == dtype
        a, b = self._all_max(2, k, 2, 26, 27)
        got = codes_gemm(Operand(a, 26, "col"), Operand(b, 27, "row"))
        assert got.dtype == dtype  # the product stays in the GEMM's dtype
        np.testing.assert_array_equal(got, matmul_int_reference(a, b))
        public = bitgemm(Operand(a, 26, "col"), Operand(b, 27, "row"), engine="blas")
        assert public.dtype == np.int64
        np.testing.assert_array_equal(public, matmul_int_reference(a, b))

    def test_one_bit_adjacency_bound_counts_k(self):
        # 1-bit x 8-bit: exact in float32 up to K = 65_793 (K * 255 < 2**24).
        assert exact_gemm_dtype(65_793, 1, 8) == np.float32
        assert exact_gemm_dtype(65_794, 1, 8) == np.float64

    def test_out_of_range_and_negative_codes_raise(self):
        with pytest.raises(BitwidthError, match="does not fit"):
            Operand(np.array([[0, 256]]), 8, "col")
        with pytest.raises(BitwidthError, match="non-negative"):
            Operand(np.array([[0, -1]]), 8, "col")
        with pytest.raises(BitwidthError):
            Operand(np.array([[0.5]]), 8, "col")


class TestProvenCodes:
    """Codes whose producer proved the range enter in the GEMM's dtype and
    turn ``int64`` only for a consumer that needs them so."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    @pytest.mark.parametrize("bits, layout", [(1, "col"), (1, "row"), (6, "col"), (6, "row")])
    def test_every_form_derives_from_float_codes(self, dtype, bits, layout):
        rng = np.random.default_rng(bits)
        codes = _codes(rng, (13, 150), bits)
        held = codes.astype(dtype)
        operand = Operand(held, bits, layout, proven=True)
        assert operand.matrix(dtype) is held  # multiplied as it arrived
        checked = Operand(codes, bits, layout)
        for other in (np.float32, np.float64):
            np.testing.assert_array_equal(operand.matrix(other), checked.matrix(other))
        for got, want in zip(operand.tile_masks(), checked.tile_masks()):
            np.testing.assert_array_equal(got, want)
        assert operand.codes.dtype == np.int64
        np.testing.assert_array_equal(operand.codes, codes)
        np.testing.assert_array_equal(operand.packed.words, checked.packed.words)

    def test_the_public_constructor_still_checks(self):
        bad = np.array([[0.0, 300.0]], dtype=np.float32)
        with pytest.raises(BitwidthError, match="does not fit"):
            Operand(bad, 8, "col")
        with pytest.raises(ShapeError):
            Operand(np.zeros(3, dtype=np.float32), 8, "col", proven=True)


class TestCsrFromWords:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_dense_reference(self, seed):
        rng = np.random.default_rng(seed)
        # 77 columns: two full words and a last partial one.
        adj = (rng.random((45, 77)) < 0.08).astype(np.int64)
        adj[3] = 0  # empty rows, first, middle and last
        adj[0] = 0
        adj[-1] = 0
        adj[7, 32:64] = 1  # a full 32-bit word
        adj[9, 64:] = 1  # the whole partial word
        operand = Operand(packed=pack_matrix(adj, 1, layout="col"))
        csr = operand.matrix(np.float32)
        assert sp.issparse(csr) and csr.format == "csr"
        assert csr.shape == adj.shape and csr.dtype == np.float32
        assert csr.has_sorted_indices
        np.testing.assert_array_equal(csr.toarray(), adj)
        assert operand.matrix(np.float32) is csr  # memoised
        np.testing.assert_array_equal(operand.matrix(np.int64).toarray(), adj)
        x = rng.integers(0, 256, size=(77, 6), dtype=np.int64)
        np.testing.assert_array_equal(
            codes_gemm(operand, Operand(x, 8, "row")), adj @ x
        )
        assert operand._codes is None  # never densified

    def test_only_a_words_only_one_bit_left_operand_is_sparse(self):
        codes = np.ones((4, 4), np.int64)
        for other in (
            Operand(codes, 1, "col"),  # has codes: dense
            Operand(packed=pack_matrix(codes, 2, layout="col")),
            Operand(packed=pack_matrix(codes, 1, layout="row")),
        ):
            dense = other.matrix(np.float32)
            assert isinstance(dense, np.ndarray) and dense.dtype == np.float32
            np.testing.assert_array_equal(dense, codes)

    def test_matches_pack_edges_coordinates(self, rng):
        rows = rng.integers(0, 300, size=900)
        cols = rng.integers(0, 300, size=900)
        csr = Operand(packed=pack_edges(rows, cols, 300, 300)).matrix(np.float64)
        want = np.zeros((300, 300))
        want[rows, cols] = 1
        np.testing.assert_array_equal(csr.toarray(), want)

    def test_adjacency_operand_stays_near_packed_size(self):
        g = planted_partition_graph(
            2048, 12000, num_communities=16, feature_dim=8, num_classes=4,
            rng=np.random.default_rng(5),
        )
        subs = induced_subgraphs(g, metis_like_partition(g, 16))
        batch = next(batch_subgraphs(subs, 16))
        assert batch.num_nodes == 2048
        adjacency = pack_batch_adjacency(batch)
        operand = adjacency.operand
        assert adjacency.operand is operand  # memoised on the artifact
        x = np.random.default_rng(0).integers(0, 256, size=(2048, 16))
        np.testing.assert_array_equal(
            codes_gemm(operand, Operand(x, 8, "row")),
            bitgemm(adjacency.packed, Operand(x, 8, "row"), engine="packed"),
        )
        csr = operand.matrix(exact_gemm_dtype(2048, 1, 8))
        extra = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        assert extra <= 4 * adjacency.packed.nbytes
        assert operand._codes is None


#: ``(M, K)`` of a left operand off every padding boundary, empty axes included.
CENSUS_SHAPES = [(13, 150), (9, 1), (8, 128), (1, 129), (0, 40), (5, 0), (20, 300)]


class TestSelfCensus:
    """§4.3 ballot from coordinates == from codes == from words == a dense
    ``8 x 128`` block reference — three producers, one result."""

    @settings(max_examples=80)
    @given(
        shape=st.sampled_from(CENSUS_SHAPES),
        pad=st.sampled_from([8, 128]),
        density=st.sampled_from([0.0, 0.02, 0.3]),
        seed=st.integers(0, 2**16),
    )
    def test_three_forms_agree_with_the_dense_blocks(self, shape, pad, density, seed):
        m, k = shape
        rng = np.random.default_rng(seed)
        codes = (rng.random((m, k)) < density).astype(np.int64)
        codes[rng.random(m) < 0.4] = 0  # all-zero rows
        words = pack_matrix(codes, 1, "col", pad_vectors=pad)
        blocks = np.zeros((words.padded_vectors, words.padded_k), dtype=bool)
        blocks[:m, :k] = codes != 0
        want = blocks.reshape(
            words.padded_vectors // 8, 8, words.padded_k // 128, 128
        ).any(axis=(1, 3))
        np.testing.assert_array_equal(tile_nonzero_mask(words.plane(0)), want)

        rows, cols = np.nonzero(codes)
        rows, cols = np.tile(rows, 2), np.tile(cols, 2)  # duplicates are idempotent
        from_edges = pack_edges(rows, cols, m, k, pad_vectors=pad)
        np.testing.assert_array_equal(from_edges.words, words.words)
        coordinates = Operand(csr=sp.csr_matrix(codes.astype(np.float32)), pad_vectors=pad)
        for operand in (
            Operand(packed=from_edges, csr=sp.csr_matrix(codes.astype(np.float32))),
            coordinates,
            Operand(codes, 1, "col", pad_vectors=pad),
            Operand(packed=words),
        ):
            (mask,) = operand.tile_masks()
            assert mask.dtype == want.dtype
            np.testing.assert_array_equal(mask, want)
            assert plan_tile_skip(operand).matches(operand)
            np.testing.assert_array_equal(plan_tile_skip(operand).masks[0], want)
        # The ballot needed no word; the first reader gets the same ones.
        assert coordinates._packed is None
        np.testing.assert_array_equal(coordinates.packed.words, words.words)
        assert coordinates.packed_nbytes == words.nbytes
        np.testing.assert_array_equal(coordinates.codes, codes)

    def test_codes_census_packs_nothing(self, rng):
        operand = Operand(rng.integers(0, 2, size=(21, 140)), 1, "col")
        operand.tile_masks()
        assert operand._packed is None

    def test_multi_bit_codes_ballot_every_plane_of_their_words(self, rng):
        codes = rng.integers(0, 8, size=(19, 260)) * (rng.random((19, 260)) < 0.01)
        masks = Operand(codes, 3, "col").tile_masks()
        words = pack_matrix(codes, 3, "col")
        assert len(masks) == 3
        for plane, mask in zip(words.words, masks):
            np.testing.assert_array_equal(mask, tile_nonzero_mask(plane))

    def test_coordinates_must_describe_the_operand(self):
        packed = pack_edges(np.array([0]), np.array([1]), 4, 6)
        with pytest.raises(PackingError, match="coordinates"):
            Operand(packed=packed, csr=sp.csr_matrix((4, 5), dtype=np.float32))
        with pytest.raises(PackingError, match="coordinates"):
            Operand(
                packed=pack_matrix(np.ones((4, 6), np.int64), 2, "col"),
                csr=sp.csr_matrix((4, 6), dtype=np.float32),
            )

    def test_coordinates_must_be_canonical(self):
        """Words OR a repeated coordinate away, a GEMM on the CSR counts it
        twice: an operand must not be both."""
        unsorted = sp.csr_matrix(
            (np.ones(3, np.float32), [2, 0, 1], [0, 2, 3]), shape=(2, 3)
        )
        repeated = sp.csr_matrix(
            (np.ones(3, np.float32), [1, 1, 0], [0, 2, 3]), shape=(2, 3)
        )
        for csr in (unsorted, repeated):
            assert not csr.has_canonical_format
            with pytest.raises(PackingError, match="canonical"):
                Operand(csr=csr)
            with pytest.raises(PackingError, match="canonical"):
                Operand(packed=pack_matrix(np.ones((2, 3), np.int64), 1, "col"), csr=csr)
        repeated.sum_duplicates()
        assert Operand(csr=repeated).packed.to_codes().tolist() == [[0, 1, 0], [1, 0, 0]]

    def test_an_operand_has_exactly_one_producer(self):
        csr = sp.csr_matrix(np.eye(3, dtype=np.float32))
        with pytest.raises(PackingError, match="build an operand"):
            Operand()
        with pytest.raises(PackingError, match="build an operand"):
            Operand(np.eye(3, dtype=np.int64), 1, "col", csr=csr)

    def test_coordinates_are_the_gemm_factor_and_are_never_decoded(self, monkeypatch):
        dense = (np.random.default_rng(3).random((30, 70)) < 0.1).astype(np.int64)
        csr = sp.csr_matrix(dense.astype(np.float32))
        operand = Operand(packed=pack_matrix(dense, 1, "col"), csr=csr)
        monkeypatch.setattr(
            Operand, "_csr_from_words", lambda *a: pytest.fail("decoded the words")
        )
        assert operand.matrix(np.float32) is csr
        as_f64 = operand.matrix(np.float64)
        assert as_f64.dtype == np.float64 and operand.matrix(np.float64) is as_f64
        np.testing.assert_array_equal(as_f64.toarray(), dense)

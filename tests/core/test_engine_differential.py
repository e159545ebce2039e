"""Differential harness: every host engine is bit-identical to the oracle.

AE-style randomized validation (in the spirit of the PPoPP'22 artifact):
seeded sweeps over shapes — including empty subgraphs, single-node
matrices and non-multiple-of-8 rows — crossed with bitwidths 1-8 and the
built-in host engines {packed, blas}, every product asserted equal to
``matmul_int_reference`` bit for bit.  Structure-directed cases
(block-diagonal, all-zero) pin that zero tiles contribute nothing.

The plan/execute split gets the same treatment: a compiled single-GEMM
step replayed on fresh same-shape inputs must match eager execution bit
for bit for every registered backend.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitgemm import (
    ENGINE_NAMES,
    bitgemm,
    bitgemm_codes,
    matmul_int_reference,
)
from repro.core.bitpack import (
    Operand,
    pack_matrix,
    tile_nonzero_mask,
)
from repro.plan import GemmSpec, default_registry
from repro.plan.ir import compile_gemm_step

#: Shape corners of the sweep: (M, K, N).
SHAPES = [
    (0, 96, 8),  # empty subgraph: no rows at all
    (64, 300, 0),  # no output columns
    (1, 1, 1),  # single node, single feature
    (8, 128, 8),  # exactly one 8x128 tile
    (13, 150, 24),  # non-multiple-of-8 rows, non-multiple-of-128 K
    (40, 260, 17),  # several partial tiles on every axis
    (129, 129, 9),  # one past every padding boundary
]


def _codes(rng: np.random.Generator, shape: tuple[int, int], bits: int) -> np.ndarray:
    return rng.integers(0, 1 << bits, size=shape, dtype=np.int64)


def _assert_all_engines_match(a, b, bits_a, bits_b, context):
    ref = matmul_int_reference(a, b)
    for engine in ENGINE_NAMES:
        got = bitgemm_codes(a, b, bits_a, bits_b, engine=engine)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, ref, err_msg=f"{engine} {context}")


class TestShapeSweep:
    """Every engine, every shape corner, a couple of bitwidth mixes."""

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("bits", [(1, 4), (3, 2)], ids=lambda b: f"{b[0]}b{b[1]}")
    def test_engines_match_reference(self, shape, bits):
        m, k, n = shape
        bits_a, bits_b = bits
        rng = np.random.default_rng(hash((m, k, n, bits_a, bits_b)) & 0xFFFF)
        a = _codes(rng, (m, k), bits_a)
        b = _codes(rng, (k, n), bits_b)
        _assert_all_engines_match(a, b, bits_a, bits_b, f"shape={shape} bits={bits}")


class TestBitwidthSweep:
    """The full 1-8 x 1-8 bitwidth grid on one padding-hostile shape."""

    @pytest.mark.parametrize("bits_a", range(1, 9))
    @pytest.mark.parametrize("bits_b", range(1, 9))
    def test_engines_match_reference(self, bits_a, bits_b):
        rng = np.random.default_rng(1000 * bits_a + bits_b)
        a = _codes(rng, (21, 140), bits_a)
        b = _codes(rng, (140, 10), bits_b)
        _assert_all_engines_match(a, b, bits_a, bits_b, f"bits=({bits_a},{bits_b})")


class TestRandomizedSweep:
    """Seeded random shapes + bitwidths; densities from empty to full."""

    @pytest.mark.parametrize("trial", range(20))
    def test_engines_match_reference(self, trial):
        rng = np.random.default_rng(0xD1FF + trial)
        m = int(rng.integers(0, 70))
        k = int(rng.integers(1, 400))
        n = int(rng.integers(0, 40))
        bits_a = int(rng.integers(1, 9))
        bits_b = int(rng.integers(1, 9))
        density = float(rng.random())
        a = _codes(rng, (m, k), bits_a) * (rng.random((m, k)) < density)
        b = _codes(rng, (k, n), bits_b)
        _assert_all_engines_match(
            a, b, bits_a, bits_b, f"trial={trial} mkn=({m},{k},{n})"
        )


class TestTileMaskStructure:
    """Cases aimed at tile-sparse operands."""

    def test_block_diagonal_skips_and_matches(self, rng):
        # 4 members of 64 nodes: >= the off-diagonal 3/4 of tiles are zero.
        n = 256
        adj = np.zeros((n, n), dtype=np.int64)
        for i in range(4):
            lo = i * 64
            adj[lo : lo + 64, lo : lo + 64] = (rng.random((64, 64)) < 0.2).astype(
                np.int64
            )
        np.fill_diagonal(adj, 1)
        packed_a = pack_matrix(adj, 1, layout="col")
        mask = tile_nonzero_mask(packed_a.plane(0))
        assert 0.0 < mask.mean() <= 0.5  # mostly zero tiles
        feats = rng.integers(0, 256, size=(n, 24), dtype=np.int64)
        packed_b = pack_matrix(feats, 8, layout="row")
        want = matmul_int_reference(adj, feats)
        for engine in ENGINE_NAMES:
            got = bitgemm(packed_a, packed_b, engine=engine)
            np.testing.assert_array_equal(got, want, err_msg=engine)

    def test_all_zero_left_operand(self):
        a = np.zeros((32, 256), dtype=np.int64)
        b = np.ones((256, 16), dtype=np.int64)
        for engine in ENGINE_NAMES:
            out = bitgemm_codes(a, b, 1, 1, engine=engine)
            assert not out.any()

    @pytest.mark.parametrize("engine", default_registry().names())
    def test_selector_may_return_any_backend(self, rng, engine):
        a = _codes(rng, (16, 200), 1)
        b = _codes(rng, (200, 12), 4)
        out = bitgemm_codes(a, b, 1, 4, engine=lambda *args: engine)
        np.testing.assert_array_equal(out, matmul_int_reference(a, b))


class TestPlanCompileReplay:
    """Plan/execute split: a compiled step replayed through ``bitgemm`` on
    fresh inputs of the same shape is bit-identical to eager execution for
    every registered backend."""

    M, K, N, BITS_A, BITS_B = 21, 150, 14, 3, 2

    def _compile(self, engine, m=M, k=K, n=N, bits_a=BITS_A, bits_b=BITS_B):
        spec = GemmSpec(m=m, k=k, n=n, bits_a=bits_a, bits_b=bits_b)
        return compile_gemm_step(spec, engine=engine)

    def _operands(self, seed: int):
        rng = np.random.default_rng(seed)
        a = _codes(rng, (self.M, self.K), self.BITS_A)
        b = _codes(rng, (self.K, self.N), self.BITS_B)
        return a, b

    def _replay(self, step, a, b):
        """Replay ``step`` on integer codes, in the plan's layouts."""
        return bitgemm(
            Operand(a, self.BITS_A, step.pack_a.layout),
            Operand(b, self.BITS_B, step.pack_b.layout),
            engine=step.backend,
        )

    def test_replay_matches_eager_for_all_registered_backends(self):
        for backend in default_registry():
            step = self._compile(backend.name)
            assert step.backend == backend.name
            # Replay the one compiled plan on several fresh same-shape inputs.
            for seed in range(3):
                a, b = self._operands(seed)
                replayed = self._replay(step, a, b)
                eager = bitgemm_codes(
                    a, b, self.BITS_A, self.BITS_B, engine=backend.name
                )
                np.testing.assert_array_equal(
                    replayed, eager, err_msg=f"{backend.name} seed={seed}"
                )
                np.testing.assert_array_equal(replayed, matmul_int_reference(a, b))

    @settings(max_examples=30)
    @given(
        shape=st.tuples(st.integers(0, 40), st.integers(1, 300), st.integers(0, 24)),
        bits=st.tuples(st.integers(1, 8), st.integers(1, 8)),
        seed=st.integers(0, 2**16),
    )
    def test_replay_property_every_backend(self, shape, bits, seed):
        # compile -> replay over arbitrary shapes and bitwidths, every
        # registered backend that accepts the spec.
        (m, k, n), (bits_a, bits_b) = shape, bits
        rng = np.random.default_rng(seed)
        a = _codes(rng, (m, k), bits_a)
        b = _codes(rng, (k, n), bits_b)
        ref = matmul_int_reference(a, b)
        spec = GemmSpec(m=m, k=k, n=n, bits_a=bits_a, bits_b=bits_b)
        for backend in default_registry():
            if not backend.caps.supports(spec):
                continue
            step = compile_gemm_step(spec, engine=backend.name)
            got = bitgemm(
                Operand(a, bits_a, step.pack_a.layout),
                Operand(b, bits_b, step.pack_b.layout),
                engine=step.backend,
            )
            np.testing.assert_array_equal(got, ref, err_msg=backend.name)

    def test_replay_on_packed_operands(self, rng):
        step = self._compile("blas")
        a, b = self._operands(7)
        pa = pack_matrix(a, self.BITS_A, layout="col")
        pb = pack_matrix(b, self.BITS_B, layout="row")
        np.testing.assert_array_equal(
            bitgemm(pa, pb, engine=step.backend), matmul_int_reference(a, b)
        )

    def test_auto_plan_freezes_threshold_choice(self):
        small = self._compile("auto", 8, 128, 8, 1, 1)
        large = self._compile("auto", 512, 128, 512, 1, 1)
        assert small.backend == "packed"
        assert large.backend == "blas"

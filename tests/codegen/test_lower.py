"""Lowering tests: schedule transforms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen import compile_program, lower_gemm
from repro.codegen.lower import GROUP_UNROLL_LIMIT, PAIR_UNROLL_LIMIT
from repro.core.bitpack import pack_matrix, tile_nonzero_mask
from repro.errors import ShapeError


def _mask_for(adj: np.ndarray):
    packed = pack_matrix(adj, 1, layout="col")
    return packed, tile_nonzero_mask(packed.plane(0))


class TestGemmSchedules:
    def test_dense_schedule_unrolls_small_plane_grids(self):
        program = lower_gemm(
            m=16, n=8, bits_a=2, bits_b=3, a_padded_vectors=16, a_k_words=4
        )
        assert "widen-words:u64" in program.schedule
        assert "unroll-bit-planes:2x3" in program.schedule
        # Unrolled: no plane loop survives in the source.
        assert "for ai" not in program.source()
        assert "for bj" not in program.source()

    def test_dense_schedule_keeps_loops_above_pair_limit(self):
        program = lower_gemm(
            m=16, n=8, bits_a=5, bits_b=5, a_padded_vectors=16, a_k_words=4
        )
        assert 5 * 5 > PAIR_UNROLL_LIMIT
        assert not any("unroll-bit-planes" in s for s in program.schedule)
        assert "for ai in range(5):" in program.source()

    def test_skip_schedule_has_no_runtime_tile_test(self, rng):
        adj = np.zeros((64, 512), dtype=np.int64)
        adj[:8, :128] = (rng.random((8, 128)) < 0.3).astype(np.int64)
        adj[24:32, 256:384] = 1
        _, mask = _mask_for(adj)
        program = lower_gemm(
            m=64, n=16, bits_a=1, bits_b=4,
            a_padded_vectors=64, a_k_words=16, tile_mask=mask,
        )
        tags = program.schedule
        assert "fuse-b-planes" in tags
        assert any(s.startswith("specialize-skip-loop:groups=") for s in tags)
        # The census is baked in: the emitted source never consults a mask.
        assert "mask" not in program.source()
        assert "if " not in program.source()

    def test_skip_specialization_bakes_index_lists_into_env(self, rng):
        adj = (rng.random((40, 256)) < 0.04).astype(np.int64)
        _, mask = _mask_for(adj)
        program = lower_gemm(
            m=40, n=8, bits_a=1, bits_b=2,
            a_padded_vectors=40, a_k_words=8, tile_mask=mask,
        )
        # Scattered censuses need gather maps; every env entry is an
        # index array referenced by the source.
        for name, arr in program.env.items():
            assert arr.dtype == np.intp
            assert name in program.source()

    def test_dense_fallback_above_group_limit(self):
        # Every tile row gets a distinct census pattern (the binary
        # encoding of its index), exceeding GROUP_UNROLL_LIMIT distinct
        # patterns and forcing the dense fallback schedule.
        tile_rows = GROUP_UNROLL_LIMIT + 16
        rows = tile_rows * 8
        adj = np.zeros((rows, 8 * 128), dtype=np.int64)
        for t in range(tile_rows):
            for c in range(8):
                if (t >> c) & 1:
                    adj[t * 8, c * 128] = 1
        _, mask = _mask_for(adj)
        assert len(np.unique(mask, axis=0)) > GROUP_UNROLL_LIMIT
        program = lower_gemm(
            m=rows, n=8, bits_a=1, bits_b=1,
            a_padded_vectors=rows, a_k_words=32, tile_mask=mask,
        )
        assert "skip-specialize:fallback-dense" in program.schedule

    def test_degenerate_empty_shapes(self):
        for m, n in [(0, 8), (8, 0)]:
            program = lower_gemm(
                m=m, n=n, bits_a=1, bits_b=2, a_padded_vectors=8, a_k_words=4
            )
            assert program.schedule == ("degenerate-empty",)
            out = compile_program(program)(None, None)
            assert out.shape == (1, 2, m, n)

    def test_rejects_mask_on_multibit_left_operand(self):
        with pytest.raises(ShapeError):
            lower_gemm(
                m=8, n=8, bits_a=2, bits_b=1,
                a_padded_vectors=8, a_k_words=4,
                tile_mask=np.ones((1, 1), dtype=bool),
            )

    def test_rejects_mask_grid_mismatch(self):
        with pytest.raises(ShapeError):
            lower_gemm(
                m=8, n=8, bits_a=1, bits_b=1,
                a_padded_vectors=8, a_k_words=4,
                tile_mask=np.ones((2, 1), dtype=bool),
            )

    def test_rejects_partial_tile_columns(self):
        with pytest.raises(ShapeError):
            lower_gemm(m=8, n=8, bits_a=1, bits_b=1,
                       a_padded_vectors=8, a_k_words=3)

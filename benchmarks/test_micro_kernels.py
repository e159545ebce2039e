"""Wall-clock microbenchmarks of the library's own hot paths.

Unlike the figure/table harnesses (which report *modeled device time*),
these measure real Python/NumPy wall-clock of the packing, popcount and
bit-GEMM implementations — the paths a user of this library actually pays
for.  Useful for tracking performance regressions of the reproduction
itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitgemm import bitgemm, bmm_plane_packed, codes_gemm
from repro.core.bitops import popcount
from repro.core.bitpack import Operand, pack_matrix, tile_nonzero_mask, unpack_matrix
from repro.tc.kernel import BitGemmKernel, KernelConfig

RNG = np.random.default_rng(2022)
# Block-diagonal adjacency (4 batched subgraphs of 256 nodes): dense inside
# the diagonal blocks, guaranteed-zero tiles between them — the structure
# the zero-tile-jumping kernel is built for.
ADJ = np.zeros((1024, 1024), dtype=np.int64)
for _blk in range(4):
    _s = slice(_blk * 256, (_blk + 1) * 256)
    ADJ[_s, _s] = (RNG.random((256, 256)) < 0.05).astype(np.int64)
FEATS = RNG.integers(0, 16, (1024, 64))
PACKED_ADJ = pack_matrix(ADJ, 1, layout="col")
PACKED_FEATS = pack_matrix(FEATS, 4, layout="row")


def test_bench_pack_adjacency(benchmark):
    out = benchmark(pack_matrix, ADJ, 1, layout="col")
    assert out.bits == 1


def test_bench_unpack_roundtrip(benchmark):
    out = benchmark(unpack_matrix, PACKED_ADJ)
    np.testing.assert_array_equal(out, ADJ)


def test_bench_popcount_1m_words(benchmark):
    words = RNG.integers(0, 2**32, size=1_000_000, dtype=np.uint32)
    total = benchmark(lambda: int(popcount(words).sum()))
    assert total > 0


def test_bench_tile_census(benchmark):
    mask = benchmark(tile_nonzero_mask, PACKED_ADJ.plane(0))
    assert mask.any()


def test_bench_bitgemm_blas_engine(benchmark):
    out = benchmark(bitgemm, PACKED_ADJ, PACKED_FEATS, engine="blas")
    np.testing.assert_array_equal(out, ADJ @ FEATS)


def test_bench_bitgemm_packed_engine(benchmark):
    small_adj = ADJ[:256, :256]
    small_feats = FEATS[:256, :16]
    pa = pack_matrix(small_adj, 1, layout="col")
    pb = pack_matrix(small_feats, 4, layout="row")
    out = benchmark(bitgemm, pa, pb, engine="packed")
    np.testing.assert_array_equal(out, small_adj @ small_feats)


def test_bench_plane_kernels_agree(benchmark):
    a = PACKED_ADJ
    b = PACKED_FEATS

    def run():
        return bmm_plane_packed(a.plane(0), b.plane(0))

    packed = benchmark(run)
    # Plane 0 of the features is their low bit: the same 1-bit product as
    # one GEMM on codes (the adjacency entering as CSR from its words).
    blas = codes_gemm(Operand(packed=a), Operand(FEATS & 1, 1, "row"))
    np.testing.assert_array_equal(
        packed[: ADJ.shape[0], : FEATS.shape[1]], blas
    )


@pytest.mark.parametrize("reuse", ["cross-bit", "cross-tile"])
def test_bench_emulated_kernel(benchmark, reuse):
    kernel = BitGemmKernel(KernelConfig(reuse=reuse))
    result = benchmark(kernel.run, PACKED_ADJ, PACKED_FEATS)
    np.testing.assert_array_equal(result.output, ADJ @ FEATS)
    assert result.counters.tiles_skipped > 0

"""Tests for the emulated QGTC kernel: fast path vs literal tile loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitpack import Operand, pack_matrix, tile_nonzero_mask
from repro.errors import PackingError, ShapeError
from repro.plan import default_registry
from repro.tc.kernel import (
    BitGemmKernel,
    KernelConfig,
    TileSkipPlan,
    derive_tile_counters,
    plan_tile_skip,
)

COUNTER_FIELDS = [
    "mma_ops",
    "frag_loads_a",
    "frag_loads_b",
    "frag_stores",
    "global_bytes_read",
    "global_bytes_written",
    "tiles_total",
    "tiles_skipped",
    "tiles_processed",
]


def _sparse_operands(rng, m=40, k=260, n=20, bits_b=2, density=0.04):
    adj = (rng.random((m, k)) < density).astype(np.int64)
    x = rng.integers(0, 1 << bits_b, (k, n))
    return (
        adj,
        x,
        pack_matrix(adj, 1, layout="col"),
        pack_matrix(x, bits_b, layout="row"),
    )


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("reuse", ["cross-bit", "cross-tile"])
    @pytest.mark.parametrize("jumping", [True, False])
    def test_fast_equals_tile_loop(self, rng, reuse, jumping):
        adj, x, pa, pb = _sparse_operands(rng)
        kernel = BitGemmKernel(KernelConfig(zero_tile_jumping=jumping, reuse=reuse))
        fast = kernel.run(pa, pb)
        slow = kernel.run_tile_loop(pa, pb)
        np.testing.assert_array_equal(fast.output, adj @ x)
        np.testing.assert_array_equal(slow.output, adj @ x)
        for field in COUNTER_FIELDS:
            assert getattr(fast.counters, field) == getattr(slow.counters, field), field

    def test_multibit_left_operand(self, rng):
        # The update GEMM: multi-bit x multi-bit, no jumping applies.
        a = rng.integers(0, 4, (24, 130))
        b = rng.integers(0, 8, (130, 16))
        pa = pack_matrix(a, 2, layout="col")
        pb = pack_matrix(b, 3, layout="row")
        kernel = BitGemmKernel(KernelConfig())
        fast = kernel.run(pa, pb)
        slow = kernel.run_tile_loop(pa, pb)
        np.testing.assert_array_equal(fast.output, a @ b)
        for field in COUNTER_FIELDS:
            assert getattr(fast.counters, field) == getattr(slow.counters, field), field
        # Jumping never engages on multi-bit left operands.
        assert fast.counters.tiles_skipped == 0

    def test_all_zero_adjacency(self, rng):
        adj = np.zeros((16, 256), np.int64)
        x = rng.integers(0, 4, (256, 8))
        pa = pack_matrix(adj, 1, layout="col")
        pb = pack_matrix(x, 2, layout="row")
        kernel = BitGemmKernel(KernelConfig())
        res = kernel.run(pa, pb)
        assert res.output.sum() == 0
        assert res.counters.mma_ops == 0
        assert res.counters.tiles_skipped == res.counters.tiles_total


class TestJumpingEffect:
    def test_skips_reduce_work(self, rng):
        adj, x, pa, pb = _sparse_operands(rng, density=0.01)
        on = BitGemmKernel(KernelConfig(zero_tile_jumping=True)).run(pa, pb)
        off = BitGemmKernel(KernelConfig(zero_tile_jumping=False)).run(pa, pb)
        np.testing.assert_array_equal(on.output, off.output)
        assert on.counters.mma_ops < off.counters.mma_ops
        assert on.counters.tiles_skipped > 0
        assert off.counters.tiles_skipped == 0

    def test_dense_adjacency_no_skips(self, rng):
        adj = np.ones((16, 256), np.int64)
        x = rng.integers(0, 4, (256, 8))
        pa = pack_matrix(adj, 1, layout="col")
        pb = pack_matrix(x, 2, layout="row")
        res = BitGemmKernel(KernelConfig()).run(pa, pb)
        assert res.counters.tiles_skipped == 0
        assert res.counters.processed_fraction == 1.0


class TestReuseEffect:
    def test_cross_tile_loads_a_once(self, rng):
        adj, x, pa, pb = _sparse_operands(rng, bits_b=4)
        ct = BitGemmKernel(KernelConfig(reuse="cross-tile")).run(pa, pb)
        cb = BitGemmKernel(KernelConfig(reuse="cross-bit")).run(pa, pb)
        np.testing.assert_array_equal(ct.output, cb.output)
        # §4.4: O(n) -> O(1) loads per surviving tile, n = embedding bits.
        assert cb.counters.frag_loads_a == 4 * ct.counters.frag_loads_a
        assert ct.counters.frag_loads_a == ct.counters.tiles_processed

    def test_cross_bit_rmw_traffic(self, rng):
        adj, x, pa, pb = _sparse_operands(rng, bits_b=4)
        ct = BitGemmKernel(KernelConfig(reuse="cross-tile")).run(pa, pb)
        cb = BitGemmKernel(KernelConfig(reuse="cross-bit")).run(pa, pb)
        assert cb.counters.global_bytes_written > ct.counters.global_bytes_written
        assert cb.counters.frag_stores > ct.counters.frag_stores

    def test_mma_count_identical_across_schedules(self, rng):
        adj, x, pa, pb = _sparse_operands(rng, bits_b=3)
        ct = BitGemmKernel(KernelConfig(reuse="cross-tile")).run(pa, pb)
        cb = BitGemmKernel(KernelConfig(reuse="cross-bit")).run(pa, pb)
        assert ct.counters.mma_ops == cb.counters.mma_ops


class TestTileSkipPlan:
    def test_plan_matches_per_plane_masks(self, rng):
        _, _, pa, _ = _sparse_operands(rng, m=64, k=520, density=0.001)
        plan = plan_tile_skip(pa)
        assert plan.bits == pa.bits == 1
        assert plan.tile_grid == (pa.padded_vectors // 8, pa.k_words // 4)
        np.testing.assert_array_equal(plan.masks[0], tile_nonzero_mask(pa.plane(0)))
        assert plan.nonzero_tiles == int(plan.masks[0].sum())
        assert plan.total_tiles == plan.masks[0].size
        assert 0.0 < plan.nonzero_fraction < 1.0
        assert plan.matches(pa)

    @pytest.mark.parametrize("engine", default_registry().names())
    def test_every_backend_equals_tile_loop(self, rng, engine):
        # §4.3 lives in the census and the tile loop, not in an engine: the
        # planned run's output and every counter match the literal loop
        # whichever backend computes the product.
        adj, x, pa, pb = _sparse_operands(rng)
        kernel = BitGemmKernel(KernelConfig())
        fast = kernel.run(pa, pb, engine=engine, plan=plan_tile_skip(pa))
        slow = kernel.run_tile_loop(pa, pb)
        np.testing.assert_array_equal(fast.output, adj @ x)
        np.testing.assert_array_equal(fast.output, slow.output)
        for field in COUNTER_FIELDS:
            assert getattr(fast.counters, field) == getattr(
                slow.counters, field
            ), field

    def test_precomputed_plan_is_equivalent(self, rng):
        adj, x, pa, pb = _sparse_operands(rng)
        kernel = BitGemmKernel(KernelConfig())
        plan = plan_tile_skip(pa)
        for engine in ("packed", "blas"):
            with_plan = kernel.run(pa, pb, engine=engine, plan=plan)
            without = kernel.run(pa, pb, engine=engine)
            np.testing.assert_array_equal(with_plan.output, without.output)
            for field in COUNTER_FIELDS:
                assert getattr(with_plan.counters, field) == getattr(
                    without.counters, field
                ), (engine, field)

    def test_rejects_foreign_plan(self, rng):
        _, _, pa, pb = _sparse_operands(rng)
        _, _, other, _ = _sparse_operands(rng, m=80, k=400)
        with pytest.raises(ShapeError):
            BitGemmKernel().run(pa, pb, plan=plan_tile_skip(other))

    def test_rejects_degenerate_plans(self):
        with pytest.raises(ShapeError):
            TileSkipPlan(masks=())
        with pytest.raises(ShapeError):
            TileSkipPlan(
                masks=(np.ones((2, 2), bool), np.ones((2, 3), bool))
            )

    def test_multibit_plan_counts_all_planes(self, rng):
        a = rng.integers(0, 8, (16, 130))
        pa = pack_matrix(a, 3, layout="col")
        plan = plan_tile_skip(pa)
        assert plan.bits == 3
        assert plan.total_tiles == 3 * plan.masks[0].size
        assert plan.processed_per_plane() == [int(m.sum()) for m in plan.masks]


#: Shape corners (M, K, N): empty operands, a single node, exactly one
#: 8x128 tile, and partial tiles on every axis.
SHAPE_CORNERS = [
    (0, 96, 8),
    (64, 300, 0),
    (1, 1, 1),
    (8, 128, 8),
    (13, 150, 24),
    (40, 260, 17),
    (129, 129, 9),
]


def _shape_id(shape):
    return "x".join(map(str, shape))


class TestShapeCornerSweep:
    """The census readers — a planned launch's counters and the literal
    tile loop — agree with every registered backend's product on every
    shape corner, from an all-zero adjacency (every tile jumped) to a
    dense one (none jumped)."""

    @pytest.mark.parametrize("engine", default_registry().names())
    @pytest.mark.parametrize("density", [0.0, 0.05, 1.0])
    @pytest.mark.parametrize("shape", SHAPE_CORNERS, ids=_shape_id)
    def test_planned_run_equals_tile_loop(self, shape, density, engine):
        m, k, n = shape
        rng = np.random.default_rng(hash((m, k, n, density)) & 0xFFFF)
        adj, x, pa, pb = _sparse_operands(rng, m=m, k=k, n=n, density=density)
        plan = plan_tile_skip(pa)
        for reuse in ("cross-bit", "cross-tile"):
            kernel = BitGemmKernel(KernelConfig(reuse=reuse))
            fast = kernel.run(pa, pb, engine=engine, plan=plan)
            slow = kernel.run_tile_loop(pa, pb)
            np.testing.assert_array_equal(fast.output, adj @ x)
            np.testing.assert_array_equal(slow.output, fast.output)
            for field in COUNTER_FIELDS:
                assert getattr(fast.counters, field) == getattr(
                    slow.counters, field
                ), (reuse, field)
            counters = fast.counters
            assert counters.tiles_total == plan.total_tiles
            assert counters.tiles_processed == plan.nonzero_tiles
            if density == 0.0:
                assert counters.tiles_processed == 0
            if density == 1.0 and m:
                # Every tile holds a logical row; only M = 0's lone
                # padding tile is all zero, and it is jumped.
                assert counters.tiles_skipped == 0

    @pytest.mark.parametrize("engine", default_registry().names())
    @pytest.mark.parametrize("bits_a", [2, 3])
    @pytest.mark.parametrize("shape", SHAPE_CORNERS, ids=_shape_id)
    def test_census_less_launch_equals_tile_loop(self, shape, bits_a, engine):
        # A multi-bit left operand never jumps, so a launch has no census:
        # its counters are memoised on the step instead, and a replay
        # through the same memo reuses them.
        m, k, n = shape
        rng = np.random.default_rng(hash((m, k, n, bits_a)) & 0xFFFF)
        a = rng.integers(0, 1 << bits_a, (m, k))
        x = rng.integers(0, 4, (k, n))
        pa = Operand(packed=pack_matrix(a, bits_a, layout="col"))
        pb = Operand(packed=pack_matrix(x, 2, layout="row"))
        kernel = BitGemmKernel(KernelConfig())
        backend = default_registry().get(engine)
        memo = {}
        first = kernel.launch(backend, pa, pb, memo=memo)
        replay = kernel.launch(backend, pa, pb, memo=memo)
        slow = kernel.run_tile_loop(pa.packed, pb.packed)
        np.testing.assert_array_equal(first.output, a @ x)
        np.testing.assert_array_equal(replay.output, first.output)
        np.testing.assert_array_equal(slow.output, first.output)
        assert replay.counters is first.counters
        assert len(memo) == 1
        for field in COUNTER_FIELDS:
            assert getattr(first.counters, field) == getattr(
                slow.counters, field
            ), field
        assert first.counters.tiles_skipped == 0


class TestValidation:
    def test_layout_checks(self, rng):
        a = rng.integers(0, 2, (8, 128))
        pa_row = pack_matrix(a, 1, layout="row")
        pb_col = pack_matrix(a, 1, layout="col")
        kernel = BitGemmKernel()
        with pytest.raises(PackingError):
            kernel.run(pa_row, pack_matrix(a, 1, layout="row"))
        with pytest.raises(PackingError):
            kernel.run(pack_matrix(a, 1, layout="col"), pb_col)

    def test_k_mismatch(self, rng):
        pa = pack_matrix(rng.integers(0, 2, (8, 128)), 1, layout="col")
        pb = pack_matrix(rng.integers(0, 2, (127, 8)), 1, layout="row")
        with pytest.raises(ShapeError):
            BitGemmKernel().run(pa, pb)

    def test_bad_reuse_mode(self):
        with pytest.raises(ShapeError):
            KernelConfig(reuse="sideways")


class TestDeriveCounters:
    def test_validates_plane_list(self):
        with pytest.raises(ShapeError):
            derive_tile_counters(
                mt=2, kt=2, nt=1, bits_a=2, bits_b=1,
                processed_per_plane=[1], jumping=True, config=KernelConfig(),
            )
        with pytest.raises(ShapeError):
            derive_tile_counters(
                mt=2, kt=2, nt=1, bits_a=1, bits_b=1,
                processed_per_plane=[5], jumping=True, config=KernelConfig(),
            )

    def test_mma_formula(self):
        c = derive_tile_counters(
            mt=4, kt=2, nt=3, bits_a=1, bits_b=5,
            processed_per_plane=[6], jumping=True, config=KernelConfig(),
        )
        assert c.mma_ops == 6 * 5 * 3
        assert c.tiles_total == 8
        assert c.tiles_skipped == 2

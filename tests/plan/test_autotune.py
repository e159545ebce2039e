"""Tests for measured dispatch: shape buckets, the in-memory dispatch
table's confidence rule and sample validation, and tuned-vs-analytic
pricing."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigError
from repro.plan import (
    Backend,
    BackendRegistry,
    DispatchTable,
    GemmSpec,
    HostRates,
    PriceContext,
    bucket_for,
    builtin_backends,
    fraction_band,
    host_fingerprint,
)
from repro.plan.autotune import MAX_FRACTION_BAND, NO_CENSUS_BAND, bucket_in
from repro.serving.dispatch import CostModelDispatcher


def _spec(m=64, k=128, n=16, bits_a=1, bits_b=4, role="gemm"):
    return GemmSpec(m=m, k=k, n=n, bits_a=bits_a, bits_b=bits_b, role=role)


class TestShapeBuckets:
    def test_dims_quantize_to_tile_multiples(self):
        bucket = bucket_for(_spec(m=13, k=150, n=17))
        assert (bucket.m, bucket.k, bucket.n) == (16, 256, 24)

    def test_shapes_straddling_tile_multiples(self):
        # One side of a tile boundary shares a bucket; one past it does not.
        at = bucket_for(_spec(m=8, k=128, n=8))
        below = bucket_for(_spec(m=7, k=127, n=7))
        above = bucket_for(_spec(m=9, k=129, n=9))
        assert below == at
        assert above != at
        assert (above.m, above.k, above.n) == (16, 256, 16)

    def test_zero_dims_share_the_one_tile_bucket(self):
        assert bucket_for(_spec(m=0, k=0, n=0)) == bucket_for(_spec(m=1, k=1, n=1))

    def test_bitwidths_separate_buckets(self):
        assert bucket_for(_spec(bits_b=4)) != bucket_for(_spec(bits_b=8))

    def test_fraction_bands_are_geometric(self):
        assert fraction_band(None) == NO_CENSUS_BAND
        assert fraction_band(1.0) == 0
        # Within one [2^-(b+1), 2^-b) interval -> same band; across -> not.
        assert fraction_band(0.35) == fraction_band(0.26)
        assert fraction_band(0.35) != fraction_band(0.15)
        # Band boundaries are sharp at powers of two: 1/16 opens band 3,
        # 1/17 sits just below it in band 4.
        assert fraction_band(1 / 16) == 3
        assert fraction_band(1 / 17) == 4
        assert fraction_band(1 / 16) == fraction_band(1 / 9)
        # Everything at/below 2^-MAX collapses into the sparsest band.
        assert fraction_band(0.0) == MAX_FRACTION_BAND
        assert fraction_band(2.0 ** -(MAX_FRACTION_BAND + 3)) == MAX_FRACTION_BAND

    def test_fraction_band_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            fraction_band(1.5)
        with pytest.raises(ConfigError):
            fraction_band(-0.1)

    def test_bucket_key_names_every_coordinate(self):
        bucket = bucket_for(_spec(m=40, k=260, n=17, bits_a=2, bits_b=3), 0.3)
        assert bucket.key() == "40x384x24:2b3:f1"
        assert bucket_for(_spec(bits_b=8)).key() != bucket_for(_spec()).key()

    def test_host_fingerprint_is_stable(self):
        assert host_fingerprint() == host_fingerprint()

    def test_host_fingerprint_names_interpreter_and_numpy(self):
        import platform

        import numpy as np

        fields = host_fingerprint().split("/")
        assert len(fields) == 5
        py = ".".join(platform.python_version_tuple()[:2])
        assert fields[2] == f"py{py}"
        assert fields[3] == "numpy" + ".".join(np.__version__.split(".")[:2])
        assert fields[4]  # the linked BLAS, or "unknown"

    @pytest.mark.parametrize("band", range(MAX_FRACTION_BAND - 1))
    def test_power_of_two_opens_its_band(self, band):
        # Band b is [2^-(b+1), 2^-b): its lower edge is in it, a hair
        # below it is one band sparser.
        edge = 2.0 ** -(band + 1)
        assert fraction_band(edge) == band
        assert fraction_band(edge * (1 - 1e-12)) == band + 1

    def test_band_never_decreases_as_fraction_falls(self):
        fractions = [1.0 - i / 1000 for i in range(1001)]
        bands = [fraction_band(f) for f in fractions]
        assert bands == sorted(bands)
        assert bands[0] == 0 and bands[-1] == MAX_FRACTION_BAND


class TestBucketIn:
    def test_memoises_while_the_fraction_holds(self):
        memo, spec = {}, _spec(m=40, k=260, n=17)
        first = bucket_in(memo, spec, 0.3)
        assert first == bucket_for(spec, 0.3)
        assert bucket_in(memo, spec, 0.3) is first

    def test_rebuckets_when_the_fraction_changes(self):
        memo, spec = {}, _spec(m=256, k=256, n=16, bits_a=1, bits_b=8)
        dense = bucket_in(memo, spec, 1.0)
        sparse = bucket_in(memo, spec, 0.01)
        assert sparse == bucket_for(spec, 0.01) != dense
        assert bucket_in(memo, spec, None) == bucket_for(spec)
        assert bucket_in(memo, spec, 1.0) == dense

    def test_memos_are_not_shared(self):
        # Each owner (plan step, price context) keeps its own bucket.
        a, b = {}, {}
        assert bucket_in(a, _spec(bits_b=4)) != bucket_in(b, _spec(bits_b=8))
        assert bucket_in(a, _spec(bits_b=4)) == bucket_for(_spec(bits_b=4))


class TestDispatchTableConfidence:
    def test_below_min_samples_is_not_consulted(self):
        table = DispatchTable(min_samples=2)
        bucket = bucket_for(_spec())
        table.record(bucket, "packed", 1e-3)
        assert table.median(bucket, "packed") is None
        table.record(bucket, "packed", 3e-3)
        assert table.median(bucket, "packed") == pytest.approx(2e-3)

    def test_sample_ring_is_bounded(self):
        table = DispatchTable(max_samples=4)
        bucket = bucket_for(_spec())
        for s in range(10):
            table.record(bucket, "packed", float(s))
        # Only the last four samples survive: median of 6,7,8,9.
        assert table.median(bucket, "packed") == pytest.approx(7.5)

    def test_ring_keeps_the_newest_samples_of_a_batch(self):
        # One round's batch rotates through the ring in arrival order.
        table = DispatchTable(max_samples=3)
        bucket = bucket_for(_spec())
        table.record_all([(bucket, "packed", s) for s in (10.0, 20.0, 30.0, 1.0, 2.0)])
        assert table.sample_count() == 3
        assert table.median(bucket, "packed") == 2.0  # of 30, 1, 2

    def test_one_sample_ring_prices_the_latest(self):
        table = DispatchTable(max_samples=1)
        bucket = bucket_for(_spec())
        for s in (5e-3, 1e-3, 7e-3):
            table.record(bucket, "packed", s)
            assert table.median(bucket, "packed") == s

    def test_cells_never_age_out(self):
        # No staleness horizon: a confident cell stays confident however
        # much is recorded elsewhere in the table.
        table = DispatchTable(min_samples=1)
        bucket, other = bucket_for(_spec()), bucket_for(_spec(bits_b=8))
        table.record(bucket, "packed", 1e-3)
        table.record_all([(other, "blas", 1e-3)] * 1000)
        assert table.median(bucket, "packed") == 1e-3

    def test_recording_only_ever_raises_confidence(self):
        table = DispatchTable(min_samples=2, max_samples=4)
        bucket = bucket_for(_spec())
        table.record(bucket, "blas", 1e-4)
        assert table.median(bucket, "blas") is None
        table.record(bucket, "blas", 3e-4)
        assert table.median(bucket, "blas") == pytest.approx(2e-4)
        # A full ring rotates, and never drops below the confidence floor.
        for s in (9e-3, 9e-3, 9e-3, 9e-3, 9e-3):
            table.record(bucket, "blas", s)
            assert table.median(bucket, "blas") is not None

    def test_min_samples_is_per_backend_cell(self):
        table = DispatchTable(min_samples=2)
        bucket = bucket_for(_spec())
        table.record_all(
            [(bucket, "blas", 1e-3), (bucket, "blas", 1e-3), (bucket, "packed", 1e-3)]
        )
        assert table.median(bucket, "blas") == 1e-3
        assert table.median(bucket, "packed") is None

    def test_zero_seconds_is_a_valid_sample(self):
        table = DispatchTable()
        bucket = bucket_for(_spec())
        table.record(bucket, "packed", 0.0)
        assert table.median(bucket, "packed") == 0.0

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_bad_sample_rejects_the_whole_batch(self, position):
        # Validation precedes recording: the samples before the bad one
        # do not land either.
        table = DispatchTable()
        bucket = bucket_for(_spec())
        batch = [(bucket, "packed", 1e-3), (bucket, "blas", 2e-3), (bucket, "codegen", 3e-3)]
        batch[position] = (bucket, batch[position][1], -1e-9)
        with pytest.raises(ConfigError):
            table.record_all(batch)
        assert table.sample_count() == 0
        assert bucket not in table

    def test_empty_batch_is_a_no_op(self):
        table = DispatchTable()
        table.record_all([])
        assert table.sample_count() == 0 and len(table) == 0

    def test_concurrent_recorders_lose_no_sample(self):
        # A thread pool's shards record into one table: a lost update in a
        # shared ring would show as a short count.
        import sys
        import threading

        table = DispatchTable(max_samples=10_000)
        buckets = [bucket_for(_spec(bits_b=b)) for b in (2, 4)]
        barrier = threading.Barrier(8)

        def shard(i):
            barrier.wait()
            for s in range(200):
                table.record_all([(buckets[s % 2], f"b{i % 3}", 1e-6 * s)])

        threads = [threading.Thread(target=shard, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert table.sample_count() == 8 * 200
        assert set(table.backends(buckets[0])) == {"b0", "b1", "b2"}

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ConfigError):
            DispatchTable(min_samples=0)
        with pytest.raises(ConfigError):
            DispatchTable(max_samples=0)
        with pytest.raises(ConfigError):
            DispatchTable().record(bucket_for(_spec()), "packed", -1.0)

    @pytest.mark.parametrize("seconds", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, seconds):
        # One NaN in a ring would skew its bucket's median price.
        dispatch = CostModelDispatcher(table=DispatchTable(min_samples=1))
        spec = _spec()
        dispatch.record_timing(spec, "packed", 1e-3)
        with pytest.raises(ConfigError, match="finite"):
            dispatch.record_timing(spec, "packed", seconds)
        with pytest.raises(ConfigError, match="finite"):
            dispatch.table.record_all(
                [(bucket_for(spec), "blas", 1e-3), (bucket_for(spec), "blas", seconds)]
            )
        assert dispatch.table.sample_count() == 1
        assert dispatch.table.median(bucket_for(spec), "packed") == 1e-3


class TestDispatchTableContents:
    def test_empty_table(self):
        table = DispatchTable()
        bucket = bucket_for(_spec())
        assert len(table) == 0 and table.sample_count() == 0
        assert table.buckets() == ()
        assert table.backends(bucket) == ()
        assert bucket not in table
        assert table.median(bucket, "packed") is None

    def test_buckets_and_backends_list_what_was_recorded(self):
        table = DispatchTable()
        first, second = bucket_for(_spec()), bucket_for(_spec(bits_b=8))
        table.record(first, "blas", 1e-3)
        table.record(second, "packed", 1e-3)
        table.record(first, "packed", 1e-3)
        table.record(first, "blas", 1e-3)
        assert table.buckets() == (first, second)
        assert table.backends(first) == ("blas", "packed")
        assert table.backends(second) == ("packed",)
        assert len(table) == 2 and table.sample_count() == 4
        assert first in table and "not a bucket" not in table

    def test_record_spec_returns_the_bucket_it_filled(self):
        table = DispatchTable()
        spec = _spec(m=40, k=260, n=17, bits_a=1, bits_b=3)
        bucket = table.record_spec(spec, "packed", 1e-3, tile_fraction=0.3)
        assert bucket == bucket_for(spec, 0.3)
        assert table.buckets() == (bucket,)

    def test_census_band_separates_samples_of_one_shape(self):
        table = DispatchTable()
        spec = _spec(m=256, k=256, n=16, bits_a=1, bits_b=8)
        dense = table.record_spec(spec, "packed", 1e-3, tile_fraction=0.9)
        sparse = table.record_spec(spec, "packed", 5e-3, tile_fraction=0.05)
        unknown = table.record_spec(spec, "packed", 9e-3)
        assert len({dense, sparse, unknown}) == 3
        assert table.median(dense, "packed") == 1e-3
        assert table.median(sparse, "packed") == 5e-3
        assert table.median(unknown, "packed") == 9e-3


class TestTunedPricing:
    def _ctx(self, spec, table=None, fraction=None, budget=None):
        return PriceContext(
            spec=spec,
            flops=2.0 * spec.m * spec.k * spec.n * spec.pairs,
            rates=HostRates(),
            tile_fraction=fraction,
            blas_bytes_budget=budget,
            table=table,
        )

    def test_tuned_median_overrides_model(self):
        spec = _spec()
        table = DispatchTable(min_samples=1)
        table.record_spec(spec, "packed", 123e-6)
        registry = BackendRegistry(builtin_backends())
        price = registry.get("packed").price(self._ctx(spec, table))
        assert price.source == "tuned"
        assert price.seconds == pytest.approx(123e-6)
        # Without the table the same backend prices from the model.
        model = registry.get("packed").price(self._ctx(spec))
        assert model.source == "model"
        assert model.seconds != pytest.approx(123e-6)

    def test_tuned_price_is_the_median_not_the_mean(self):
        # One descheduled outlier must not reprice the bucket.
        spec = _spec()
        table = DispatchTable(min_samples=1)
        for seconds in (1e-4, 1e-4, 1.0):
            table.record_spec(spec, "packed", seconds)
        registry = BackendRegistry(builtin_backends())
        assert registry.get("packed").price(self._ctx(spec, table)).seconds == 1e-4

    def test_other_census_band_falls_back_to_model(self):
        spec = _spec(m=256, k=256, n=16, bits_a=1, bits_b=8)
        table = DispatchTable(min_samples=1)
        table.record_spec(spec, "packed", 1e-9, tile_fraction=0.9)
        registry = BackendRegistry(builtin_backends())
        packed = registry.get("packed")
        assert packed.price(self._ctx(spec, table, fraction=0.95)).source == "tuned"
        assert packed.price(self._ctx(spec, table, fraction=0.05)).source == "model"
        assert packed.price(self._ctx(spec, table)).source == "model"

    def test_unmeasured_bucket_falls_back_to_model(self):
        table = DispatchTable(min_samples=1)
        table.record_spec(_spec(bits_b=8), "packed", 1e-3)  # other bucket
        registry = BackendRegistry(builtin_backends())
        price = registry.get("packed").price(self._ctx(_spec(), table))
        assert price.source == "model"

    def test_memory_veto_outranks_measurement(self):
        # blas measured blazing fast, but the byte budget still excludes
        # it: measurement must not smuggle an allocation past the veto.
        spec = _spec(m=512, k=512, n=64, bits_a=8, bits_b=8)
        table = DispatchTable(min_samples=1)
        registry = BackendRegistry(builtin_backends())
        table.record_spec(spec, "blas", 1e-9)
        price = registry.get("blas").price(self._ctx(spec, table, budget=1024))
        assert price.vetoed
        assert price.source == "model"
        assert price.effective_s == math.inf

    def test_pricerless_backend_becomes_routable_once_tuned(self):
        spec = _spec()
        oracle = Backend(
            name="oracle", run=lambda a, b, m=None: None
        )
        registry = BackendRegistry(builtin_backends())
        registry.register(oracle)
        untuned = registry.price_all(self._ctx(spec))
        assert "oracle" not in untuned
        table = DispatchTable(min_samples=1)
        table.record_spec(spec, "oracle", 1e-9)
        tuned = registry.price_all(self._ctx(spec, table))
        assert tuned["oracle"].source == "tuned"
        assert min(tuned.items(), key=lambda kv: kv[1].effective_s)[0] == "oracle"

    def test_tuned_price_keeps_model_bytes_estimate(self):
        # Measurement replaces the seconds, not the working-set estimate:
        # decision telemetry still reports the allocation that will happen.
        spec = _spec(m=256, k=256, n=64, bits_a=2, bits_b=4)
        table = DispatchTable(min_samples=1)
        table.record_spec(spec, "blas", 1e-3)
        dispatch = CostModelDispatcher(table=table)
        tuned = dispatch.decide(spec.m, spec.k, spec.n, spec.bits_a, spec.bits_b)
        analytic = CostModelDispatcher().decide(
            spec.m, spec.k, spec.n, spec.bits_a, spec.bits_b
        )
        assert "blas" in tuned.tuned_backends
        assert tuned.prices["blas"].bytes == analytic.prices["blas"].bytes > 0

    def test_online_samples_update_the_consulted_bucket(self):
        # The acceptance loop: decide -> record -> the very next decide for
        # the same bucket prices from the new measurement.
        dispatch = CostModelDispatcher(table=DispatchTable(min_samples=1))
        shape = (512, 64, 64, 8, 8)
        spec = GemmSpec(m=512, k=64, n=64, bits_a=8, bits_b=8)
        before = dispatch.decide(*shape)
        assert before.engine == "blas"  # the analytic pick
        assert not before.tuned_backends
        # Feed measurements saying packed is actually 100x faster here.
        dispatch.record_timing(spec, "blas", 10e-3)
        dispatch.record_timing(spec, "packed", 0.1e-3)
        after = dispatch.decide(*shape)
        assert set(after.tuned_backends) >= {"packed", "blas"}
        assert after.engine == "packed"
        assert after.tuned
        # A shape straddling into the same padded bucket is priced from the
        # same measurements.
        neighbor = dispatch.decide(510, 63, 63, 8, 8)
        assert neighbor.engine == "packed"
        # A different bucket is untouched.
        assert not dispatch.decide(1024, 256, 64, 8, 8).tuned_backends

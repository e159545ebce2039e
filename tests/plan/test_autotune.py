"""Tests for measured autotuned dispatch: shape buckets, the dispatch
table's confidence/staleness rules, on-disk persistence keyed by host +
registry identity, tuned-vs-analytic pricing, and the offline tuner."""

from __future__ import annotations

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.plan import (
    Backend,
    BackendCaps,
    BackendRegistry,
    DispatchTable,
    GemmSpec,
    HostRates,
    PriceContext,
    ShapeBucket,
    autotune,
    bucket_for,
    builtin_backends,
    default_registry,
    fraction_band,
    host_fingerprint,
    registry_digest,
)
from repro.plan.autotune import (
    MAX_FRACTION_BAND,
    NO_CENSUS_BAND,
    synthesize_operands,
)
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

    def test_bucket_key_roundtrip(self):
        bucket = bucket_for(_spec(m=40, k=260, n=17, bits_a=2, bits_b=3), 0.3)
        assert ShapeBucket.from_key(bucket.key()) == bucket
        with pytest.raises(ConfigError):
            ShapeBucket.from_key("not-a-key")


class TestDispatchTableConfidence:
    def test_below_min_samples_is_not_consulted(self):
        table = DispatchTable(min_samples=2)
        bucket = bucket_for(_spec())
        table.record(bucket, "packed", 1e-3)
        assert table.median(bucket, "packed") is None
        table.record(bucket, "packed", 3e-3)
        assert table.median(bucket, "packed") == pytest.approx(2e-3)

    def test_staleness_ages_cells_out(self):
        table = DispatchTable(min_samples=1, stale_after=3)
        bucket = bucket_for(_spec())
        other = bucket_for(_spec(bits_b=8))
        table.record(bucket, "packed", 1e-3)
        assert table.median(bucket, "packed") is not None
        # Three recordings elsewhere: still within the horizon...
        for _ in range(3):
            table.record(other, "blas", 1e-3)
        assert table.median(bucket, "packed") is not None
        # ...the fourth pushes the cell past it; fresh samples revive it.
        table.record(other, "blas", 1e-3)
        assert table.median(bucket, "packed") is None
        table.record(bucket, "packed", 2e-3)
        assert table.median(bucket, "packed") is not None

    def test_sample_ring_is_bounded(self):
        table = DispatchTable(max_samples=4)
        bucket = bucket_for(_spec())
        for s in range(10):
            table.record(bucket, "packed", float(s))
        # Only the last four samples survive: median of 6,7,8,9.
        assert table.median(bucket, "packed") == pytest.approx(7.5)

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ConfigError):
            DispatchTable(min_samples=0)
        with pytest.raises(ConfigError):
            DispatchTable(stale_after=0)
        with pytest.raises(ConfigError):
            DispatchTable().record(bucket_for(_spec()), "packed", -1.0)
        with pytest.raises(ConfigError):
            DispatchTable().with_confidence(min_samples=0)
        with pytest.raises(ConfigError):
            DispatchTable().with_confidence(stale_after=0)

    def test_consulting_session_can_disable_staleness(self):
        # The recording session aged a cell out; the consuming session's
        # policy wins: stale_after=None un-ages every persisted sample.
        table = DispatchTable(min_samples=1, stale_after=1)
        bucket, other = bucket_for(_spec()), bucket_for(_spec(bits_b=8))
        table.record(bucket, "packed", 1e-3)
        for _ in range(3):
            table.record(other, "blas", 1e-3)
        assert table.median(bucket, "packed") is None  # aged out
        table.with_confidence(stale_after=None)
        assert table.median(bucket, "packed") == pytest.approx(1e-3)
        # Omitting the argument leaves the policy untouched.
        table.with_confidence(min_samples=1)
        assert table.stale_after is None


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


class TestPersistence:
    def _filled_table(self) -> DispatchTable:
        table = DispatchTable(min_samples=1)
        for seconds in (1e-3, 3e-3, 2e-3):
            table.record_spec(_spec(), "packed", seconds)
        table.record_spec(_spec(), "blas", 4e-3, tile_fraction=None)
        table.record_spec(_spec(m=40, k=260, n=17), "codegen", 5e-3, tile_fraction=0.3)
        return table

    def test_save_load_roundtrip(self, tmp_path):
        table = self._filled_table()
        path = table.save(tmp_path / "table.json")
        loaded = DispatchTable.load(path)
        assert loaded.mismatch is None
        assert loaded.sample_count() == table.sample_count()
        assert set(loaded.buckets()) == set(table.buckets())
        for bucket in table.buckets():
            for backend in table.backends(bucket):
                assert loaded.median(bucket, backend) == table.median(bucket, backend)

    def test_roundtrip_preserves_pricing_decisions(self, tmp_path):
        table = self._filled_table()
        spec = _spec()
        a = CostModelDispatcher(table=table)
        b = CostModelDispatcher(
            table=DispatchTable.load(table.save(tmp_path / "t.json"))
        )
        da = a.decide(spec.m, spec.k, spec.n, spec.bits_a, spec.bits_b)
        db = b.decide(spec.m, spec.k, spec.n, spec.bits_a, spec.bits_b)
        assert da.engine == db.engine
        assert da.tuned_backends == db.tuned_backends

    def test_host_fingerprint_mismatch_degrades_to_analytic(self, tmp_path):
        path = self._filled_table().save(tmp_path / "table.json")
        foreign = DispatchTable.load(path, host="sparc64/Solaris/py2.7/numpy1.0")
        assert foreign.mismatch is not None
        assert "fingerprint" in foreign.mismatch
        assert len(foreign) == 0
        # Fallback is the pure analytic model: identical to a no-table run.
        spec = _spec()
        with_foreign = CostModelDispatcher(table=foreign)
        without = CostModelDispatcher()
        df = with_foreign.decide(spec.m, spec.k, spec.n, spec.bits_a, spec.bits_b)
        dn = without.decide(spec.m, spec.k, spec.n, spec.bits_a, spec.bits_b)
        assert df.engine == dn.engine
        assert not df.tuned_backends

    def test_registry_digest_mismatch_degrades(self, tmp_path):
        path = self._filled_table().save(tmp_path / "table.json")
        loaded = DispatchTable.load(path, registry_id="packed,cuda")
        assert loaded.mismatch is not None and "registry" in loaded.mismatch
        assert len(loaded) == 0

    def test_degraded_load_warns_and_counts(self, tmp_path):
        path = self._filled_table().save(tmp_path / "table.json")
        with pytest.warns(RuntimeWarning, match="pricing falls back"):
            degraded = DispatchTable.load(path, host="other/host")
        assert degraded.degraded_loads == 1
        # A clean load neither warns nor counts.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clean = DispatchTable.load(path)
        assert clean.degraded_loads == 0

    def test_strict_load_raises_on_mismatch(self, tmp_path):
        path = self._filled_table().save(tmp_path / "table.json")
        with pytest.raises(ConfigError, match="fingerprint"):
            DispatchTable.load(path, host="other/host", strict=True)
        with pytest.raises(ConfigError, match="unreadable"):
            DispatchTable.load(tmp_path / "missing.json", strict=True)

    def test_unreadable_and_malformed_payloads_degrade(self, tmp_path):
        assert DispatchTable.load(tmp_path / "missing.json").mismatch is not None
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert "unreadable" in DispatchTable.load(bad).mismatch
        wrong_version = tmp_path / "v99.json"
        payload = self._filled_table().to_payload()
        payload["version"] = 99
        wrong_version.write_text(json.dumps(payload))
        assert "version" in DispatchTable.load(wrong_version).mismatch

    def test_malformed_header_fields_degrade_not_raise(self, tmp_path):
        # Corrupted policy/counter fields are load failures like any other:
        # degrade to analytic, never crash session startup.
        for field, value in [
            ("min_samples", 0),
            ("stale_after", "5"),
            ("generation", "x"),
            ("max_samples", -3),
        ]:
            payload = self._filled_table().to_payload()
            payload[field] = value
            path = tmp_path / f"{field}.json"
            path.write_text(json.dumps(payload))
            loaded = DispatchTable.load(path)
            assert loaded.mismatch is not None, field
            assert len(loaded) == 0

    def test_identity_helpers_are_stable(self):
        assert host_fingerprint() == host_fingerprint()
        # The default digest covers the full default registry — built-ins
        # plus codegen — so a table tuned against a different backend set
        # can never be replayed against this one.
        assert registry_digest() == ",".join(default_registry().names())


class TestAutotuner:
    def test_tunes_every_eligible_backend(self):
        registry = BackendRegistry(builtin_backends())
        spec = _spec(m=32, k=128, n=8, bits_a=1, bits_b=2)
        table = autotune([(spec, 0.4)], registry=registry, passes=2)
        bucket = bucket_for(spec, 0.4)
        assert bucket in table
        assert set(table.backends(bucket)) == set(registry.names())
        for backend in table.backends(bucket):
            assert table.median(bucket, backend) > 0

    def test_deduplicates_buckets_and_counts_samples(self):
        # Two specs in one bucket are measured once: passes samples per
        # backend, not 2*passes.
        registry = BackendRegistry(builtin_backends())
        table = autotune(
            [_spec(m=13, k=150, n=17), _spec(m=16, k=256, n=24)],
            registry=registry,
            passes=2,
        )
        assert len(table) == 1
        bucket = table.buckets()[0]
        assert table.sample_count() == 2 * len(table.backends(bucket))

    def test_budget_skips_hopeless_backends(self):
        registry = BackendRegistry(builtin_backends())
        spec = _spec(m=64, k=128, n=64, bits_a=4, bits_b=4)
        table = autotune(
            [spec], registry=registry, passes=1, max_seconds_per_backend=1e-12
        )
        # Every analytic estimate exceeds a picosecond: nothing measured.
        assert table.sample_count() == 0

    def test_caps_filter_ineligible_backends(self):
        # A backend whose caps stop at 8 bits must not be measured on a
        # 16-bit product.
        registry = BackendRegistry(builtin_backends())
        registry.register(
            dataclasses.replace(
                registry.get("packed"), name="narrow", caps=BackendCaps(max_bits_a=8)
            )
        )
        spec = _spec(m=16, k=128, n=8, bits_a=16, bits_b=2)
        table = autotune([spec], registry=registry, passes=1)
        assert set(table.backends(bucket_for(spec))) == {"packed", "blas"}

    def test_synthesized_fraction_matches_request(self):
        from repro.core.bitpack import tile_nonzero_mask

        rng = np.random.default_rng(3)
        spec = _spec(m=256, k=1024, n=8, bits_a=1, bits_b=1)
        a, _ = synthesize_operands(spec, 0.25, rng)
        measured = tile_nonzero_mask(a.packed.plane(0)).mean()
        assert 0.1 < measured <= 0.3  # near the request (tiles may be empty)

    def test_rejects_invalid_passes(self):
        with pytest.raises(ConfigError):
            autotune([_spec()], passes=0)

    def test_caller_supplied_empty_table_is_filled_in_place(self):
        # Regression: an empty DispatchTable is falsy (__len__ == 0) and
        # must not be swapped for a fresh one — pre-filling a session's
        # own table is the documented use.
        mine = DispatchTable(min_samples=1)
        returned = autotune(
            [_spec(m=16, k=128, n=8, bits_a=1, bits_b=1)],
            registry=BackendRegistry(builtin_backends()),
            table=mine,
            passes=1,
        )
        assert returned is mine
        assert mine.sample_count() > 0


class TestDispatchTableMerge:
    """Cross-shard merge semantics (the pool's warm-state exchange)."""

    def _bucket(self):
        return bucket_for(_spec(m=64, k=128, n=16, bits_a=1, bits_b=4))

    def test_merge_unions_overlapping_buckets(self):
        bucket = self._bucket()
        a = DispatchTable(min_samples=2)
        b = DispatchTable(min_samples=2)
        a.record(bucket, "packed", 1e-3)
        a.record(bucket, "packed", 3e-3)
        b.record(bucket, "packed", 2e-3)
        b.record(bucket, "blas", 5e-4)
        adopted = a.merge(b)
        assert adopted == 2
        # The overlapping cell pooled both shards' samples.
        assert a.median(bucket, "packed") == 2e-3
        # A backend only the other shard measured is now present here.
        assert "blas" in a.backends(bucket)

    def test_merge_keeps_confidence_monotone(self):
        # A cell confident before the merge must stay confident after it
        # (samples are only ever added).
        bucket = self._bucket()
        a = DispatchTable(min_samples=2)
        for s in (1e-3, 2e-3):
            a.record(bucket, "packed", s)
        assert a.median(bucket, "packed") is not None
        b = DispatchTable(min_samples=2)
        b.record(bucket, "packed", 9e-3)
        a.merge(b)
        assert a.median(bucket, "packed") is not None
        # And an unconfident cell can *become* confident through a merge.
        c = DispatchTable(min_samples=2)
        c.record(bucket, "blas", 1e-4)
        d = DispatchTable(min_samples=2)
        d.record(bucket, "blas", 3e-4)
        assert c.median(bucket, "blas") is None
        c.merge(d)
        assert c.median(bucket, "blas") is not None

    def test_merge_respects_bounded_rings(self):
        bucket = self._bucket()
        a = DispatchTable(max_samples=4)
        b = DispatchTable(max_samples=4)
        for i in range(4):
            a.record(bucket, "packed", 1e-3 + i * 1e-6)
        for i in range(8):
            b.record(bucket, "packed", 2e-3 + i * 1e-6)
        a.merge(b)
        assert a.sample_count() == 4  # the ring, not the union

    def test_merge_preserves_local_recency(self):
        # A sibling's backlog may not flush a shard's own recent samples:
        # adoption into a full ring is capped at half its capacity.
        bucket = self._bucket()
        a = DispatchTable(max_samples=4)
        b = DispatchTable(max_samples=4)
        local = [1e-3 + i * 1e-6 for i in range(4)]
        for s in local:
            a.record(bucket, "packed", s)
        for i in range(8):
            b.record(bucket, "packed", 2e-3 + i * 1e-6)
        assert a.merge(b) == 2  # capped at max_samples // 2
        held = list(a._entries[bucket]["packed"].samples)
        assert len(held) == 4
        assert local[-2:] == held[:2]  # newest local samples survived

    def test_merge_is_idempotent(self):
        # Re-merging the same shard state (what a pool does every merge
        # interval) must not slew medians with duplicate samples.
        bucket = self._bucket()
        a = DispatchTable()
        b = DispatchTable()
        a.record(bucket, "packed", 1e-3)
        b.record(bucket, "packed", 2e-3)
        assert a.merge(b) == 1
        assert a.merge(b) == 0
        assert a.sample_count() == 2

    def test_merge_with_self_is_a_no_op(self):
        table = DispatchTable()
        table.record(self._bucket(), "packed", 1e-3)
        assert table.merge(table) == 0
        assert table.sample_count() == 1

    def test_merge_rejects_foreign_identity(self):
        alien = DispatchTable(host="alien/arch")
        alien.record(self._bucket(), "packed", 1e-3)
        with pytest.raises(ConfigError):
            DispatchTable().merge(alien)
        other_registry = DispatchTable(registry_id="packed,only")
        with pytest.raises(ConfigError):
            DispatchTable().merge(other_registry)

    def test_merge_saved_skips_foreign_files_not_fatal(self, tmp_path):
        from repro.plan import merge_saved_dispatch_tables

        bucket = self._bucket()
        good = DispatchTable()
        good.record(bucket, "packed", 1e-3)
        good_path = good.save(tmp_path / "shard-0.json")
        alien = DispatchTable(host="alien/arch")
        alien.record(bucket, "packed", 9e-3)
        alien_path = alien.save(tmp_path / "shard-1.json")
        corrupt_path = tmp_path / "shard-2.json"
        corrupt_path.write_text("not json {")

        base = DispatchTable()
        outcomes = merge_saved_dispatch_tables(
            base, [good_path, alien_path, corrupt_path]
        )
        assert outcomes[str(good_path)] == 1
        assert outcomes[str(alien_path)] is None   # skipped, not raised
        assert outcomes[str(corrupt_path)] is None
        assert base.sample_count() == 1  # only the same-identity shard landed

    def test_merged_samples_survive_a_save_load_roundtrip(self, tmp_path):
        bucket = self._bucket()
        a = DispatchTable(min_samples=1)
        b = DispatchTable(min_samples=1)
        a.record(bucket, "packed", 1e-3)
        b.record(bucket, "packed", 2e-3)
        a.merge(b)
        path = a.save(tmp_path / "merged.json")
        loaded = DispatchTable.load(path)
        assert loaded.mismatch is None
        assert loaded.sample_count() == 2
        assert loaded.median(bucket, "packed") == a.median(bucket, "packed")

"""The benchmark-regression pass: tolerance band, NaN handling, CLI exit.

Fixtures synthesize ``BENCH_*.json`` pairs in temp directories, so the
pass's contract — flag a 2x slowdown, tolerate noise, skip missing or
non-finite metrics, exit nonzero for CI — is pinned without running any
real benchmark.
"""

from __future__ import annotations

import json

import pytest

from repro.perf import compare_benchmarks, refresh_baselines
from repro.perf.__main__ import main as perf_main


def write_bench(directory, name: str, payload: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"BENCH_{name}.json").write_text(json.dumps(payload))


@pytest.fixture
def dirs(tmp_path):
    return tmp_path / "out", tmp_path / "baselines"


class TestCompare:
    def test_identical_runs_pass(self, dirs):
        out, base = dirs
        payload = {"speedup": {"best": 3.0, "median": 2.8}}
        write_bench(out, "serving", payload)
        write_bench(base, "serving", payload)
        result = compare_benchmarks(out, base)
        assert result.ok
        assert any(f.get("status") == "ok" for f in result.findings)

    def test_injected_2x_slowdown_flagged(self, dirs):
        out, base = dirs
        write_bench(base, "serving", {"speedup": {"median": 2.8}})
        # The session got 2x slower: its speedup over the cold path
        # halved, ratio 0.5 < the 0.6 floor.
        write_bench(out, "serving", {"speedup": {"median": 1.4}})
        result = compare_benchmarks(out, base)
        assert not result.ok
        regressed = [f for f in result.findings if f.get("status") == "REGRESSED"]
        assert len(regressed) == 1
        assert regressed[0]["metric"] == "speedup.median"
        assert regressed[0]["ratio"] == pytest.approx(0.5)

    def test_noise_within_band_passes(self, dirs):
        out, base = dirs
        write_bench(base, "dynamic", {"speedup": {"median": 5.0}})
        write_bench(out, "dynamic", {"speedup": {"median": 3.5}})  # ratio 0.7
        assert compare_benchmarks(out, base).ok

    def test_improvement_never_fails(self, dirs):
        out, base = dirs
        write_bench(base, "serving", {"speedup": {"median": 5.0}})
        write_bench(out, "serving", {"speedup": {"median": 50.0}})
        assert compare_benchmarks(out, base).ok

    def test_latency_metrics_compared(self, dirs):
        out, base = dirs
        write_bench(
            base,
            "latency",
            {"overload_p99_cut": 2.4, "overload_throughput_ratio": 1.0},
        )
        write_bench(
            out,
            "latency",
            {"overload_p99_cut": 1.0, "overload_throughput_ratio": 1.0},
        )
        result = compare_benchmarks(out, base)
        assert not result.ok
        regressed = {f["metric"] for f in result.findings
                     if f.get("status") == "REGRESSED"}
        assert regressed == {"overload_p99_cut"}

    def test_missing_fresh_run_is_skipped_not_failed(self, dirs):
        out, base = dirs
        out.mkdir()
        write_bench(base, "serving", {"speedup": {"median": 2.8}})
        result = compare_benchmarks(out, base)
        assert result.ok
        assert "skipped" in result.findings[0]["status"]

    def test_nan_metric_skipped_not_silently_passed(self, dirs):
        out, base = dirs
        # An idle gateway's NaN propagated into a headline metric must surface
        # as "non-finite", never as a ratio that dodges the comparison.
        write_bench(base, "latency", {"overload_p99_cut": float("nan"),
                                      "overload_throughput_ratio": 1.0})
        write_bench(out, "latency", {"overload_p99_cut": 2.0,
                                     "overload_throughput_ratio": 1.0})
        result = compare_benchmarks(out, base)
        assert result.ok
        statuses = {f["metric"]: f["status"] for f in result.findings
                    if "metric" in f}
        assert statuses["overload_p99_cut"] == "non-finite"
        assert statuses["overload_throughput_ratio"] == "ok"

    def test_rejects_nonsense_tolerance(self, dirs):
        out, base = dirs
        with pytest.raises(ValueError):
            compare_benchmarks(out, base, tolerance=1.5)


class TestRefresh:
    def test_refresh_copies_fresh_over_baselines(self, dirs):
        out, base = dirs
        write_bench(out, "serving", {"speedup": {"median": 9.0}})
        write_bench(base, "serving", {"speedup": {"median": 2.0}})
        written = refresh_baselines(out, base)
        assert [p.name for p in written] == ["BENCH_serving.json"]
        refreshed = json.loads((base / "BENCH_serving.json").read_text())
        assert refreshed["speedup"]["median"] == 9.0


class TestCli:
    def test_exit_zero_on_clean_compare(self, dirs, capsys):
        out, base = dirs
        payload = {"speedup": {"median": 2.8}}
        write_bench(out, "serving", payload)
        write_bench(base, "serving", payload)
        code = perf_main(
            ["regression", "--bench-dir", str(out), "--baselines", str(base)]
        )
        assert code == 0
        assert "[ok] regression" in capsys.readouterr().out

    def test_exit_nonzero_on_regression(self, dirs, capsys):
        out, base = dirs
        write_bench(base, "serving", {"speedup": {"median": 2.8}})
        write_bench(out, "serving", {"speedup": {"median": 1.4}})
        code = perf_main(
            ["regression", "--bench-dir", str(out), "--baselines", str(base)]
        )
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_refresh_flag_writes_baselines(self, dirs):
        out, base = dirs
        write_bench(out, "serving", {"speedup": {"median": 2.8}})
        code = perf_main(
            [
                "regression",
                "--bench-dir", str(out),
                "--baselines", str(base),
                "--refresh-baseline",
            ]
        )
        assert code == 0
        assert (base / "BENCH_serving.json").exists()


class TestTrackedBaselines:
    def test_repo_baselines_have_every_curated_metric(self):
        """The tracked snapshots carry the metrics the CI gate compares."""
        from pathlib import Path

        from repro.perf import CURATED_METRICS
        from repro.perf.regression import _lookup

        baseline_dir = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"
        tracked = {p.stem[len("BENCH_"):] for p in baseline_dir.glob("BENCH_*.json")}
        assert tracked >= set(CURATED_METRICS), (
            f"missing baseline snapshots for {set(CURATED_METRICS) - tracked}"
        )
        for name, metrics in CURATED_METRICS.items():
            payload = json.loads(
                (baseline_dir / f"BENCH_{name}.json").read_text()
            )
            for metric in metrics:
                assert _lookup(payload, metric) is not None, (
                    f"baseline {name} lacks curated metric {metric}"
                )

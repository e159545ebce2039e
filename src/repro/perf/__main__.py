"""Command-line entry: ``python -m repro.perf <command>``.

Two commands:

``report``
    Serve a small synthetic workload through a 2-shard pool, build its
    PAG and print the rendered attribution tree plus every builtin
    pass's result — the self-contained smoke report CI uploads as an
    artifact.  ``--json PATH`` additionally writes the machine-readable
    payload.

``regression``
    Compare a directory of fresh ``BENCH_*.json`` emissions against the
    tracked baselines; exits nonzero when any curated metric fell below
    the tolerance band (the CI gate), zero otherwise.
    ``--refresh-baseline`` instead copies the fresh JSONs over the
    baselines (see the refresh policy in ``docs/OBSERVABILITY.md``).

Example::

    python -m repro.perf report --json pag_report.json
    python -m repro.perf regression --bench-dir benchmarks/out \\
        --baselines benchmarks/baselines --tolerance 0.4
"""

from __future__ import annotations

import argparse
import json
import sys

from .pag import build_pag
from .passes import cache_thrash, hotspot, imbalance
from .regression import DEFAULT_TOLERANCE, compare_benchmarks, refresh_baselines


def _demo_report(json_path: str | None) -> int:
    """Serve a seeded synthetic workload and print its PAG + passes."""
    import numpy as np

    from ..gnn import make_batched_gin
    from ..graph import induced_subgraphs
    from ..graph.generators import planted_partition_graph
    from ..partition import metis_like_partition
    from ..serving import PoolConfig, ServingConfig, ServingPool

    rng = np.random.default_rng(0xA6)  # seeded: the report is reproducible
    graph = planted_partition_graph(
        384, 2400, num_communities=8, feature_dim=12, num_classes=3, rng=rng
    )
    subgraphs = induced_subgraphs(graph, metis_like_partition(graph, 8))
    model = make_batched_gin(graph.features.shape[1], 3, hidden_dim=16, seed=3)
    with ServingPool(
        model,
        ServingConfig(feature_bits=4, batch_size=4),
        pool=PoolConfig(workers=2),
    ) as pool:
        for _ in range(3):  # replays exercise the caches
            pool.serve(subgraphs)
        pag = build_pag(pool)
        results = [hotspot(pag), imbalance(pag), cache_thrash(pag)]
    print(pag.render())
    print()
    for result in results:
        print(result.render())
    if json_path:
        payload = {
            "pag": pag.to_payload(),
            "passes": [
                {
                    "name": r.name,
                    "ok": r.ok,
                    "summary": r.summary,
                    "findings": list(r.findings),
                }
                for r in results
            ],
        }
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        print(f"\nwrote {json_path}")
    return 0


def _regression(args: argparse.Namespace) -> int:
    """Run (or refresh) the benchmark-regression gate; returns exit code."""
    if args.refresh_baseline:
        written = refresh_baselines(args.bench_dir, args.baselines)
        for path in written:
            print(f"refreshed {path}")
        if not written:
            print(f"no BENCH_*.json in {args.bench_dir}", file=sys.stderr)
            return 1
        return 0
    result = compare_benchmarks(
        args.bench_dir, args.baselines, tolerance=args.tolerance
    )
    print(result.render())
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to one command; returns exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="PAG-style perf reports and the benchmark regression gate",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    report = commands.add_parser(
        "report", help="serve a synthetic workload and print its PAG report"
    )
    report.add_argument(
        "--json", default=None, help="also write the JSON payload here"
    )

    regression = commands.add_parser(
        "regression", help="compare fresh BENCH_*.json against baselines"
    )
    regression.add_argument(
        "--bench-dir",
        default="benchmarks/out",
        help="directory of fresh BENCH_*.json emissions",
    )
    regression.add_argument(
        "--baselines",
        default="benchmarks/baselines",
        help="directory of tracked baseline snapshots",
    )
    regression.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional degradation before failing (default 0.4)",
    )
    regression.add_argument(
        "--refresh-baseline",
        action="store_true",
        help="copy fresh emissions over the baselines instead of comparing",
    )

    args = parser.parse_args(argv)
    if args.command == "report":
        return _demo_report(args.json)
    return _regression(args)


if __name__ == "__main__":
    raise SystemExit(main())

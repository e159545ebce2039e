#!/usr/bin/env python3
"""Compare two sets of benchmark records, one row per (workload, metric).

    python3 benchmarks/e2e/compare.py --parent p1.json p2.json p3.json \\
                                      --change c1.json c2.json c3.json

Each file is a record ``run.py --out`` wrote.  For every end-to-end metric
of every workload the table gives each side's median and quartiles, the
metric's regression bound and a verdict:

``regressed``   the change's median is worse than the parent's by more
                than the bound;
``unresolved``  the parent's own inter-quartile spread exceeds the bound,
                so a difference of that size cannot be told from noise —
                unless every run of the change reads better than every
                run of the parent;
``improved``    the change's median is better by more than the parent's
                inter-quartile spread;
``no-worse``    anything else.

The unbounded entry-point metrics (absolute throughput and latency, from
the traced runs) follow each workload's rows for reference, without a
verdict: the host's speed moves them more than any bound allows.

Exit status is 1 when any row is ``regressed`` or ``unresolved`` — run on
two sets of runs of the *same* commit, this is the benchmark's own
repeatability check.  A gain is claimed by the alternating-pairs rule in
``README.md``, not by this table alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __package__ in (None, ""):  # run as a script: import siblings as a package
    sys.path[0] = str(Path(__file__).resolve().parent.parent)
from e2e.metrics import END_TO_END, ENTRY_POINT
from e2e.stats import quartiles

EXACT_LAYER_METRICS = ("tc.modeled_device_ms", "tc.mma_ops", "tc.tile_skip_share")


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Classify one metric on one workload; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0  # worse = sign * value grows
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    spread = p_q3 - p_q1
    worse_by = sign * (c_med - p_med)
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if spread > bound * abs(p_med) and not all_better:
        return "unresolved"
    if worse_by > bound * abs(p_med):
        return "regressed"
    if -worse_by > spread:
        return "improved"
    return "no-worse"


def load(paths: list[Path]) -> list[dict]:
    return [json.loads(path.read_text()) for path in paths]


def metric_values(records: list[dict], workload: str, section: str, name: str) -> list[float]:
    return [
        record["workloads"][workload][section][name]["value"]
        for record in records
        if name in record["workloads"].get(workload, {}).get(section, {})
    ]


def ops(records: list[dict], workload: str) -> str:
    failed = sum(r["workloads"][workload].get("ops_failed", 0) for r in records)
    attempted = sum(r["workloads"][workload].get("ops_attempted", 0) for r in records)
    return f"{failed}/{attempted}"


def winners(records: list[dict], workload: str) -> set[str]:
    """The backend with the largest share of GEMM seconds, per record."""
    out = set()
    for record in records:
        layer = record["workloads"][workload].get("per_layer", {})
        mix = {
            name.rsplit(".", 1)[1]: entry["value"]
            for name, entry in layer.items()
            if name.startswith("plan.dispatch.mix.")
        }
        if mix:
            out.add(max(mix, key=mix.get))
    return out


def compare(parent: list[dict], change: list[dict]) -> tuple[list[str], bool]:
    """The table's lines and whether every row is resolved and no worse."""
    lines = [
        f"{'workload':<16} {'metric':<12} {'parent med [q1, q3]':<36} "
        f"{'change med [q1, q3]':<36} {'bound':>5}  verdict"
    ]
    clean = True
    workloads = [w for w in parent[0]["workloads"] if all(w in r["workloads"] for r in change)]
    def cell(values: list[float]) -> str:
        q1, med, q3 = quartiles(values)
        return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"

    for workload in workloads:
        for name, _unit, better, bound in END_TO_END:
            p = metric_values(parent, workload, "end_to_end", name)
            c = metric_values(change, workload, "end_to_end", name)
            if not p or not c:
                continue
            row = verdict(p, c, better, bound)
            clean &= row in ("improved", "no-worse")
            lines.append(
                f"{workload:<16} {name:<12} {cell(p):<36} {cell(c):<36} {bound:>5.2f}  {row}"
            )
        for name, _unit, _better in ENTRY_POINT:
            p = metric_values(parent, workload, "per_layer", name)
            c = metric_values(change, workload, "per_layer", name)
            if p and c:
                lines.append(
                    f"{workload:<16} {name:<12} {cell(p):<36} {cell(c):<36} {'-':>5}  (unbounded)"
                )
        lines.append(
            f"{workload:<16} ops_failed/ops_attempted: parent {ops(parent, workload)}, "
            f"change {ops(change, workload)}"
        )
        exact = all(
            len(set(metric_values(parent + change, workload, "per_layer", name))) <= 1
            for name in EXACT_LAYER_METRICS
        )
        stale = sum(
            metric_values(parent + change, workload, "per_layer", "plan.dispatch.stale_after_settle")
        )
        lines.append(
            f"{workload:<16} ledger: tc.* exactly equal: {exact}; dispatch winners: "
            f"parent {sorted(winners(parent, workload))}, change "
            f"{sorted(winners(change, workload))}; stale plans after settle: {stale:g}"
        )
    return lines, clean


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    lines, clean = compare(load(args.parent), load(args.change))
    print("\n".join(lines))
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repo benchmark's one command.

Two ways to call it::

    # one workload, one mode, in this process; the last stdout line is a
    # JSON object {"correct", "attempted", "failed", "metrics"}
    python3 benchmarks/e2e/run.py --workload replay8 --seed 0 --seconds 15 --trace 0

    # every workload, untraced and traced, each in its own subprocess;
    # prints every metric by name and writes one JSON record
    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed N] [--out FILE] [--quick]

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that yields the per-layer ledger.
See ``README.md`` beside this file for what every name means.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, pinned before numpy is imported: the pool's workers are
# the parallelism under test, and an unpinned BLAS would fight them for
# the same two cores.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
if not (REPO / "src" / "repro").is_dir():
    sys.exit(f"benchmark needs the program under test at {REPO / 'src' / 'repro'}")
# The script's own directory leaves sys.path (its module names are generic);
# everything here is imported as the ``e2e`` package instead.
sys.path[0] = str(HERE.parent)
sys.path.insert(0, str(REPO / "src"))

from e2e import harness, metrics
from e2e.workloads import WORKLOADS


def run_all(names: list[str], seed: int, seconds: float, quick: bool, out: Path) -> int:
    """Each (workload, mode) in its own subprocess; one record out."""
    record = {"header": harness.header(seed), "run_seconds": seconds, "workloads": {}}
    ok = True
    for name in names:
        entry: dict = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            ] + (["--quick"] if quick else [])
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode:
                sys.stderr.write(done.stderr)
                print(f"{name} --trace {trace} exited with {done.returncode}")
                ok = False
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            print(f"{name} [{section}]")
            print(harness.format_metrics(result))
            entry[section] = result["metrics"]
            entry[f"{section}_correct"] = result["correct"]
            if not trace:
                entry["ops_attempted"] = result["attempted"]
                entry["ops_failed"] = result["failed"]
            ok &= result["correct"]
        record["workloads"][name] = entry
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: small inputs, one set-up, ~0.5 s windows; numbers are meaningless",
    )
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = 0.5 if args.quick else float(metrics.RUN_SECONDS)
    if args.trace is None or args.workload == "all":
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        out = args.out or harness.OUT_DIR / f"e2e_seed{args.seed}.json"
        return run_all(names, args.seed, seconds, args.quick, out)
    result = harness.run_single(
        args.workload, args.seed, seconds, bool(args.trace), args.quick
    )
    print(f"{args.workload} seed {args.seed} trace {args.trace}")
    print(harness.format_metrics(result))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

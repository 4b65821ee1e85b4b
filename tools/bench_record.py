#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics in a root `BENCH_<n>.json`.

    python3 tools/bench_record.py --runs 5 --out BENCH_1.json [--seed0 1] [--workload W ...]

Runs this checkout's `bench/run.py --seconds 15 --trace 0`, unchanged, `--runs`
times per workload (every workload of `bench/workloads.py` unless named), at
seeds `--seed0`, `--seed0 + 1`, ...; one run at a time, the workloads taking
turns. For each end-to-end metric of `BENCHMARK.json` the file gives, per
workload, the median, the quartiles and the number of runs, with the runs'
values; and how many runs were `correct` and how many operations failed.
Next to them: the machine (CPUs this process may use, Python, numpy, the
BLAS thread count the benchmark pins), the git commit and the line count of
`src/mgquant`. A run that exits non-zero or prints no result line stops the
tool with exit status 1 and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS  # noqa: E402

SECONDS = 15


def bench_run(workload: str, seed: int) -> dict:
    """One `bench/run.py` result line, as printed."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def machine() -> dict:
    import numpy as np

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        # bench/run.py pins OPENBLAS/OMP/MKL_NUM_THREADS to the CPU count
        "blas_threads": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "mgquant").glob("*.py"))


def commit() -> str | None:
    """The checkout's commit, with ``-dirty`` when its files differ from it."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    workloads = args.workload or list(WORKLOADS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    try:
        for i in range(args.runs):
            for w in workloads:
                results[w].append(bench_run(w, args.seed0 + i))
                print(f"{w} seed {args.seed0 + i}: done", file=sys.stderr)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {
        "command": f"python3 bench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "seeds": list(range(args.seed0, args.seed0 + args.runs)),
        "commit": commit(),
        "machine": machine(),
        "src_mgquant_lines": src_lines(),
        "workloads": {
            w: {
                "runs": len(runs),
                "correct_runs": sum(r["correct"] for r in runs),
                "failed_operations": sum(r["failed"] for r in runs),
                "attempted_operations": sum(r["attempted"] for r in runs),
                "metrics": {
                    m["name"]: {"unit": m["unit"], **summary(
                        [r["metrics"][m["name"]]["value"] for r in runs])}
                    for m in spec["end_to_end"] if all(m["name"] in r["metrics"] for r in runs)
                },
            }
            for w, runs in results.items()
        },
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

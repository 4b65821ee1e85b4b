#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes.

    python3 bench/selftest.py

Checks that
* both run modes produce every metric named in BENCHMARK.json for every
  workload, with no failed operation;
* corrupting one output (one code flipped, the lower Cholesky factor in place
  of the upper one) fails the matching check and counts a failed operation;
* the training-log check catches a missing row and a missed bit budget;
* without the package sources the benchmark exits non-zero and prints no result.

Prints one line per check and exits 0 when all hold (about a minute).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import checks
import mgqt
import run
from workloads import WORKLOADS, generate


def tiny(workload):
    return dataclasses.replace(
        workload, name=f"tiny-{workload.name}", layers=2, d_row=24, d_col=16, rows=128,
        files=2, batches=2,
        config={**{k: v for k, v in workload.config.items() if k != "target_bits"},
                "epochs": 2, "d_gnn": 8})


def failures(tamper) -> list[run.Result]:
    workload = tiny(WORKLOADS["stack-256"])
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = run.Runner(generate(workload, 0, work / "inputs"), work / "out", tamper)
        return [r for r in runner.round(runner.run_subprocess) if r.problems]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def flip_code(op):
    if op.kind == "quantize" and op.layer.name == "L0":
        sections = dict(mgqt.read(op.out))
        codes = sections["codes"].copy()
        codes[0, 0] ^= 1
        sections["codes"] = codes
        mgqt.write(op.out, sections)


def lower_factor(op):
    if op.kind == "hessian" and op.layer.name == "L0":
        hc = mgqt.read(op.out)["hessian_cholesky"]
        mgqt.write(op.out, {"hessian_cholesky": hc.T.copy()})


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    ok = True

    def report(passed: bool, what: str) -> None:
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {what}")

    for name in sorted(WORKLOADS):
        for trace in (False, True):
            result = run.run(tiny(WORKLOADS[name]), seed=0, seconds=0, trace=trace)
            missing = expected[trace] - set(result["metrics"])
            report(not missing and result["failed"] == 0 and result["correct"],
                   f"{name} trace={int(trace)}: {result['attempted']} operations, "
                   f"{result['failed']} failed, missing metrics {sorted(missing)}")

    failed = failures(flip_code)
    report([r.op.label for r in failed] == ["quantize L0"]
           and "scale * (codes - zero)" in failed[0].problems[0],
           f"flipped code fails quantize L0 only: {[r.op.label for r in failed]}")

    failed = failures(lower_factor)
    report(bool(failed) and failed[0].op.label == "hessian L0"
           and "upper triangular" in failed[0].problems[0],
           f"lower factor fails hessian L0 first: {[r.op.label for r in failed]}")

    header = "epoch\tlayer\thard_mean_bits"
    log = header + "\n0\t0\t2.5\n0\t1\t2.5\n1\t0\t3.0\n1\t1\t3.0\n"
    report(checks.train_log(log, 2, 2, 2.5) != [] and checks.train_log(log, 2, 2, 3.0) == []
           and checks.train_log(log.rsplit("\n", 2)[0], 2, 2, None) != [],
           "training-log check catches a missed budget and a missing row")

    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "stack-256", "--seed",
                           "0", "--seconds", "1", "--trace", "0"], cwd=bare,
                          capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    report(proc.returncode != 0 and proc.stdout == "",
           f"without src/ the benchmark exits {proc.returncode} and prints no result")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

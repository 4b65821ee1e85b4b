#!/usr/bin/env python3
"""Time each CLI command of the benchmark flow from two source trees, alternately.

    python3 tools/pair_commands.py SRC_A SRC_B --workload stack-256 --rounds 10 [--seed 1]

Each of SRC_A and SRC_B is a tree's `src` directory, the one that holds
`mgquant`. The stack's inputs are generated once through the benchmark's
`workloads.generate`; each tree then runs the flow of `compare_trees.flow`
into its own output directory, one `python -m mgquant` process per command.
Every command runs from both trees before the next one starts, and the tree
that goes first alternates from round to round. The BLAS pool is pinned to
the CPUs this process may use, as `bench/run.py` pins it.

Per command (gram, hessian, train, quantize, eval, baseline), a round's
figure is the sum over the command's processes of wall time, CPU time
(`ru_utime + ru_stime` from `os.wait4`) and minor page faults (`ru_minflt`),
and the largest `ru_maxrss`. The inputs are generated in a child process,
so this process's high-water mark, where a child's `ru_maxrss` starts, stays
below the commands' own. Printed is one Markdown table: for each tree,
the median and quartiles over rounds (the largest for max RSS), and in how
many rounds B was lower than A. A command that exits non-zero stops the run
with exit status 1.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from compare_trees import flow  # also puts bench/ on the path

from workloads import WORKLOADS, generate

FIGURES = ("wall", "cpu", "minflt", "maxrss")


def run_command(src: Path, argv: list[str]) -> dict[str, float]:
    """Run one CLI command with ``src``'s package; its wall time and resource use."""
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=nproc,
               OMP_NUM_THREADS=nproc, MKL_NUM_THREADS=nproc)
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "mgquant", *argv],
                                stdout=subprocess.DEVNULL, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        if code:
            err.seek(0)
            raise RuntimeError(f"{src}: {argv[0]} exited {code}: "
                               f"{err.read().decode().strip()[-300:]}")
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "minflt": usage.ru_minflt, "maxrss": usage.ru_maxrss / 1024.0}


def make_flows(workload: str, seed: int, work: Path) -> list[list[tuple[str, list[str]]]]:
    """Generate the stack's inputs under ``work``; each tree's flow."""
    inputs = generate(WORKLOADS[workload], seed, work / "inputs")
    return [flow(inputs, work / f"out{t}") for t in (0, 1)]


def pair(srcs: tuple[Path, Path], workload: str, seed: int, rounds: int, work: Path):
    """``figures[command][tree]``: per round, each figure of the command's processes."""
    # A command's ru_maxrss starts at this process's high-water mark, so the
    # inputs (and the reference arrays that come with them) are made elsewhere.
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        flows = pool.submit(make_flows, workload, seed, work).result()
    figures: dict = defaultdict(lambda: ([], []))
    for r in range(rounds):
        sums = defaultdict(lambda: [dict.fromkeys(FIGURES, 0.0) for _ in (0, 1)])
        for steps in zip(*flows):
            for t in ((0, 1) if r % 2 == 0 else (1, 0)):
                label, argv = steps[t]
                got, acc = run_command(srcs[t], argv), sums[label.split()[0]][t]
                for k in ("wall", "cpu", "minflt"):
                    acc[k] += got[k]
                acc["maxrss"] = max(acc["maxrss"], got["maxrss"])
        for command, per_tree in sums.items():
            for t in (0, 1):
                figures[command][t].append(per_tree[t])
        print(f"{workload} seed {seed}: round {r + 1} of {rounds}", file=sys.stderr)
    return figures


def spread(values: list[float], fmt: str) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{med:{fmt}} [{q1:{fmt}}–{q3:{fmt}}]"


def table(figures) -> list[str]:
    lines = ["| command | tree | wall s | CPU s | minor faults | max RSS MiB |",
             "|---|---|---|---|---|---|"]
    for command, per_tree in figures.items():
        for t, name in ((0, "A"), (1, "B")):
            rows = per_tree[t]
            lines.append(
                f"| {command} | {name} | {spread([r['wall'] for r in rows], '.3f')} "
                f"| {spread([r['cpu'] for r in rows], '.3f')} "
                f"| {spread([r['minflt'] for r in rows], '.0f')} "
                f"| {max(r['maxrss'] for r in rows):.1f} |")
        wins = {k: sum(b[k] < a[k] for a, b in zip(*per_tree)) for k in FIGURES}
        n = len(per_tree[0])
        lines.append(f"| {command} | B lower | {wins['wall']}/{n} | {wins['cpu']}/{n} "
                     f"| {wins['minflt']}/{n} | {wins['maxrss']}/{n} |")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    srcs = (args.src_a.resolve(), args.src_b.resolve())
    for src in srcs:
        if not (src / "mgquant" / "__init__.py").is_file():
            print(f"{src}: no mgquant package here", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as work:
        try:
            figures = pair(srcs, args.workload, args.seed, args.rounds, Path(work))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print("\n".join(table(figures)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Benchmark of the mgquant CLI flow gram -> hessian -> train -> quantize -> eval.

    python3 bench/run.py --workload stack-256 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The benchmark writes a seeded layer stack
under `bench/work/`, then runs the real CLI one subprocess per command, in
the order a user runs them: `gram` and `hessian` per layer, one `train`
over the stack, then `quantize` and `eval` per layer. Whole rounds repeat until `--seconds` have passed; each
command's outputs are checked (see checks.py). The last stdout line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones, medians over rounds.
With `--trace 1` one subprocess round is followed by two in-process rounds
through `mgquant.cli.main`, untraced and traced (see tracing.py); the
metrics are the per-layer ones, and the spans go to
`bench/work/traces/<workload>-seed<seed>.jsonl`.
"""

from __future__ import annotations

import os

# Pin the BLAS pool to the CPUs this process may use, before numpy loads it,
# for this process and every CLI process it starts.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse
import contextlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import mgqt
from tracing import ROOT as ROOT_SPAN, Tracer
from workloads import BLOCK, DAMP, WORKLOADS, Inputs, Layer, Workload, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"


@dataclass
class Op:
    """One CLI command and the check of what it printed and wrote."""

    kind: str
    layer: Layer | None
    argv: list[str]
    out: Path
    check: Callable[[dict], list[str]]

    @property
    def label(self) -> str:
        return f"{self.kind} {self.layer.name}" if self.layer else self.kind


@dataclass
class Result:
    op: Op
    wall: float
    rss_kb: int = 0
    problems: list[str] = field(default_factory=list)


def _payload(stdout: str) -> dict:
    lines = stdout.splitlines()
    if len(lines) != 1:
        raise ValueError(f"printed {len(lines)} lines, expected one JSON line")
    payload = json.loads(lines[0])
    if not isinstance(payload, dict):
        raise ValueError("stdout line is not a JSON object")
    return payload


class Runner:
    """Builds the command list for one generated stack and runs it.

    `tamper(op)` runs after a command succeeds and before its check; the
    self-test uses it to corrupt outputs.
    """

    def __init__(self, inputs: Inputs, out: Path, tamper: Callable[[Op], None] | None = None):
        self.inputs = inputs
        self.out = out
        self.tamper = tamper
        self.figures: dict[str, dict] = {}
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    # -- the command list --------------------------------------------------

    def ops(self) -> list[Op]:
        wl, out = self.inputs.workload, self.out
        ops = []
        for layer in self.inputs.layers:
            gram = out / "gram" / f"{layer.name}.mgqt"
            hess = out / "hessians" / f"{layer.name}.mgqt"
            ops.append(Op("gram", layer, ["gram", "--calib", *map(str, layer.calib_paths),
                                          "--out", str(gram)], gram,
                          lambda pl, layer=layer, f=gram: checks.gram(layer, f, pl)))
            ops.append(Op("hessian", layer, ["hessian", "--gram", str(gram), "--damp",
                                             str(DAMP), "--out", str(hess)], hess,
                          lambda pl, layer=layer, f=hess: checks.hessian(layer, f, pl)))
        params = out / "params.mgqt"
        ops.append(Op("train", None, ["train", "--weights", str(self.inputs.weights_dir),
                                      "--hessians", str(out / "hessians"), "--config",
                                      str(self.inputs.config_path), "--out", str(params)],
                      params, self._check_train))
        for layer in self.inputs.layers:
            q = out / "quant" / f"{layer.name}.mgqt"
            report = out / "reports" / f"{layer.name}.json"
            ops.append(Op("quantize", layer, [
                "quantize", "--weights", str(layer.weights_path), "--hessian",
                str(out / "hessians" / f"{layer.name}.mgqt"), "--params", str(params),
                "--block", str(BLOCK), "--precision", "f32",
                "--calib", *map(str, layer.calib_paths), "--out", str(q), "--report", str(report)],
                q, lambda pl, layer=layer, q=q, r=report: checks.quantize(
                    layer, q, pl, json.loads(r.read_text()), wl.t_max)))
        for layer in self.inputs.layers:
            q = out / "quant" / f"{layer.name}.mgqt"
            ops.append(Op("eval", layer, ["eval", "--orig", str(layer.weights_path), "--quant",
                                          str(q), "--calib", *map(str, layer.calib_paths)],
                          q, lambda pl, layer=layer, q=q: self._check_eval(layer, q, pl)))
        return ops

    def _check_train(self, payload: dict) -> list[str]:
        wl = self.inputs.workload
        problems = [f"params file lacks {k}" for k in ("w0", "w1", "wc", "bc")
                    if k not in mgqt.read(self.out / "params.mgqt")]
        log = Path(payload["log"]).read_text()
        return problems + checks.train_log(log, len(self.inputs.layers),
                                           wl.config.get("epochs", 50),
                                           wl.config.get("target_bits"))

    def _check_eval(self, layer: Layer, q: Path, payload: dict) -> list[str]:
        problems, self.figures[layer.name] = checks.evaluate(layer, q, payload)
        return problems

    # -- running -------------------------------------------------------------

    def _finish(self, result: Result, stdout: str) -> Result:
        if not result.problems:
            try:
                payload = _payload(stdout)
                if self.tamper:
                    self.tamper(result.op)
                result.problems = result.op.check(payload)
            except Exception as exc:  # any fault in the output is a failed operation
                result.problems = [f"{type(exc).__name__}: {exc}"]
        for problem in result.problems:
            print(f"FAILED {result.op.label}: {problem}", file=sys.stderr)
        return result

    def run_subprocess(self, op: Op) -> Result:
        with tempfile.TemporaryFile(dir=self.out) as so, tempfile.TemporaryFile(dir=self.out) as se:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "mgquant", *op.argv],
                                    stdout=so, stderr=se, env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            so.seek(0)
            se.seek(0)
            stdout, stderr = so.read().decode(), se.read().decode()
        result = Result(op, wall, usage.ru_maxrss)
        if proc.returncode != 0:
            result.problems = [f"exit {proc.returncode}: {stderr.strip()[-300:]}"]
        return self._finish(result, stdout)

    def run_inprocess(self, op: Op, cli_main, tracer: Tracer | None = None) -> Result:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                if tracer is None:
                    code = cli_main(op.argv)
                else:
                    tracer.command = op.label
                    with tracer.span(ROOT_SPAN):
                        code = cli_main(op.argv)
        except (Exception, SystemExit) as exc:
            code = repr(exc)
        result = Result(op, time.perf_counter() - start)
        if code != 0:
            result.problems = [f"main returned {code}"]
        return self._finish(result, buf.getvalue())

    def round(self, run_op) -> list[Result]:
        self.out.mkdir(parents=True, exist_ok=True)
        return [run_op(op) for op in self.ops()]


# -- metrics -------------------------------------------------------------------


STAGE = {"gram": "setup_s", "hessian": "setup_s", "train": "train_s",
         "quantize": "quantize_s", "eval": "eval_s"}


def round_metrics(results: list[Result]) -> dict[str, float]:
    m = dict.fromkeys(("setup_s", "train_s", "quantize_s", "eval_s"), 0.0)
    for r in results:
        m[STAGE[r.op.kind]] += r.wall
    m["total_s"] = sum(m.values())
    return m


def end_to_end(rounds: list[list[Result]]) -> dict[str, float]:
    per_round = [round_metrics(r) for r in rounds]
    metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    metrics["peak_rss_mb"] = max(r.rss_kb for rnd in rounds for r in rnd) / 1024.0
    metrics["quantized_bytes"] = sum(r.op.out.stat().st_size for r in rounds[-1]
                                     if r.op.kind == "quantize" and r.op.out.exists())
    return metrics


def per_layer(sub: list[Result], plain: list[Result], traced: list[Result],
              tracer: Tracer) -> dict[str, float]:
    metrics = tracer.metrics()
    metrics["cli.startup_s"] = sum(s.wall - p.wall for s, p in zip(sub, plain))
    metrics["trace.overhead_s"] = sum(r.wall for r in traced) - sum(r.wall for r in plain)
    return metrics


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = generate(workload, seed, work / "inputs")
        runner = Runner(inputs, work / "out")
        if not trace:
            rounds = []
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < seconds:
                rounds.append(runner.round(runner.run_subprocess))
            results = [r for rnd in rounds for r in rnd]
            values = end_to_end(rounds)
        else:
            sys.path.insert(0, str(SRC))
            from mgquant.cli import main as cli_main

            sub = runner.round(runner.run_subprocess)
            plain = runner.round(lambda op: runner.run_inprocess(op, cli_main))
            tracer = Tracer()
            with tracer.installed():
                traced = runner.round(lambda op: runner.run_inprocess(op, cli_main, tracer))
            tracer.write_jsonl(WORK / "traces" / f"{workload.name}-seed{seed}.jsonl")
            results = sub + plain + traced
            values = per_layer(sub, plain, traced, tracer)
        for name, fig in runner.figures.items():
            print(f"{workload.name} {name}: mean_bits {fig['mean_bits']:.4f} proxy_loss "
                  f"{fig['proxy_loss']:.6g} ({fig['rtn_ratio']:.3f} x round-to-nearest)",
                  file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for r in results if r.problems)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        # A name missing from `values` is left out; the self-test reports it.
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mgquant" / "cli.py").is_file():
        print(f"error: {SRC / 'mgquant'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

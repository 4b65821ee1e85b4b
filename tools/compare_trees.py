#!/usr/bin/env python3
"""Check that two source trees produce the same bytes on the benchmark's stacks.

    python3 tools/compare_trees.py [--drift] PARENT_SRC CHANGE_SRC

Each argument is a tree's `src` directory, the one that holds `mgquant`.
For every stack of `bench/workloads.py` at seeds 1 and 7, the inputs are
generated once through `workloads.generate`. Each tree then runs the CLI
flow `gram -> hessian -> train -> quantize --report -> eval --report` into
its own output directory, one process per command, with the benchmark's
damping, block size and precision; the first layer is also quantized with
`--precision f64`. After it come the reference methods, each with `--calib`
and `--report`: `baseline --method rtn` at its default 2 bits and with
`--bits 1` and `--bits 3`, and `--method gptq-uniform --bits 2`, on every
layer, and `--method mlp-ptq` with the stack's training config on the
first. Between them these run every path of the scalar quantizer: the
engine's 1-D calls at either precision, the N-D rows of `rtn` at 1 bit and
above, and the training error table.

Compared between the trees: each command's exit status and stdout line;
every file written, byte for byte (the training log among them); and each
report, with its `timing` section dropped, as that is the one part that
may vary. In stdout and reports the output directory's path reads `<out>`.
A command that exits 0 must print exactly one line holding one JSON object,
and every report must be JSON; either parse refuses NaN and Infinity, which
JSON cannot hold, and a line or file that fails it counts as a difference.
One line is printed per artifact that differs. The exit status is 1 if any does.

With `--drift`, a change that is allowed to move results at rounding level
is sized, not only found. These lines are indented, and they do not count
as differences: the other lines and the exit status are the same as
without it. Under each `.mgqt` output of `quantize` or `baseline` that
differs, one gives the share of `codes` and of `widths` that differ, and
each tree's `mean_bits` and `proxy_loss` from its stdout line, with the
relative change. For every stack and seed, one more gives each tree's
final training `hard_mean_bits` and `l_quant`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import mgqt  # noqa: E402
from workloads import BLOCK, DAMP, WORKLOADS, Inputs, generate  # noqa: E402

SEEDS = (1, 7)


def flow(inputs: Inputs, out: Path) -> list[tuple[str, list[str]]]:
    """``(label, argv)`` of every command of the flow, in the order they run."""
    cmds = []
    for layer in inputs.layers:
        gram = out / "gram" / f"{layer.name}.mgqt"
        cmds.append((f"gram {layer.name}", ["gram", "--calib", *map(str, layer.calib_paths),
                                             "--out", str(gram)]))
        cmds.append((f"hessian {layer.name}", [
            "hessian", "--gram", str(gram), "--damp", str(DAMP),
            "--out", str(out / "hessians" / f"{layer.name}.mgqt")]))
    params = out / "params.mgqt"
    cmds.append(("train", ["train", "--weights", str(inputs.weights_dir), "--hessians",
                           str(out / "hessians"), "--config", str(inputs.config_path),
                           "--out", str(params)]))
    runs = [(layer, "f32", layer.name) for layer in inputs.layers]
    runs.append((inputs.layers[0], "f64", f"{inputs.layers[0].name}-f64"))
    for layer, precision, name in runs:
        cmds.append((f"quantize {name}", [
            "quantize", "--weights", str(layer.weights_path),
            "--hessian", str(out / "hessians" / f"{layer.name}.mgqt"),
            "--params", str(params), "--block", str(BLOCK), "--precision", precision,
            "--calib", *map(str, layer.calib_paths),
            "--out", str(out / "quant" / f"{name}.mgqt"),
            "--report", str(out / "reports" / f"quantize-{name}.json")]))
    for layer in inputs.layers:
        cmds.append((f"eval {layer.name}", [
            "eval", "--orig", str(layer.weights_path),
            "--quant", str(out / "quant" / f"{layer.name}.mgqt"),
            "--calib", *map(str, layer.calib_paths),
            "--report", str(out / "reports" / f"eval-{layer.name}.json")]))
    for i, layer in enumerate(inputs.layers):
        methods = {"rtn": ["rtn"], "rtn-1": ["rtn", "--bits", "1"],
                   "rtn-3": ["rtn", "--bits", "3"], "gptq-uniform": ["gptq-uniform", "--bits", "2"]}
        if i == 0:
            methods["mlp-ptq"] = ["mlp-ptq", "--config", str(inputs.config_path)]
        for label, method in methods.items():
            name = f"{label}-{layer.name}"
            cmds.append((f"baseline {name}", [
                "baseline", "--method", *method, "--weights", str(layer.weights_path),
                "--hessian", str(out / "hessians" / f"{layer.name}.mgqt"),
                "--calib", *map(str, layer.calib_paths),
                "--out", str(out / "baseline" / f"{name}.mgqt"),
                "--report", str(out / "reports" / f"baseline-{name}.json")]))
    return cmds


def strict_json(text: str):
    """``text`` as JSON, or None where it is not JSON or holds NaN or Infinity."""
    def refuse(constant):
        raise ValueError(constant)

    try:
        return json.loads(text, parse_constant=refuse)
    except ValueError:
        return None


def one_object(stdout: str) -> bool:
    """Whether ``stdout`` is exactly one line holding one JSON object."""
    line, newline, rest = stdout.partition("\n")
    return bool(newline) and not rest and isinstance(strict_json(line), dict)


def run(src: Path, inputs: Inputs, out: Path) -> dict[str, str]:
    """Run the flow with ``src``'s package; each command's exit status and stdout."""
    env = dict(os.environ, PYTHONPATH=str(src))
    printed = {}
    for label, argv in flow(inputs, out):
        proc = subprocess.run([sys.executable, "-m", "mgquant", *argv], env=env,
                              capture_output=True, text=True)
        printed[label] = f"exit {proc.returncode}: " + proc.stdout.replace(str(out), "<out>")
    return printed


def contents(out: Path, rel: Path):
    """A written file as compared: a report with ``out`` replaced by ``<out>`` and
    without its timing (None if it is not strict JSON), else its bytes."""
    path = out / rel
    if path.suffix == ".json":
        report = strict_json(path.read_text().replace(str(out), "<out>"))
        if not isinstance(report, dict):
            return None
        report.pop("timing", None)
        return json.dumps(report, sort_keys=True)
    return path.read_bytes()


def stdout_fields(printed: str, keys: tuple[str, ...]) -> list:
    """The values of ``keys`` in a command's stdout line (None where it has none)."""
    _, _, stdout = printed.partition(": ")
    line = strict_json(stdout)
    return [line.get(k) if isinstance(line, dict) else None for k in keys]


def moved(printed: list[str], keys: tuple[str, ...]) -> str:
    """``key parent -> change (relative change)`` for each of ``keys`` in the
    stdout lines ``printed`` of one command in both trees."""
    parts = []
    for key, a, b in zip(keys, *(stdout_fields(p, keys) for p in printed)):
        numbers = all(isinstance(v, (int, float)) for v in (a, b)) and a
        parts.append(f"{key} {a!r} -> {b!r}" + (f" ({(b - a) / abs(a):+.2e})" if numbers else ""))
    return ", ".join(parts)


def drift(outs: list[Path], rel: Path, printed: list[dict[str, str]]) -> str | None:
    """The drift line of a differing quantized output, or None for any other file."""
    command = {"quant": "quantize", "baseline": "baseline"}.get(rel.parts[0])
    if command is None or rel.suffix != ".mgqt":
        return None
    both = [mgqt.read(o / rel) for o in outs]
    shares = []
    for name in ("codes", "widths"):
        a, b = (sections.get(name) for sections in both)
        same_shape = a is not None and b is not None and a.shape == b.shape
        shares.append(f"{name} {f'{np.mean(a != b):.2%}' if same_shape else 'unmatched'} differ")
    label = f"{command} {rel.stem}"
    return f"    {', '.join(shares)}; " + moved([p[label] for p in printed],
                                              ("mean_bits", "proxy_loss"))


def differences(parent: Path, change: Path, work: Path, sized: bool = False) -> list[str]:
    found = []
    for name in WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(dir=work) as tmp:
                tmp = Path(tmp)
                inputs = generate(WORKLOADS[name], seed, tmp / "inputs")
                outs = [tmp / "parent", tmp / "change"]
                printed = [run(src, inputs, out) for src, out in zip((parent, change), outs)]
                where = f"{name} seed {seed}"
                for label in printed[0]:
                    for tree, text in zip(("parent", "change"), (p[label] for p in printed)):
                        head, _, stdout = text.partition(": ")
                        if head == "exit 0" and not one_object(stdout):
                            found.append(f"{where}: stdout of {label} in {tree} is not one "
                                         "JSON object")
                    if printed[0][label] != printed[1][label]:
                        found.append(f"{where}: stdout of {label} differs")
                    elif not printed[0][label].startswith("exit 0:"):
                        found.append(f"{where}: {label} failed in both trees")
                files = [{p.relative_to(o) for p in o.rglob("*") if p.is_file()} for o in outs]
                for rel in sorted(files[0] ^ files[1]):
                    found.append(f"{where}: {rel} written by one tree only")
                for rel in sorted(files[0] & files[1]):
                    both = [contents(o, rel) for o in outs]
                    for tree, content in zip(("parent", "change"), both):
                        if content is None:
                            found.append(f"{where}: {rel} in {tree} is not strict JSON")
                    if both[0] != both[1]:
                        found.append(f"{where}: {rel} differs")
                        line = drift(outs, rel, printed) if sized else None
                        if line:
                            found.append(line)
                if sized:
                    found.append(f"    {where}: train final " + moved(
                        [p["train"] for p in printed], ("hard_mean_bits", "l_quant")))
            print(f"{name} seed {seed}: compared", file=sys.stderr)
    return found


def main(argv: list[str]) -> int:
    sized = "--drift" in argv
    argv = [a for a in argv if a != "--drift"]
    if len(argv) != 2:
        print("usage: compare_trees.py [--drift] PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    for src in (parent, change):
        if not (src / "mgquant" / "__init__.py").is_file():
            print(f"{src}: no mgquant package here", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as work:
        found = differences(parent, change, Path(work), sized)
    for line in found:
        print(line)
    return 1 if any(not line.startswith(" ") for line in found) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

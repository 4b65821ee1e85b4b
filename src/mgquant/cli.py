"""Command-line surface.

Subcommands (README, "CLI"): ``gram``, ``hessian``, ``train``, ``quantize``,
``baseline`` and ``eval``.

Every file a command reads has a role in :data:`ROLES`, and :data:`INPUTS`
gives each input flag's role (README, "File roles"). A command checks its
flags, its output paths (none a directory), all its inputs' headers, then the
payloads' contents, and only then works. It returns ``(files, payload)``:
each output path, in write order, with the tensor sections or bytes that go
there, and its stdout object. :func:`main` alone writes the files and then
prints the object as one JSON line, so a command that fails writes nothing.

Diagnostics go to stderr, one line. Exit codes (:data:`EXIT_CODES`): 0
success, 2 usage/validation, 3 malformed data file, 4 numeric failure (a
Gram that is not positive definite, or NaN/Inf in an output). Each command
imports only the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Iterator
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .calibration import GramAccumulator, build_hessian_cholesky, proxy_loss
from .linalg import NotPositiveDefiniteError
from .tensorfile import (TensorFileError, read_tensor_file, read_tensor_headers, write_atomic,
                         write_tensor_file)

if TYPE_CHECKING:
    from .gptq import QuantResult

__all__ = ["main", "console_main"]

#: The ``baseline --method`` choices, which :class:`mgquant.baselines.BaselineSpec`
#: also checks; defined here so building the parser loads no quantizer.
METHODS = ("rtn", "gptq-uniform", "mlp-ptq")

#: The exit code of each error a command reports, the first that matches; argparse
#: exits 2 on its own. :class:`NotPositiveDefiniteError` is an ``ArithmeticError``.
EXIT_CODES = {TensorFileError: 3, ArithmeticError: 4, ValueError: 2, OSError: 2}


# bench/tracing.py wraps these three names on this module, so each stays a
# module-level function that loads its module on the first call.
def quantize_with_allocator(*args, **kwargs):
    from . import pipeline
    return pipeline.quantize_with_allocator(*args, **kwargs)


def result_to_sections(result: QuantResult) -> dict[str, np.ndarray]:
    from . import pipeline
    return pipeline.result_to_sections(result)


def train(*args, **kwargs):
    from . import training
    return training.train(*args, **kwargs)


class Role(NamedTuple):
    """A file role: ``sections`` maps each section it reads (``"*"``: every
    section, whatever its name) to a shape, float32 or float64 of that rank.
    A length is ``None`` (any), a numeral (exactly that) or named: at least 1
    and alike in one layer's files, with ``empty`` and ``differs`` the words
    for a 0 and for a length other than the first file's. ``only`` refuses
    any other section."""

    sections: dict[str, tuple[str | None, ...]]
    empty: str = "{path}: {label} has no {dim}, got {shape}"
    differs: str = "{path}: {label} {shape} does not match the {want} {dim} of {source}"
    only: bool = False


#: Every file role a command reads (README, "File roles").
ROLES = {
    "weights": Role({"weights": ("rows", "columns")}, empty="{path}: weights must have "
                    "at least one row and one column, got shape {shape}"),
    "calib": Role({"*": (None, "columns")},
                  differs="{path}: {label} has {got} columns, expected {want}"),
    "gram": Role({"gram": ("columns", "columns"), "samples": ("1",)},
                 differs="{path}: gram must be square and non-empty, got shape {shape}"),
    "factor": Role({"hessian_cholesky": ("columns", "columns")},
                   differs="{path}: factor {shape} does not match the {want} {dim} of {source}"),
    "params": Role({"w0": ("features", "hidden units"), "w1": ("hidden units", "hidden units"),
                    "wc": ("hidden units", "widths"), "bc": ("widths",)}, only=True),
    "quantized": Role({"quantized": ("rows", "columns")}),
}

#: Each command's input flags, in the order they are checked, with their roles.
#: ``train``'s name directories of weights and factor files, paired by name.
INPUTS = {
    "gram": {"calib": "calib"},
    "hessian": {"gram": "gram"},
    "train": {"weights": "weights", "hessians": "factor"},
    "quantize": {"weights": "weights", "hessian": "factor", "params": "params", "calib": "calib"},
    "baseline": {"weights": "weights", "hessian": "factor", "calib": "calib"},
    "eval": {"orig": "weights", "quant": "quantized", "calib": "calib"},
}


def check_sections(role: str, path: str, heads: dict, lengths: dict) -> None:
    """Check one file's ``{name: (dtype, shape)}`` against ``ROLES[role]``. ``lengths``
    maps each named length that earlier files of the layer gave to ``(length, path)``."""
    spec = ROLES[role]
    missing = [name for name in spec.sections if name != "*" and name not in heads]
    if missing:
        raise ValueError(f"{path}: missing {missing[0]!r} section")
    for name, (dtype, shape) in heads.items():
        dims = spec.sections.get(name, spec.sections.get("*"))
        label = repr(name) if name in spec.sections else f"section {name!r}"
        if dims is None and spec.only:
            raise ValueError(f"{path}: unexpected section {name!r}")
        if dims is None:
            continue
        if dtype.kind != "f":
            raise ValueError(f"{path}: {label} must be float32 or float64, got {dtype}")
        if len(shape) != len(dims):
            raise ValueError(f"{path}: {label} must be {len(dims)}-D, got {shape}")
        for dim, got in zip(dims, shape):
            if dim and dim.isdigit() and got != int(dim):
                raise ValueError(f"{path}: {label} must have length {dim}, got {shape}")
            want, source = lengths.setdefault(dim, (got, path)) if dim else (got, path)
            if dim and (not got or got != want):
                raise ValueError((spec.differs if got else spec.empty).format(
                    path=path, label=label, shape=shape, dim=dim, got=got, want=want,
                    source=source))


def _check_outputs(args) -> None:
    """Refuse an output flag of ``args`` that names a directory, which no write can replace."""
    for path in filter(None, (getattr(args, flag, None) for flag in ("out", "report", "log"))):
        if os.path.isdir(path):
            raise ValueError(f"{path}: is a directory")


def _check(args) -> _CalibFiles:
    """Check the output paths of ``args``, then the files that its input flags
    name, in :data:`INPUTS` order, from their headers alone as the files of one
    layer; return its ``--calib`` files as one stream. A file that cannot be
    opened is reported here, before any payload is read."""
    _check_outputs(args)
    heads, lengths = {}, {}
    for flag, role in INPUTS[args.command].items():
        paths = getattr(args, flag)
        for path in paths if isinstance(paths, list) else [paths]:
            heads[path] = read_tensor_headers(path)
            check_sections(role, path, heads[path], lengths)
    return _CalibFiles(getattr(args, "calib", []), heads)


def _factor(path: str) -> np.ndarray:
    """The factor of a file whose headers passed, its contents checked."""
    hc = read_tensor_file(path)["hessian_cholesky"]
    bad = np.flatnonzero(~(np.diagonal(hc) > 0))
    if bad.size:
        raise ValueError(f"{path}: 'hessian_cholesky' diagonal must be positive (entry {bad[0]})")
    # A lower factor or the full inverse would pass the diagonal check and silently skip
    # compensation, which reads only the upper part. 128 rows at a time: np.tril copies.
    if any(np.tril(hc[r : r + 128, : r + 128], r - 1).any() for r in range(0, len(hc), 128)):
        raise ValueError(f"{path}: 'hessian_cholesky' has non-zero entries below the diagonal")
    return hc


class _CalibFiles:
    """The sections of ``--calib`` files whose headers passed, as one stream of
    batches that must hold a row. Iterating reads the files in order and yields
    their sections one at a time; each section leaves its file's dict as it is
    yielded, so no more than one file is held."""

    def __init__(self, paths: list[str], heads: dict):
        shapes = [shape for path in paths for _, shape in heads[path].values()]
        self.paths, self.d_col = paths, shapes[0][1] if shapes else None
        self.total_rows = sum(shape[0] for shape in shapes)
        if paths and not self.total_rows:
            raise ValueError(f"{' '.join(paths)}: calibration files hold no rows")

    def __iter__(self) -> Iterator[np.ndarray]:
        for path in self.paths:
            sections = read_tensor_file(path)
            while sections:
                # held by no name here while the caller runs
                yield sections.pop(next(iter(sections)))


def _report(path: str, report: dict) -> bytes:
    """``report``'s bytes; a NaN or Inf in it is a numeric failure of ``path``."""
    from .report import dump_report
    try:
        return dump_report(report).encode()
    except ValueError:  # json's refusal of NaN and Infinity
        raise FloatingPointError(f"{path}: contains NaN/Inf") from None


def cmd_gram(args) -> tuple[dict, dict]:
    calib = _check(args)
    acc = GramAccumulator(d_col=calib.d_col)
    for batch in calib:
        acc.accumulate(batch)
        del batch  # keep no folded batch alive while the next file is read
    return ({args.out: {"gram": acc.gram, "samples": np.array([float(acc.samples_seen)])}},
            {"out": args.out, "d_col": acc.d_col, "samples": acc.samples_seen})


def cmd_hessian(args) -> tuple[dict, dict]:
    if not 0 <= args.damp < np.inf:  # NaN fails too
        raise ValueError(f"damp_frac must be finite and >= 0, got {args.damp}")
    _check(args)
    sections = read_tensor_file(args.gram)
    samples = sections.pop("samples")[0]
    if not (samples > 0 and float(samples).is_integer()):
        raise ValueError(f"{args.gram}: 'samples' must hold one positive whole number")
    try:
        hc = build_hessian_cholesky(sections.pop("gram"), damp_frac=args.damp)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(exc.pivot, f"{args.gram}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{args.gram}: {exc}") from None
    return ({args.out: {"hessian_cholesky": hc}},
            {"out": args.out, "d_col": hc.shape[0], "damp": args.damp})


class _LayerFiles(list):
    """``train``'s layers: the ``--weights`` and ``--hessians`` files paired by
    name, each pair checked from its headers as one layer's files. Indexing
    reads a pair's arrays, as stored, every time; iterating yields the paths."""

    def __init__(self, weights_dir: str, hessians_dir: str):
        wdir, hdir = Path(weights_dir), Path(hessians_dir)
        for d in (wdir, hdir):
            if not d.is_dir():
                raise ValueError(f"{d}: not a directory")
        wfiles = {p.stem: p for p in sorted(wdir.glob("*.mgqt"))}
        hfiles = {p.stem: p for p in sorted(hdir.glob("*.mgqt"))}
        only_w, only_h = sorted(set(wfiles) - set(hfiles)), sorted(set(hfiles) - set(wfiles))
        if only_w or only_h:
            raise ValueError(f"unpaired layer files: weights-only {only_w}, hessians-only {only_h}")
        if not wfiles:
            raise ValueError(f"no .mgqt layer files found in {wdir}")
        super().__init__((str(wfiles[stem]), str(hfiles[stem])) for stem in sorted(wfiles))
        for wp, hp in self:
            _check(argparse.Namespace(command="train", weights=wp, hessians=hp))

    def __getitem__(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        wp, hp = super().__getitem__(i)
        return read_tensor_file(wp)["weights"], _factor(hp)


def cmd_train(args) -> tuple[dict, dict]:
    from .pipeline import params_to_sections
    from .training import TrainConfig, TrainingLogRecord, format_training_log, load_run_config

    args.log = args.log or args.out + ".log"
    cfg = load_run_config(args.config) if args.config else TrainConfig()
    _check_outputs(args)
    params, records = train(_LayerFiles(args.weights, args.hessians), cfg, arch="gcn")
    last = records[-1] if records else None
    floats = [f.name for f in fields(TrainingLogRecord) if f.type == "float"]  # losses, mean bits
    return ({args.out: params_to_sections(params), args.log: format_training_log(records).encode()},
            {**{k: getattr(last, k, None) for k in floats}, "out": args.out, "log": args.log})


def _layer_outputs(args, w: np.ndarray, calib: _CalibFiles, result: QuantResult,
                   allocator_time: float, t_max: int, seed: int, config_echo: dict,
                   **stdout) -> tuple[dict, dict]:
    """Take the proxy loss (untimed); return the layer, the report and the stdout of a command."""
    from .report import build_report, layer_entry

    loss = proxy_loss(w, result.quantized, calib) if calib.paths else None
    files = {args.out: result_to_sections(result)} if args.out else {}
    name = Path(args.weights).stem
    entry = layer_entry(name, result, loss, t_max)
    if args.report:
        total = allocator_time + result.wall_time
        row = {"name": name, "allocator_time": allocator_time,
               "engine_time": result.wall_time, "wall_time": total}
        timing = {"layers": [row], "total_wall_time": total}
        files[args.report] = _report(args.report, build_report(seed, config_echo, [entry], timing))
    return files, {**stdout, "out": args.out, "report": args.report,
                   "mean_bits": entry["mean_bits"], "proxy_loss": entry["proxy_loss"]}


def cmd_quantize(args) -> tuple[dict, dict]:
    from .pipeline import params_from_sections

    if args.block < 1:
        raise ValueError(f"block_size must be >= 1, got {args.block}")
    calib = _check(args)
    # The engine works in the chosen precision; the proxy loss, as in `eval`, on the stored weights.
    dtype = np.float32 if args.precision == "f32" else np.float64
    stored = read_tensor_file(args.weights)["weights"]
    w, hc = stored.astype(dtype, copy=False), _factor(args.hessian).astype(dtype, copy=False)
    try:
        params = params_from_sections(read_tensor_file(args.params))
    except ValueError as exc:
        raise ValueError(f"{args.params}: {exc}") from None
    result, allocator_time = quantize_with_allocator(w, hc, params, args.block, dtype)
    echo = {"command": "quantize", "block_size": args.block, "precision": args.precision,
            "params": Path(args.params).name}
    return _layer_outputs(args, stored, calib, result, allocator_time, params.t_max, 0, echo)


def cmd_baseline(args) -> tuple[dict, dict]:
    from .baselines import BaselineSpec, run_baseline
    from .training import TrainConfig, load_run_config

    cfg = load_run_config(args.config) if args.config else TrainConfig()
    spec = BaselineSpec(method=args.method, bits=args.bits, target_bits=args.target_bits)
    if spec.method == "mlp-ptq":
        spec.training_config(cfg)  # its budget, checked before any input is read
    calib = _check(args)
    w, hc = read_tensor_file(args.weights)["weights"], _factor(args.hessian)
    start = time.perf_counter()
    result = run_baseline(spec, w, hc, cfg=cfg)
    # Time outside the engine: choosing the widths (mlp-ptq's training).
    outside = time.perf_counter() - start - result.wall_time
    echo = {"command": "baseline", "method": spec.method, "bits": spec.bits,
            "target_bits": spec.target_bits, "block_size": cfg.block_size}
    return _layer_outputs(args, w, calib, result, outside, cfg.t_max, cfg.seed, echo,
                          method=spec.method)


def cmd_eval(args) -> tuple[dict, dict]:
    calib = _check(args)
    w, q = read_tensor_file(args.orig)["weights"], read_tensor_file(args.quant)["quantized"]
    loss = proxy_loss(w, q, calib)
    diff = np.subtract(w, q, dtype=np.float64)
    payload = {"proxy_loss": loss, "max_abs_error": float(np.max(np.abs(diff, out=diff))),
               "orig": args.orig, "quant": args.quant}
    files = {}
    if args.report:
        files[args.report] = _report(args.report, {"schema": "mgquant-eval-v1", "metrics": payload})
    return files, payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mgquant", description="Mixed-precision weight "
                                     "quantization with a graph-network bit allocator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gram", help="accumulate the calibration Gram matrix")
    p.add_argument("--calib", nargs="+", required=True, help="calibration tensor files")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("hessian", help="damped inverse-Gram Cholesky factor")
    p.add_argument("--gram", required=True)
    p.add_argument("--damp", type=float, default=0.01)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_hessian)

    p = sub.add_parser("train", help="train the bit-width allocator")
    p.add_argument("--weights", required=True, help="directory of layer weight files")
    p.add_argument("--hessians", required=True, help="directory of matching hessian files")
    p.add_argument("--config", help="JSON training config")
    p.add_argument("--out", required=True, help="output allocator parameter file")
    p.add_argument("--log", help="training log path (default: <out>.log)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("quantize", help="allocate widths and quantize one layer")
    p.add_argument("--weights", required=True)
    p.add_argument("--hessian", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--block", type=int, default=128)
    p.add_argument("--precision", choices=("f32", "f64"), default="f32")
    p.add_argument("--calib", nargs="*", default=[])
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("baseline", help="run a reference quantizer")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--bits", type=int, default=2)
    p.add_argument("--target-bits", type=float, default=None)
    p.add_argument("--weights", required=True)
    p.add_argument("--hessian", required=True)
    p.add_argument("--calib", nargs="*", default=[])
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--report")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("eval", help="compare original vs quantized weights")
    p.add_argument("--orig", required=True)
    p.add_argument("--quant", required=True)
    p.add_argument("--calib", nargs="+", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run a command with numpy's floating-point warnings off, refuse NaN/Inf in
    its outputs, write its files in order, print its JSON line; return the exit
    code. A command's one tensor file is its first, so a refused section leaves
    no file written."""
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            files, payload = args.func(args)
        try:
            line = json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
        except ValueError:
            raise FloatingPointError("stdout: contains NaN/Inf") from None
        for path, content in files.items():
            if isinstance(content, bytes):
                write_atomic(path, content)
                continue
            try:
                write_tensor_file(path, content)
            except ValueError as exc:  # the writer refuses NaN/Inf in a section before writing
                raise FloatingPointError(f"{path}: {exc}") from None
        sys.stdout.write(line)
        return 0
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


def keep_freed_heap(libc=None) -> None:
    """Pin the mmap threshold of ``libc`` (by default this process's C library)
    at 32 MiB and its trim threshold at 64 MiB through ``mallopt``; a silent
    no-op where it has no ``mallopt``. See :func:`console_main`."""
    import ctypes

    if libc is None and os.name == "posix":
        libc = ctypes.CDLL(None)
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def console_main() -> None:
    """Run :func:`main` as a process: pin the heap policy (README, "CLI"), flush
    the command's output, then skip interpreter teardown (every file a command
    writes is closed by then). An exception that escapes :func:`main`,
    argparse's ``SystemExit`` among them, exits the normal way. :func:`main`
    and library callers keep glibc's heap policy."""
    keep_freed_heap()
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_main()

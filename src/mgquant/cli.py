"""Command-line surface.

Subcommands: ``gram`` (accumulate calibration Gram), ``hessian`` (damped
inverse-Gram Cholesky factor), ``train`` (fit the allocator over a layer
directory), ``quantize`` (allocate widths + blockwise quantize), ``baseline``
(reference methods) and ``eval`` (compare original vs quantized).

stdout carries exactly one JSON line per successful command; diagnostics go
to stderr. Exit codes: 0 success, 2 usage/validation, 3 malformed data
file, 4 numeric failure (e.g. a Gram that is not positive definite).
Each command imports only the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Iterator
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .calibration import GramAccumulator, build_hessian_cholesky, proxy_loss
from .linalg import NotPositiveDefiniteError
from .tensorfile import (
    TensorFileError,
    read_tensor_file,
    read_tensor_headers,
    write_atomic,
    write_tensor_file,
)

if TYPE_CHECKING:
    from .gptq import QuantResult

__all__ = ["main", "console_main"]

#: The ``baseline --method`` choices, which :class:`mgquant.baselines.BaselineSpec`
#: also checks; defined here so building the parser loads no quantizer.
METHODS = ("rtn", "gptq-uniform", "mlp-ptq")


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


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _read(path: str, *names: str) -> dict[str, np.ndarray]:
    """The sections of a tensor file that must hold every section in ``names``, as floats."""
    sections = read_tensor_file(path)
    for name in names:
        if name not in sections:
            raise ValueError(f"{path}: missing {name!r} section")
        if sections[name].dtype.kind != "f":
            raise ValueError(f"{path}: {name!r} must be float32 or float64, "
                             f"got {sections[name].dtype}")
    return sections


def _load_weights(path: str) -> np.ndarray:
    w = _read(path, "weights")["weights"]
    if w.ndim != 2:
        raise ValueError(f"{path}: 'weights' must be 2-D, got shape {w.shape}")
    if not w.size:
        raise ValueError(
            f"{path}: weights must have at least one row and one column, got shape {w.shape}"
        )
    return w


def _load_hessian(path: str) -> np.ndarray:
    hc = _read(path, "hessian_cholesky")["hessian_cholesky"]
    if hc.ndim != 2 or hc.shape[0] != hc.shape[1]:
        raise ValueError(f"{path}: 'hessian_cholesky' must be square, got {hc.shape}")
    bad = np.flatnonzero(~(np.diagonal(hc) > 0))
    if bad.size:
        raise ValueError(f"{path}: 'hessian_cholesky' diagonal must be positive (entry {bad[0]})")
    # A lower factor or the full inverse would pass the diagonal check above
    # and silently skip compensation, which reads only the upper part.
    # Checked 128 rows at a time: a whole np.tril would copy the factor.
    if any(np.tril(hc[r : r + 128, : r + 128], r - 1).any() for r in range(0, len(hc), 128)):
        raise ValueError(f"{path}: 'hessian_cholesky' has non-zero entries below the diagonal")
    return hc


def _load_layer(weights: str, hessian: str) -> tuple[np.ndarray, np.ndarray]:
    """A layer's weights and factor, the factor sized to the weights' columns."""
    w, hc = _load_weights(weights), _load_hessian(hessian)
    if len(hc) != w.shape[1]:
        raise ValueError(f"{hessian}: factor {hc.shape} does not match "
                         f"the {w.shape[1]} columns of {weights}")
    return w, hc


class _CalibFiles:
    """The sections of the ``--calib`` files as one stream of batches.

    Built from the files' headers alone, skipping the payloads: every section
    must be 2-D float, with ``d_col`` columns if given, else with the column
    count of the first, and the files (if any) must hold at least one row
    between them. ``d_col`` and ``total_rows`` are then the stream's.
    Iterating reads the files in order and yields their sections one at a
    time; each section leaves its file's dict as it is yielded, so no more
    than one file is held.
    """

    def __init__(self, paths: list[str], d_col: int | None = None):
        self.paths = paths
        self.total_rows = 0
        for path in paths:
            for name, (dtype, shape) in read_tensor_headers(path).items():
                if len(shape) != 2:
                    raise ValueError(f"{path}: section {name!r} must be 2-D, got {shape}")
                if dtype.kind != "f":
                    raise ValueError(f"{path}: section {name!r} must be float32 or float64, "
                                     f"got {dtype}")
                d_col = shape[1] if d_col is None else d_col
                if shape[1] != d_col:
                    raise ValueError(
                        f"{path}: section {name!r} has {shape[1]} columns, expected {d_col}"
                    )
                self.total_rows += shape[0]
        if paths and not self.total_rows:
            raise ValueError(f"{' '.join(paths)}: calibration files hold no rows")
        self.d_col = d_col

    def __iter__(self) -> Iterator[np.ndarray]:
        for path in self.paths:
            sections = read_tensor_file(path)
            while sections:
                # held by no name here while the caller runs
                yield sections.pop(next(iter(sections)))


def cmd_gram(args) -> int:
    calib = _CalibFiles(args.calib)
    acc = GramAccumulator(d_col=calib.d_col)
    for batch in calib:
        acc.accumulate(batch)
        del batch  # keep no folded batch alive while the next file is read
    write_tensor_file(
        args.out,
        {"gram": acc.gram, "samples": np.array([float(acc.samples_seen)])},
    )
    _emit({"out": args.out, "d_col": acc.d_col, "samples": acc.samples_seen})
    return 0


def cmd_hessian(args) -> int:
    if not 0 <= args.damp < np.inf:  # NaN fails too
        raise ValueError(f"damp_frac must be finite and >= 0, got {args.damp}")
    sections = _read(args.gram, "gram", "samples")
    samples = sections.pop("samples")
    if samples.size != 1 or not (samples.flat[0] > 0 and float(samples.flat[0]).is_integer()):
        raise ValueError(f"{args.gram}: 'samples' must hold one positive whole number")
    try:
        hc = build_hessian_cholesky(sections.pop("gram"), damp_frac=args.damp)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(exc.pivot, f"{args.gram}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{args.gram}: {exc}") from None
    write_tensor_file(args.out, {"hessian_cholesky": hc})
    _emit({"out": args.out, "d_col": hc.shape[0], "damp": args.damp})
    return 0


def _paired_layers(weights_dir: str, hessians_dir: str) -> list[tuple[Path, Path]]:
    wdir, hdir = Path(weights_dir), Path(hessians_dir)
    if not wdir.is_dir():
        raise ValueError(f"{wdir}: not a directory")
    if not hdir.is_dir():
        raise ValueError(f"{hdir}: not a directory")
    wfiles = {p.stem: p for p in sorted(wdir.glob("*.mgqt"))}
    hfiles = {p.stem: p for p in sorted(hdir.glob("*.mgqt"))}
    only_w = sorted(set(wfiles) - set(hfiles))
    only_h = sorted(set(hfiles) - set(wfiles))
    if only_w or only_h:
        raise ValueError(
            f"unpaired layer files: weights-only {only_w}, hessians-only {only_h}"
        )
    if not wfiles:
        raise ValueError(f"no .mgqt layer files found in {wdir}")
    return [(wfiles[stem], hfiles[stem]) for stem in sorted(wfiles)]


class _LayerFiles:
    """``train``'s (weights, factor) pairs, each read from its files, as
    stored, every time it is indexed."""

    def __init__(self, pairs: list[tuple[Path, Path]]):
        self.pairs = pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        wp, hp = self.pairs[i]
        return _load_layer(str(wp), str(hp))


def cmd_train(args) -> int:
    from .pipeline import params_to_sections
    from .training import TrainConfig, format_training_log, load_run_config

    cfg = load_run_config(args.config) if args.config else TrainConfig()
    layers = _LayerFiles(_paired_layers(args.weights, args.hessians))
    params, records = train(layers, cfg, arch="gcn")
    write_tensor_file(args.out, params_to_sections(params))
    log_path = args.log or (args.out + ".log")
    write_atomic(log_path, format_training_log(records).encode())
    last = records[-1] if records else None
    fields = ("l_quant", "l_bit", "total", "hard_mean_bits", "soft_mean_bits")
    _emit({**{k: getattr(last, k, None) for k in fields}, "out": args.out, "log": log_path})
    return 0


def _write_layer(args, w: np.ndarray, calib: _CalibFiles, result: QuantResult,
                 allocator_time: float, t_max: int, seed: int, config_echo: dict,
                 **stdout) -> int:
    """Take the proxy loss (untimed) and write the layer, report and JSON line of a command."""
    from .report import build_report, layer_entry, write_report

    loss = proxy_loss(w, result.quantized, calib) if calib.paths else None
    if args.out:
        write_tensor_file(args.out, result_to_sections(result))
    name = Path(args.weights).stem
    entry = layer_entry(name, result, loss, t_max)
    if args.report:
        total = allocator_time + result.wall_time
        row = {"name": name, "allocator_time": allocator_time,
               "engine_time": result.wall_time, "wall_time": total}
        timing = {"layers": [row], "total_wall_time": total}
        write_report(args.report, build_report(seed, config_echo, [entry], timing))
    _emit({**stdout, "out": args.out, "report": args.report,
           "mean_bits": entry["mean_bits"], "proxy_loss": entry["proxy_loss"]})
    return 0


def cmd_quantize(args) -> int:
    from .pipeline import params_from_sections

    # The engine works in the chosen precision. The proxy loss, as in
    # `eval`, is against the stored weights.
    dtype = np.float32 if args.precision == "f32" else np.float64
    stored, hc = _load_layer(args.weights, args.hessian)
    w, hc = stored.astype(dtype, copy=False), hc.astype(dtype, copy=False)
    calib = _CalibFiles(args.calib, w.shape[1])
    sections = _read(args.params, "w0", "w1", "wc", "bc")
    try:
        params = params_from_sections(sections)
    except ValueError as exc:
        raise ValueError(f"{args.params}: {exc}") from None
    result, allocator_time = quantize_with_allocator(w, hc, params, args.block, dtype)
    echo = {"command": "quantize", "block_size": args.block, "precision": args.precision,
            "params": Path(args.params).name}
    return _write_layer(args, stored, calib, result, allocator_time, params.t_max, 0, echo)


def cmd_baseline(args) -> int:
    from .baselines import BaselineSpec, run_baseline
    from .training import TrainConfig, load_run_config

    cfg = load_run_config(args.config) if args.config else TrainConfig()
    w, hc = _load_layer(args.weights, args.hessian)
    calib = _CalibFiles(args.calib, w.shape[1])
    spec = BaselineSpec(method=args.method, bits=args.bits, target_bits=args.target_bits)
    start = time.perf_counter()
    result = run_baseline(spec, w, hc, cfg=cfg)
    # Time outside the engine: choosing the widths (mlp-ptq's training).
    outside = time.perf_counter() - start - result.wall_time
    echo = {"command": "baseline", "method": spec.method, "bits": spec.bits,
            "target_bits": spec.target_bits, "block_size": cfg.block_size}
    return _write_layer(args, w, calib, result, outside, cfg.t_max, cfg.seed, echo,
                        method=spec.method)


def cmd_eval(args) -> int:
    w = _load_weights(args.orig)
    calib = _CalibFiles(args.calib, w.shape[1])
    q = _read(args.quant, "quantized")["quantized"]
    if q.shape != w.shape:
        raise ValueError(
            f"shape mismatch: {args.orig} has {w.shape}, {args.quant} has {q.shape}"
        )
    loss = proxy_loss(w, q, calib)
    diff = np.subtract(w, q, dtype=np.float64)
    payload = {
        "proxy_loss": loss,
        "max_abs_error": float(np.max(np.abs(diff, out=diff))),
        "orig": args.orig,
        "quant": args.quant,
    }
    if args.report:
        from .report import write_report
        write_report(args.report, {"schema": "mgquant-eval-v1", "metrics": payload})
    _emit(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgquant",
        description="Mixed-precision weight quantization with a graph-network bit allocator.",
    )
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TensorFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NotPositiveDefiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    """Run :func:`main` as a process: flush its output, then skip interpreter
    teardown (every file a command writes is closed by then). An exception
    that escapes :func:`main`, argparse's ``SystemExit`` among them, exits
    the normal way."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_main()

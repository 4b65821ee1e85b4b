"""Spans around the calls into each `mgquant` module, for the traced run.

The package has no tracing of its own yet, so the traced run calls
`mgquant.cli.main` in-process and swaps wrappers onto the names through
which each caller looks a function up. Each wrapper goes where its caller
finds it: `mgquant.pipeline.quantize_blockwise` and
`mgquant.training.quantize_blockwise` are separate wrappers, so the engine's
two uses stay apart. Spans stay in memory until `write_jsonl`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path


def _nbytes(args, out):
    return os.path.getsize(args[0])


def _one(args, out):
    return 1


def _columns(args, out):
    return args[0].shape[1]


def _rows(args, out):
    return len(args[1])


def _proxy_flops(args, out):
    d_row, d_col = args[0].shape
    return 2 * d_row * d_col * args[2].total_rows


# (module, attribute path, span name, count metric, count function)
WRAPPERS = [
    ("mgquant.cli", "read_tensor_file", "tensorfile.read", "tensorfile.read_bytes", _nbytes),
    ("mgquant.cli", "write_tensor_file", "tensorfile.write", "tensorfile.write_bytes", _nbytes),
    ("mgquant.calibration", "GramAccumulator.accumulate", "calibration.accumulate",
     "calibration.rows", _rows),
    ("mgquant.cli", "build_hessian_cholesky", "calibration.hessian", None, None),
    ("mgquant.calibration", "spd_inverse", "linalg.spd_inverse", None, None),
    ("mgquant.calibration", "cholesky", "linalg.cholesky", None, None),
    ("mgquant.pipeline", "preprocess", "allocator.preprocess", None, None),
    ("mgquant.pipeline", "gcn_forward", "allocator.gcn_forward", None, None),
    ("mgquant.pipeline", "allocate", "allocator.allocate", None, None),
    ("mgquant.cli", "quantize_with_allocator", "pipeline.quantize_with_allocator", None, None),
    ("mgquant.cli", "result_to_sections", "pipeline.result_to_sections", None, None),
    ("mgquant.pipeline", "quantize_blockwise", "gptq.engine", "gptq.engine_columns", _columns),
    ("mgquant.gptq", "proxy_loss", "gptq.proxy_loss", "gptq.proxy_loss_flops", _proxy_flops),
    ("mgquant.cli", "proxy_loss", "gptq.proxy_loss", "gptq.proxy_loss_flops", _proxy_flops),
    ("mgquant.cli", "train", "training.train", None, None),
    ("mgquant.training", "quantize_blockwise", "training.engine", None, None),
    ("mgquant.training", "forward_cached", "training.forward", "training.passes", _one),
    ("mgquant.training", "backward_from_cache", "training.backward", None, None),
    ("mgquant.training", "sample_gumbel", "training.gumbel", None, None),
    ("mgquant.training", "gumbel_softmax", "training.gumbel", None, None),
    ("mgquant.training", "AdamW.step", "training.adamw", "training.adamw_steps", _one),
    ("mgquant.training", "error_table", "quant.error_table", None, None),
]

# Reported as self time: the engine span also covers the proxy loss it calls.
SELF_TIMED = {"gptq.engine"}
ROOT = "cli.main"

class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.command: str | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "command": self.command, "start": time.perf_counter()}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                out = fn(*args, **kwargs)
            if count is not None:
                record["count"] = count(args, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Put a wrapper on every name in WRAPPERS; restore the originals on exit."""
        saved = []
        try:
            for module, path, name, _, count in WRAPPERS:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer totals: `<span>_s` durations and the named counts."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        total = defaultdict(float)
        own = defaultdict(float)
        counts = defaultdict(int)
        for s in self.spans:
            duration = s["end"] - s["start"]
            total[s["name"]] += duration
            own[s["name"]] += duration - child[s["id"]]
            counts[s["name"]] += s.get("count", 0)
        out = {}
        for _, _, name, count_name, _ in WRAPPERS:
            out[f"{name}_s"] = own[name] if name in SELF_TIMED else total[name]
            if count_name:
                out[count_name] = counts[name]
        out["training.self_s"] = own["training.train"]
        out["cli.commands"] = sum(1 for s in self.spans if s["name"] == ROOT)
        return out

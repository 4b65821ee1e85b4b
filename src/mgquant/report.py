"""Machine-readable run reports.

A report is a JSON object with deterministic content given the seed:

    {
      "schema": "mgquant-report-v1",
      "seed": <int>,
      "config": {...},              # config echo
      "layers": [ {name, rows, cols, proxy_loss, mean_bits,
                   bit_histogram, block_error_sum}, ... ],
      "totals": {n_layers, proxy_loss_sum, mean_bits},
      "timing": {...}               # wall times; the only non-reproducible part
    }

Timing lives in its own top-level section so reproducibility checks can
compare everything else byte for byte. ``bit_histogram[i]`` counts columns
assigned width i+1 and the counts sum to the layer's column count.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .tensorfile import write_atomic

if TYPE_CHECKING:
    from .gptq import QuantResult

__all__ = ["SCHEMA", "layer_entry", "build_report", "dump_report", "write_report"]

SCHEMA = "mgquant-report-v1"


def layer_entry(name: str, result: QuantResult, proxy_loss: float | None, t_max: int) -> dict:
    """One ``layers`` row; ``proxy_loss`` is None when no calibration was given."""
    rows, cols = result.quantized.shape
    return {
        "name": name,
        "rows": int(rows),
        "cols": int(cols),
        "proxy_loss": None if proxy_loss is None else float(proxy_loss),
        "mean_bits": round(result.mean_bits, 3),
        "bit_histogram": result.bit_histogram(t_max),
        "block_error_sum": float(np.sum(result.block_errors)),
    }


def build_report(
    seed: int,
    config_echo: dict,
    layers: list[dict],
    timing: dict,
) -> dict:
    n = len(layers)
    losses = [e["proxy_loss"] for e in layers if e.get("proxy_loss") is not None]
    total_cols = sum(e["cols"] for e in layers)
    weighted_bits = sum(e["mean_bits"] * e["cols"] for e in layers)
    return {
        "schema": SCHEMA,
        "seed": int(seed),
        "config": config_echo,
        "layers": layers,
        "totals": {
            "n_layers": n,
            "proxy_loss_sum": float(sum(losses)) if losses else None,
            "mean_bits": round(weighted_bits / total_cols, 3) if total_cols else None,
        },
        "timing": timing,
    }


def dump_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_report(path: str | Path, report: dict) -> None:
    """Serialize deterministically (sorted keys) and write atomically."""
    write_atomic(path, dump_report(report).encode())

"""End-to-end quantization pipeline.

The files the CLI reads are laid out as :data:`mgquant.cli.ROLES` declares.
Quantized outputs carry the dequantized ``quantized`` matrix, u8 ``codes``,
per-column ``scales``/``zeros`` grids and u8 ``widths``, which
:func:`result_to_sections` takes as they are from the
:class:`~mgquant.gptq.QuantResult` arrays. :func:`widths_for` is the one
inference path of the allocator, for the graph and the MLP ablation alike.
Nothing here reads calibration data: the CLI takes each proxy loss.
"""

from __future__ import annotations

import time

import numpy as np

from .allocator import (
    AllocatorParams,
    allocate,
    gcn_forward,
    hessian_node_features,
    preprocess,
)
from .cli import check_sections
from .gptq import QuantResult, quantize_blockwise
from .linalg import triu_matmul

__all__ = [
    "widths_for",
    "quantize_with_allocator",
    "params_to_sections",
    "params_from_sections",
    "result_to_sections",
]


def widths_for(
    w: np.ndarray, hc: np.ndarray, params: AllocatorParams, arch: str = "gcn"
) -> np.ndarray:
    """Hard per-column widths: node features, the forward pass, argmax.

    ``arch="gcn"`` takes the features F from ``w`` (:func:`preprocess`,
    ``min(d_row, d_gnn)`` columns) and propagates them once through the
    factor's upper triangle, ``A0 = triu(hc) @ F``;
    the ``"mlp"`` ablation pools F from the rows of ``hc`` and takes
    ``A0 = F``. Everything runs in the features' dtype.
    """
    if arch == "gcn":
        f = preprocess(w, params.d_gnn)
        adj, a0 = hc, triu_matmul(hc.astype(f.dtype, copy=False), f)
    elif arch == "mlp":
        adj, a0 = None, hessian_node_features(hc, params.d_gnn)
    else:
        raise ValueError(f"arch must be 'gcn' or 'mlp', got {arch!r}")
    _, x2 = gcn_forward(adj, a0, params)
    return allocate(x2, params)


def quantize_with_allocator(
    w: np.ndarray,
    hc: np.ndarray,
    params: AllocatorParams,
    block_size: int = 128,
    dtype=np.float32,
) -> tuple[QuantResult, float]:
    """Allocate widths with the trained graph allocator, then quantize.

    Inference is deterministic: widths come from the argmax of the head
    logits, no sampling. Returns the result and the seconds spent choosing
    the widths; the engine's own are ``result.wall_time``.
    """
    w = np.ascontiguousarray(np.asarray(w), dtype=dtype)
    hc_t = np.ascontiguousarray(np.asarray(hc), dtype=dtype)

    start = time.perf_counter()
    widths = widths_for(w, hc_t, params)
    allocator_time = time.perf_counter() - start

    return quantize_blockwise(w, hc_t, widths, block_size=block_size), allocator_time


def params_to_sections(params: AllocatorParams) -> dict[str, np.ndarray]:
    return {k: np.asarray(v, dtype=np.float64) for k, v in params.as_dict().items()}


def params_from_sections(sections: dict[str, np.ndarray]) -> AllocatorParams:
    """Rebuild allocator parameters from the sections :func:`params_to_sections` writes,
    checked as the CLI's ``params`` file role.

    A missing or any other section is an error, so that an older file whose
    ``flags`` or ``wf``/``bf`` sections changed the network it was trained
    with does not load silently.
    """
    heads = {k: (np.asarray(v).dtype, np.shape(v)) for k, v in sections.items()}
    check_sections("params", "allocator parameter sections", heads, {})
    return AllocatorParams(**{k: np.asarray(v, dtype=np.float64) for k, v in sections.items()})


def result_to_sections(result: QuantResult) -> dict[str, np.ndarray]:
    """Pack a quantization result for the container format (one byte per code)."""
    return {
        "quantized": result.quantized,
        "codes": result.codes,
        "scales": result.scales,
        "zeros": result.zeros,
        "widths": result.widths.astype(np.uint8),
    }

"""End-to-end quantization pipeline and file-layout conventions.

Weight files carry a 2-D ``weights`` section; Gram files carry ``gram`` and
``samples``; hessian files carry ``hessian_cholesky`` (upper triangular);
allocator parameter files carry ``w0/w1/wc/bc`` (optionally ``wf/bf``).
Quantized outputs carry the dequantized ``quantized`` matrix, u8 ``codes``,
per-column ``scales``/``zeros`` grids and u8 ``widths``, which
:func:`result_to_sections` takes as they are from the
:class:`~mgquant.gptq.QuantResult` arrays. :func:`widths_for` is the one
inference path of the allocator, for the graph and the MLP ablation alike.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .allocator import (
    AllocatorParams,
    allocate,
    gcn_forward,
    hessian_node_features,
    preprocess,
)
from .gptq import QuantResult, quantize_blockwise

__all__ = [
    "AllocatorTimings",
    "widths_for",
    "quantize_with_allocator",
    "params_to_sections",
    "params_from_sections",
    "result_to_sections",
]


@dataclass(frozen=True)
class AllocatorTimings:
    """Wall-clock split between allocator inference and the engine."""

    allocator_time: float
    engine_time: float

    @property
    def total(self) -> float:
        return self.allocator_time + self.engine_time


def widths_for(
    w: np.ndarray, hc: np.ndarray, params: AllocatorParams, arch: str = "gcn"
) -> np.ndarray:
    """Hard per-column widths: node features, the forward pass, argmax.

    ``arch="gcn"`` pools features from ``w`` and propagates over ``hc``; the
    ``"mlp"`` ablation pools them from the rows of ``hc`` and does not
    propagate. Everything runs in the features' dtype.
    """
    if arch == "gcn":
        x0, adj = preprocess(w, params.d_gnn), hc
    elif arch == "mlp":
        x0, adj = hessian_node_features(hc, params.d_gnn), None
    else:
        raise ValueError(f"arch must be 'gcn' or 'mlp', got {arch!r}")
    _, x2 = gcn_forward(adj, x0, params)
    return allocate(x2, params)


def quantize_with_allocator(
    w: np.ndarray,
    hc: np.ndarray,
    params: AllocatorParams,
    block_size: int = 128,
    dtype=np.float32,
    calib: Iterable[np.ndarray] | None = None,
) -> tuple[QuantResult, AllocatorTimings]:
    """Allocate widths with the trained graph allocator, then quantize.

    Inference is deterministic: widths come from the argmax of the head
    logits, no sampling.
    """
    w = np.ascontiguousarray(np.asarray(w), dtype=dtype)
    hc_t = np.ascontiguousarray(np.asarray(hc), dtype=dtype)

    start = time.perf_counter()
    widths = widths_for(w, hc_t, params)
    allocator_time = time.perf_counter() - start

    result = quantize_blockwise(
        w, hc_t, widths,
        block_size=min(block_size, w.shape[1]),
        calib=calib,
    )
    return result, AllocatorTimings(allocator_time=allocator_time, engine_time=result.wall_time)


def params_to_sections(params: AllocatorParams) -> dict[str, np.ndarray]:
    return {k: np.asarray(v, dtype=np.float64) for k, v in params.as_dict().items()}


def params_from_sections(sections: dict[str, np.ndarray]) -> AllocatorParams:
    """Rebuild allocator parameters.

    Older files also carry a one-byte ``flags`` section; 0 loads, while bit 0
    (trained over a symmetrized adjacency, no longer supported) is rejected.
    """
    missing = [k for k in ("w0", "w1", "wc", "bc") if k not in sections]
    if missing:
        raise ValueError(f"allocator parameter file is missing sections: {missing}")
    flags = sections.get("flags")
    if flags is not None and flags.size and int(flags.flat[0]) & 1:
        raise ValueError("allocator parameters trained on a symmetrized adjacency "
                         "(flags bit 0) are no longer supported; retrain them")
    return AllocatorParams(
        w0=np.asarray(sections["w0"], dtype=np.float64),
        w1=np.asarray(sections["w1"], dtype=np.float64),
        wc=np.asarray(sections["wc"], dtype=np.float64),
        bc=np.asarray(sections["bc"], dtype=np.float64),
        wf=np.asarray(sections["wf"], dtype=np.float64) if "wf" in sections else None,
        bf=np.asarray(sections["bf"], dtype=np.float64) if "bf" in sections else None,
    )


def result_to_sections(result: QuantResult) -> dict[str, np.ndarray]:
    """Pack a quantization result for the container format (one byte per code)."""
    quantized = result.quantized
    if quantized.dtype != np.float64:
        quantized = quantized.astype(np.float32)
    return {
        "quantized": quantized,
        "codes": result.codes,
        "scales": result.scales,
        "zeros": result.zeros,
        "widths": result.widths.astype(np.uint8),
    }

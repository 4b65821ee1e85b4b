"""End-to-end quantization pipeline and file-layout conventions.

Weight files carry a 2-D ``weights`` section; Gram files carry ``gram`` and
``samples``; hessian files carry ``hessian_cholesky`` (upper triangular);
allocator parameter files carry ``w0/w1/wc/bc`` (optionally ``wf/bf``) plus
a one-byte ``flags`` section (bit 0: adjacency was symmetrized during
training, so inference must match). Quantized outputs carry the dequantized
``quantized`` matrix, u8 ``codes``, per-column ``scales``/``zeros`` grids
and u8 ``widths``, which :func:`result_to_sections` takes as they are from
the :class:`~mgquant.gptq.QuantResult` arrays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .allocator import (
    AllocatorParams,
    allocate,
    gcn_forward,
    preprocess,
)
from .calibration import CalibrationSet
from .gptq import QuantResult, quantize_blockwise

__all__ = [
    "AllocatorTimings",
    "quantize_with_allocator",
    "params_to_sections",
    "params_from_sections",
    "result_to_sections",
    "calib_from_sections",
]


@dataclass(frozen=True)
class AllocatorTimings:
    """Wall-clock split between allocator inference and the engine."""

    allocator_time: float
    engine_time: float

    @property
    def total(self) -> float:
        return self.allocator_time + self.engine_time


def quantize_with_allocator(
    w: np.ndarray,
    hc: np.ndarray,
    params: AllocatorParams,
    block_size: int = 128,
    dtype=np.float32,
    symmetrize_adjacency: bool = False,
    calib: CalibrationSet | None = None,
    intra_block: bool = True,
) -> tuple[QuantResult, AllocatorTimings]:
    """Allocate widths with the trained graph allocator, then quantize.

    Inference is deterministic: widths come from the argmax of the head
    logits, no sampling.
    """
    w = np.ascontiguousarray(np.asarray(w), dtype=dtype)
    hc_t = np.ascontiguousarray(np.asarray(hc), dtype=dtype)
    params_t = params.astype(dtype)

    start = time.perf_counter()
    x0 = preprocess(w, params.d_gnn)
    x2 = gcn_forward(hc_t, x0, params_t, symmetrize=symmetrize_adjacency)
    widths = allocate(x2, params_t)
    allocator_time = time.perf_counter() - start

    result = quantize_blockwise(
        w, hc_t, widths,
        block_size=min(block_size, w.shape[1]),
        calib=calib,
        intra_block=intra_block,
    )
    return result, AllocatorTimings(allocator_time=allocator_time, engine_time=result.wall_time)


def params_to_sections(
    params: AllocatorParams, symmetrize_adjacency: bool = False
) -> dict[str, np.ndarray]:
    sections = {k: np.asarray(v, dtype=np.float64) for k, v in params.as_dict().items()}
    sections["flags"] = np.array([1 if symmetrize_adjacency else 0], dtype=np.uint8)
    return sections


def params_from_sections(sections: dict[str, np.ndarray]) -> tuple[AllocatorParams, bool]:
    """Rebuild allocator parameters; returns (params, symmetrize_adjacency)."""
    missing = [k for k in ("w0", "w1", "wc", "bc") if k not in sections]
    if missing:
        raise ValueError(f"allocator parameter file is missing sections: {missing}")
    params = AllocatorParams(
        w0=np.asarray(sections["w0"], dtype=np.float64),
        w1=np.asarray(sections["w1"], dtype=np.float64),
        wc=np.asarray(sections["wc"], dtype=np.float64),
        bc=np.asarray(sections["bc"], dtype=np.float64),
        wf=np.asarray(sections["wf"], dtype=np.float64) if "wf" in sections else None,
        bf=np.asarray(sections["bf"], dtype=np.float64) if "bf" in sections else None,
    )
    flags = sections.get("flags")
    symmetrize = bool(flags is not None and flags.size and (int(flags.flat[0]) & 1))
    return params, symmetrize


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


def calib_from_sections(files: list[dict[str, np.ndarray]]) -> CalibrationSet:
    """Every section of every calibration file is one activation batch, in order."""
    batches: list[np.ndarray] = []
    for sections in files:
        for arr in sections.values():
            batches.append(np.asarray(arr))
    return CalibrationSet(batches=batches)

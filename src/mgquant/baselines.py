"""Reference quantizers: plain RTN, uniform-width blockwise, and the MLP
ablation allocator.

``rtn`` quantizes every column independently with the quantizer the engine
uses (binary at 1 bit, min-max RTN above), in one call on ``W.T``, so with
an uncorrelated factor the blockwise engine reproduces it exactly.
``gptq-uniform`` is the engine with a constant assignment. ``mlp-ptq``
trains the allocator with the graph layers replaced by plain dense layers
(node features pooled from the factor rows), then quantizes with the
resulting assignment. None of them reads calibration data: the caller
takes the proxy loss of a result with :func:`mgquant.calibration.proxy_loss`.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from .cli import METHODS
from .gptq import QuantResult, quantize_blockwise
from .pipeline import widths_for
from .quant import check_width, quantize
from .training import TrainConfig, train

__all__ = ["BaselineSpec", "run_baseline", "quantize_rtn_matrix"]


@dataclass(frozen=True)
class BaselineSpec:
    """Which reference method to run and at what width/budget."""

    method: str
    bits: int = 2
    target_bits: float | None = None  # mlp-ptq only; defaults to bits

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown baseline method {self.method!r}; expected {METHODS}")
        check_width("bits", self.bits)

    @property
    def budget(self) -> float:
        return float(self.bits) if self.target_bits is None else float(self.target_bits)

    def training_config(self, cfg: TrainConfig) -> TrainConfig:
        """``cfg`` with :attr:`budget` as its target, checked: what ``mlp-ptq`` trains with."""
        return dataclasses.replace(cfg, target_bits=self.budget).validate()


def quantize_rtn_matrix(w: np.ndarray, bits: int) -> QuantResult:
    """Independent per-column quantization at a fixed width, no compensation."""
    w = np.asarray(w)
    if w.dtype not in (np.float32, np.float64):
        w = w.astype(np.float64)
    d_col = w.shape[1]
    widths = np.full(d_col, check_width("bits", bits), dtype=np.int64)
    start = time.perf_counter()
    quantized, codes, scales, zeros = quantize(w.T, bits)
    quantized = quantized.T.astype(w.dtype, order="C")
    codes = codes.T.astype(np.uint8, order="C")
    wall = time.perf_counter() - start
    return QuantResult(
        quantized=quantized,
        codes=codes,
        scales=scales,
        zeros=zeros,
        widths=widths,
        block_errors=np.zeros(0, dtype=np.float64),
        wall_time=wall,
    )


def run_baseline(
    spec: BaselineSpec,
    w: np.ndarray,
    hc: np.ndarray,
    cfg: TrainConfig | None = None,
) -> QuantResult:
    """Run one reference method on a single layer."""
    w = np.asarray(w)
    if spec.method == "rtn":
        return quantize_rtn_matrix(w, spec.bits)

    cfg = cfg if cfg is not None else TrainConfig()
    if spec.method == "gptq-uniform":
        widths = np.full(w.shape[1], spec.bits, dtype=np.int64)
    else:
        # mlp-ptq: train the dense-ablation allocator on this layer and take
        # its hard assignment.
        params, _ = train([(w, hc)], spec.training_config(cfg), arch="mlp")
        widths = widths_for(w, np.asarray(hc, dtype=np.float64), params, arch="mlp")
    return quantize_blockwise(w, hc, widths, block_size=cfg.block_size)

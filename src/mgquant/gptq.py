"""Blockwise mixed-precision quantization with output compensation.

Columns are processed left to right in blocks. Inside a block, column j is
quantized at its assigned width against its *current* (already compensated)
values; the scaled error

    e_j = (w_j - q_j) / hc[j, j]

must reach every later column k through row j of the upper-triangular
factor ``hc`` (``w_k -= e_j * hc[j, k]``). GPTQ's two-level lazy batching
delivers it in three steps, each a level larger:

* inside a sub-block of ``SUB_BLOCK`` columns, a rank-1 update pushes e_j
  onto the sub-block's later columns at once, before the next column is
  quantized;
* when a sub-block finishes, its stacked errors reach the rest of the block
  in one matrix product, ``W[:, f:end] -= E_sub @ hc[sub, f:end]``;
* when a block finishes, its stacked errors update everything to the right
  of it, ``W[:, end:] -= E @ hc[block, end:]``.

Every column thus sees the same updates as with one rank-1 update per
column across the whole block; only the order of the additions differs, so
results move at rounding level. With a diagonal factor all cross terms
vanish and the result reduces to independent per-column quantization.

The engine works on ``W.T``, so each column is a contiguous row, and
quantizes it with :func:`mgquant.quant.quantize`. The errors of a block are
kept the same way, one row of a ``(block, d_row)`` buffer per column, so
both products write contiguous rows: ``work[end:] -= hc[block, end:].T @ E``.
As in GPTQ's reference code, the engine quantizes in place: once e_j is
formed (in the work dtype), row j of ``work`` is overwritten with column j's
quantized values, so the engine holds one float copy of the matrix. The
result carries ``quantized`` and the u8 ``codes`` as transposed views of the
engine's ``(d_col, d_row)`` buffers, and the grids as per-column
``scales``/``zeros`` arrays; widths above 8 bits are rejected because a
code must fit in a byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .calibration import proxy_loss  # noqa: F401  (bench/tracing.py wraps this name)
from .linalg import ShapeMismatchError
from .quant import quantize

__all__ = [
    "QuantResult",
    "quantize_blockwise",
    "validate_widths",
]

MAX_BITS = 8  # codes are stored one byte each
SUB_BLOCK = 16  # columns per rank-1 sub-block inside a compensation block


@dataclass
class QuantResult:
    """Everything produced by one blockwise quantization run.

    It holds no proxy loss; take it with ``proxy_loss(w, result.quantized, calib)``.

    Attributes:
        quantized: dequantized weight matrix, same shape/dtype as the input;
            column j equals ``scales[j] * (codes[:, j] - zeros[j])`` cast
            to that dtype. The engine returns it as a transposed view of its
            column-major work buffer, so it need not be C-contiguous; the
            container writer makes it row-major.
        codes: u8 integer codes, same shape (and, from the engine, the same
            column-major layout) as ``quantized``.
        scales, zeros: the grid of each column (float64, length d_col).
        widths: the bit assignment actually applied (copy).
        block_errors: per block, the sum of squared compensation entries.
        wall_time: seconds spent in the engine (excluded from determinism).
        residuals: compensated value of each column at the moment it was
            quantized (kept only when requested; the training loop feeds
            these to the error table).
    """

    quantized: np.ndarray
    codes: np.ndarray
    scales: np.ndarray
    zeros: np.ndarray
    widths: np.ndarray
    block_errors: np.ndarray
    wall_time: float
    residuals: np.ndarray | None = None

    @property
    def mean_bits(self) -> float:
        return float(np.mean(self.widths))

    def bit_histogram(self, t_max: int) -> list[int]:
        counts = np.bincount(self.widths, minlength=t_max + 1)[1 : t_max + 1]
        return [int(c) for c in counts]


def validate_widths(widths: np.ndarray, d_col: int, t_max: int | None = None) -> np.ndarray:
    w = np.asarray(widths)
    if w.shape != (d_col,):
        raise ShapeMismatchError(f"widths must have shape ({d_col},), got {w.shape}")
    # NaN, Inf or a float past int64 is no width; it would cast to an arbitrary int64.
    if not np.issubdtype(w.dtype, np.integer):
        if not np.all((np.abs(w) < 2.0**63) & (w == np.round(w))):
            raise ValueError("widths must be integers")
    w = w.astype(np.int64)
    if w.min() < 1:
        raise ValueError(f"widths must be >= 1, got min {w.min()}")
    if t_max is not None and w.max() > t_max:
        raise ValueError(f"widths must be <= {t_max}, got max {w.max()}")
    return w


def quantize_blockwise(
    w: np.ndarray,
    hc: np.ndarray,
    widths: np.ndarray,
    block_size: int = 128,
    keep_residuals: bool = False,
) -> QuantResult:
    """Quantize ``w`` column-blockwise at per-column widths with compensation.

    The engine reads no calibration data (see :func:`mgquant.calibration.proxy_loss`).

    Args:
        w: weight matrix (d_row x d_col), float32 or float64; work happens
            in this dtype, on a copy (``w`` is left unchanged).
        hc: upper-triangular Cholesky factor of the damped inverse Gram
            (d_col x d_col) with strictly positive diagonal.
        widths: per-column bit widths, each in 1..8.
        block_size: columns per compensation block (1..d_col).
        keep_residuals: record the compensated column values seen by the
            quantizer (returned as a transposed view, shape d_row x d_col).
    """
    w = np.asarray(w)
    if w.ndim != 2:
        raise ShapeMismatchError(f"weights must be 2-D, got shape {w.shape}")
    if w.dtype not in (np.float32, np.float64):
        w = w.astype(np.float64)
    d_row, d_col = w.shape
    hc = np.asarray(hc)
    if hc.shape != (d_col, d_col):
        raise ShapeMismatchError(
            f"hessian factor shape {hc.shape} does not match d_col {d_col}"
        )
    widths = validate_widths(widths, d_col, MAX_BITS)
    diag = np.diag(hc)
    if not (diag > 0).all():
        bad = int(np.argmin(diag))
        raise ValueError(f"hessian factor diagonal must be positive (entry {bad})")
    if not 1 <= block_size <= d_col:
        raise ValueError(f"block_size must be in [1, {d_col}], got {block_size}")

    hc = hc.astype(w.dtype, copy=False)
    start = time.perf_counter()

    # Row j of each (d_col, d_row) buffer is column j of the matrix. Once
    # column j is quantized, row j of ``work`` holds its quantized values.
    work = np.array(w.T, order="C")
    codes = np.empty(work.shape, dtype=np.uint8)
    scales = np.empty(d_col, dtype=np.float64)
    zeros = np.empty(d_col, dtype=np.float64)
    residuals = np.empty_like(work) if keep_residuals else None
    block_errors: list[float] = []

    for b in range(0, d_col, block_size):
        e = min(b + block_size, d_col)
        errs = np.empty((e - b, d_row), dtype=work.dtype)  # row j - b: e_j
        for s in range(b, e, SUB_BLOCK):
            f = min(s + SUB_BLOCK, e)
            for j in range(s, f):
                col = work[j]
                if residuals is not None:
                    residuals[j] = col
                q, codes[j], scales[j], zeros[j] = quantize(col, int(widths[j]))
                q = q.astype(work.dtype, copy=False)
                err = errs[j - b]
                np.subtract(col, q, out=err)
                col[...] = q
                err /= hc[j, j]
                if j + 1 < f:
                    work[j + 1 : f] -= hc[j, j + 1 : f, None] * err
            if f < e:
                work[f:e] -= hc[s:f, f:e].T @ errs[s - b : f - b]
        # Summed in (d_row, block) order, as a column-at-a-time loop sums
        # them, so the two agree bit for bit where no update is reordered.
        block_errors.append(float(np.sum(np.square(errs.T, dtype=np.float64, order="C"))))
        if e < d_col:
            work[e:] -= hc[b:e, e:].T @ errs

    wall = time.perf_counter() - start
    return QuantResult(
        quantized=work.T,
        codes=codes.T,
        scales=scales,
        zeros=zeros,
        widths=widths.copy(),
        block_errors=np.asarray(block_errors, dtype=np.float64),
        wall_time=wall,
        residuals=None if residuals is None else residuals.T,
    )

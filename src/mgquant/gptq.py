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
The result carries the codes as one u8 matrix and the grids as per-column
``scales``/``zeros`` arrays; widths above 8 bits are rejected because a
code must fit in a byte.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .calibration import GramAccumulator
from .linalg import ShapeMismatchError
from .quant import quantize

__all__ = [
    "QuantResult",
    "quantize_blockwise",
    "gram_break_even",
    "proxy_loss",
    "validate_widths",
]

MAX_BITS = 8  # codes are stored one byte each
SUB_BLOCK = 16  # columns per rank-1 sub-block inside a compensation block


@dataclass
class QuantResult:
    """Everything produced by one blockwise quantization run.

    Attributes:
        quantized: dequantized weight matrix, same shape/dtype as the input;
            column j equals ``scales[j] * (codes[:, j] - zeros[j])`` cast
            to that dtype.
        codes: u8 integer codes, same shape as ``quantized``.
        scales, zeros: the grid of each column (float64, length d_col).
        widths: the bit assignment actually applied (copy).
        block_errors: per block, the sum of squared compensation entries.
        proxy_loss: layer output distortion if calibration data was supplied.
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
    proxy_loss: float | None
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
    if not np.issubdtype(w.dtype, np.integer):
        if not np.all(w == np.round(w)):
            raise ValueError("widths must be integers")
        w = w.astype(np.int64)
    else:
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
    calib: Iterable[np.ndarray] | None = None,
    keep_residuals: bool = False,
) -> QuantResult:
    """Quantize ``w`` column-blockwise at per-column widths with compensation.

    Args:
        w: weight matrix (d_row x d_col), float32 or float64; work happens
            in this dtype.
        hc: upper-triangular Cholesky factor of the damped inverse Gram
            (d_col x d_col) with strictly positive diagonal.
        widths: per-column bit widths, each in 1..8.
        block_size: columns per compensation block (1..d_col).
        calib: optional calibration batches for the proxy loss, read once.
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

    # Row j of each (d_col, d_row) buffer is column j of the matrix.
    work = np.array(w.T, order="C")
    quantized = np.empty_like(work)
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
                quantized[j], codes[j], scales[j], zeros[j] = quantize(col, int(widths[j]))
                err = errs[j - b]
                np.subtract(col, quantized[j], out=err)
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

    quantized = np.ascontiguousarray(quantized.T)
    codes = np.ascontiguousarray(codes.T)
    wall = time.perf_counter() - start
    loss = proxy_loss(w, quantized, calib) if calib is not None else None
    return QuantResult(
        quantized=quantized,
        codes=codes,
        scales=scales,
        zeros=zeros,
        widths=widths.copy(),
        block_errors=np.asarray(block_errors, dtype=np.float64),
        proxy_loss=loss,
        wall_time=wall,
        residuals=None if residuals is None else residuals.T,
    )


def gram_break_even(d_row: int, d_col: int) -> float:
    """Rows m* past which the proxy loss is cheaper through the Gram.

    The row order costs ``2 d_row d_col m`` flops; folding the Gram costs
    ``m d_col^2`` and the final ``(D G) . D`` another ``2 d_row d_col^2``.
    They break even at ``m* = 2 d_row d_col / (2 d_row - d_col)``; with
    ``d_col >= 2 d_row`` the Gram order never wins.
    """
    if d_col >= 2 * d_row:
        return float("inf")
    return 2 * d_row * d_col / (2 * d_row - d_col)


def proxy_loss(w: np.ndarray, q: np.ndarray, calib: Iterable[np.ndarray]) -> float:
    """Layer output distortion ``||(w - q) @ X^T||_F^2 / m`` over all calibration rows.

    ``calib`` is read once, batch by batch: a ``CalibrationSet`` or any
    stream of 2-D batches. Up to :func:`gram_break_even` rows the batches
    are held and the loss is summed batch by batch in row order. Past it,
    the held batches and every later one are folded into a
    :class:`GramAccumulator` G = 2 X^T X, the fold ``mgquant gram`` uses,
    and the loss is ``sum((D G) . D) / (2 m)`` with D = w - q. That side
    depends only on the concatenated rows, not on how they are split into
    batches. Ties go to the row order.
    """
    w = np.asarray(w, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if w.shape != q.shape:
        raise ShapeMismatchError(f"weight shapes differ: {w.shape} vs {q.shape}")
    d_row, d_col = w.shape
    m_star = gram_break_even(d_row, d_col)
    held: list[np.ndarray] = []
    acc: GramAccumulator | None = None
    m = 0
    for batch in calib:
        batch = np.asarray(batch)
        if batch.ndim != 2 or batch.shape[1] != d_col:
            raise ShapeMismatchError(
                f"calibration batch of shape {batch.shape} does not match d_col {d_col}"
            )
        m += batch.shape[0]
        if acc is not None:
            acc.accumulate(batch)
        else:
            held.append(batch)
            if m > m_star:
                acc = GramAccumulator(d_col)
                while held:
                    acc.accumulate(held.pop(0))
        del batch  # keep no folded batch alive while the next one is read
    if m == 0:
        raise ValueError("calibration set has no rows")
    diff = w - q
    if acc is not None:
        # The sum of d^T G d over rows d of D is >= 0; rounding may not keep it so.
        return max(float(np.sum((diff @ acc.gram) * diff)) / (2 * m), 0.0)
    total = 0.0
    for batch in held:
        proj = diff @ np.asarray(batch, dtype=np.float64).T
        total += float(np.sum(proj * proj))
    return total / m

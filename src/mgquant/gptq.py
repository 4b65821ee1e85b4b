"""Blockwise mixed-precision quantization with output compensation.

Columns are processed left to right in blocks. Inside a block, column j is
quantized at its assigned width against its *current* (already compensated)
values; the scaled error

    e_j = (w_j - q_j) / hc[j, j]

must reach every later column k through row j of the upper-triangular
factor ``hc`` (``w_k -= e_j * hc[j, k]``) before column k is quantized.
When it arrives does not matter (GPTQ's lazy batch), so the engine pulls
the errors a column needs just before it needs them, at three levels, each
a level smaller:

* before block [b, e), all earlier blocks' errors in one product,
  ``W[:, b:e] -= E[:, :b] @ hc[:b, b:e]``;
* before each sub-block of ``SUB_BLOCK`` columns [s, f), the block's
  earlier sub-blocks', ``W[:, s:f] -= E[:, b:s] @ hc[b:s, s:f]``;
* before each column j, its sub-block's earlier columns', in one vector
  product, ``w_j -= E[:, s:j] @ hc[s:j, j]``.

Every column thus receives the same updates as with one rank-1 update per
column across the whole matrix; only the order of the additions differs,
so results move at rounding level. The engine reads only the upper triangle
of ``hc``. With a diagonal factor all cross terms vanish and the result
reduces to independent per-column quantization.

The engine works on ``W.T``, so each column is a contiguous row, and
quantizes it with :func:`mgquant.quant.quantize`. The errors are kept the
same way: row j of one ``(d_col, d_row)`` buffer holds e_j, the whole
history, so every pull is one product into contiguous rows,
``work[b:e] -= hc[:b, b:e].T @ errs[:b]``, written into the rows of ``errs``
that the pulled columns' errors later overwrite. A column step writes only
its codes, its grid and its error, so ``work`` ends holding the residuals,
every column's compensated values. After the loop, each block's float64
error sum squares into ``work``'s spent bytes (into one block-sized scratch
when the residuals are kept), and the spent ``errs`` takes the decode
``scales * (codes - zeros)`` in the work dtype: ``quantized``. So the heap
is one float copy of the matrix, the error history (the same size) and the
u8 codes. ``quantized``, ``codes`` and the residuals are transposed views
of these ``(d_col, d_row)`` buffers; the grids are per-column
``scales``/``zeros`` arrays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .calibration import proxy_loss  # noqa: F401  (bench/tracing.py wraps this name)
from .linalg import ShapeMismatchError, transposed_copy
from .quant import CHUNK_ELEMENTS, MAX_BITS, quantize

__all__ = [
    "QuantResult",
    "quantize_blockwise",
    "validate_widths",
]

SUB_BLOCK = 16  # columns per sub-block inside a compensation block


@dataclass
class QuantResult:
    """Everything produced by one blockwise quantization run.

    It holds no proxy loss; take it with ``proxy_loss(w, result.quantized, calib)``.

    Attributes:
        quantized: dequantized weight matrix, same shape/dtype as the input:
            column j is ``scales[j] * (codes[:, j] - zeros[j])``, formed in
            float64 and cast to that dtype. The engine decodes it from the
            codes into its column-major error buffer and returns a transposed
            view, so it need not be C-contiguous; the container writer makes
            it row-major.
        codes: u8 integer codes, same shape (and, from the engine, the same
            column-major layout) as ``quantized``.
        scales, zeros: the grid of each column (float64, length d_col).
        widths: the bit assignment actually applied (a fresh int64 array).
        block_errors: per block, the sum of squared compensation entries.
        wall_time: seconds spent in the engine (excluded from determinism).
        residuals: compensated value of each column at the moment it was
            quantized, a transposed view of the engine's work buffer (kept
            only when requested; the training loop feeds these to the error
            table).
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
        """Columns per width 1, 2, ...: ``t_max`` counts, or up to the widest width."""
        counts = np.bincount(self.widths, minlength=t_max + 1)[1:]
        return [int(c) for c in counts]


def validate_widths(widths: np.ndarray, d_col: int) -> np.ndarray:
    """``widths`` as a fresh int64 array of ``d_col`` whole numbers in 1..MAX_BITS."""
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
    if w.max() > MAX_BITS:
        raise ValueError(f"widths must be <= {MAX_BITS}, got max {w.max()}")
    return w


def _pull(work: np.ndarray, errs: np.ndarray, hc: np.ndarray, lo: int, b: int, e: int) -> None:
    """Columns [b, e) take the errors of columns [lo, b):
    ``work[b:e] -= hc[lo:b, b:e].T @ errs[lo:b]``.

    The product goes into ``errs[b:e]``, which those columns' own errors
    overwrite once they are quantized, so a pull allocates nothing.
    """
    if b > lo:
        update = np.matmul(hc[lo:b, b:e].T, errs[lo:b], out=errs[b:e])
        work[b:e] -= update


def _decode(codes: np.ndarray, scales: np.ndarray, zeros: np.ndarray, out: np.ndarray) -> None:
    """``out[j] = scales[j] * (codes[j] - zeros[j])``, formed in float64 as
    :func:`mgquant.quant.quantize` forms it and cast to ``out``'s dtype: in
    place for float64, else through one float64 buffer of a few rows."""
    step = max(1, CHUNK_ELEMENTS // out.shape[1])
    wide = out.dtype == np.float64
    buf = None if wide else np.empty((step, out.shape[1]))
    for r in range(0, len(out), step):
        rows = slice(r, r + step)
        q = out[rows] if wide else buf[: len(out) - r]
        np.subtract(codes[rows], zeros[rows, None], out=q)
        q *= scales[rows, None]
        out[rows] = q  # a no-op for float64, where q is out[rows]


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
        block_size: columns per compensation block, at least 1; a block
            wider than the matrix is one block.
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
    widths = validate_widths(widths, d_col)
    diag = np.diag(hc)
    if not (diag > 0).all():
        bad = int(np.argmin(diag))
        raise ValueError(f"hessian factor diagonal must be positive (entry {bad})")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")

    hc = hc.astype(w.dtype, copy=False)
    start = time.perf_counter()

    # Row j of each (d_col, d_row) buffer is column j of the matrix. Once
    # column j is quantized, row j of ``work`` holds its compensated values
    # and row j of ``errs`` its scaled error e_j. ``errs``, which the result
    # keeps, comes first, so a freed heap block that fits one goes to it and
    # ``work``'s fresh pages go back on return (12 MiB off the CLI's peak in
    # a 2048² float64 `quantize`).
    errs = np.empty((d_col, d_row), dtype=w.dtype)
    work = transposed_copy(w)
    codes = np.empty(work.shape, dtype=np.uint8)
    scales = np.empty(d_col, dtype=np.float64)
    zeros = np.empty(d_col, dtype=np.float64)

    starts = range(0, d_col, block_size)
    for b in starts:
        e = min(b + block_size, d_col)
        _pull(work, errs, hc, 0, b, e)
        for s in range(b, e, SUB_BLOCK):
            f = min(s + SUB_BLOCK, e)
            _pull(work, errs, hc, b, s, f)
            for j in range(s, f):
                _pull(work, errs, hc, s, j, j + 1)
                q, codes[j], scales[j], zeros[j] = quantize(work[j], int(widths[j]))
                err = np.subtract(work[j], q.astype(work.dtype, copy=False), out=errs[j])
                err /= hc[j, j]

    # Each block's error sum is taken in float64 and in (d_row, block) order,
    # as a column-at-a-time loop sums them (bit for bit where no update is
    # reordered). The squares go into ``work``'s spent bytes, float64-aligned
    # as every fresh numpy buffer is, unless ``work`` is kept or too small.
    n = d_row * min(block_size, d_col)
    if keep_residuals or 8 * n > work.nbytes:
        spare = np.empty(n)
    else:
        spare = work.reshape(-1).view(np.uint8)[: 8 * n].view(np.float64)
    block_errors = np.empty(len(starts), dtype=np.float64)
    for i, b in enumerate(starts):
        block = errs[b : b + block_size]
        square = spare[: block.size].reshape(d_row, -1)
        block_errors[i] = np.sum(np.square(block.T, out=square, dtype=np.float64))
    _decode(codes, scales, zeros, out=errs)

    wall = time.perf_counter() - start
    return QuantResult(
        quantized=errs.T,
        codes=codes.T,
        scales=scales,
        zeros=zeros,
        widths=widths,
        block_errors=block_errors,
        wall_time=wall,
        residuals=work.T if keep_residuals else None,
    )

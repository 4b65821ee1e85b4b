"""Gram accumulation over calibration activations, the damped
inverse-Hessian Cholesky factor that drives compensation and the allocator
graph, and the proxy loss that scores a quantized layer on the same rows.

Given calibration rows X (m x d_col), the accumulator maintains
``gram = 2 * X^T X`` in float64 regardless of batch dtype. The factor is

    hessian_cholesky = upper Cholesky of (gram + lambda*I)^{-1}

with ``lambda = damp_frac * mean(diag(gram))`` (or ``damp_frac`` itself for
an all-zero Gram). :func:`build_hessian_cholesky` reads only the Gram matrix
(an accumulator's ``gram``, or the ``gram`` section of a file written by
``mgquant gram``) and computes the factor in one factorization by
:func:`mgquant.linalg.cholesky_of_inverse` without forming the inverse.

Rows are copied into one float64 buffer and folded into the Gram in fixed
``CHUNK_ROWS`` (2,048) row chunks; the remainder is folded into each copy
that ``gram`` returns, never into the running sum. Each fold is one matrix
product, doubled and added in place. The accumulated bytes therefore depend
only on the concatenated row stream, not on how rows were split into
batches or files, nor on when the Gram was read, which keeps e.g. two half
files bit-identical to one concatenated file. :func:`proxy_loss` folds long
calibration streams through the same accumulator (see :func:`gram_break_even`).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .linalg import NotPositiveDefiniteError, ShapeMismatchError, cholesky_of_inverse
from .linalg import cholesky, spd_inverse  # noqa: F401  (bench/tracing.py patches these names)

__all__ = ["GramAccumulator", "build_hessian_cholesky", "gram_break_even", "proxy_loss"]

#: Rows per Gram flush. Fixed so results are independent of batch splits.
CHUNK_ROWS = 2048


@dataclass
class GramAccumulator:
    """Streaming accumulator for ``2 * X^T X`` in float64."""

    d_col: int
    samples_seen: int = 0
    _gram: np.ndarray = field(init=False, repr=False)
    _chunk: np.ndarray | None = field(init=False, repr=False, default=None)
    _pending_rows: int = field(init=False, repr=False, default=0)

    def __post_init__(self):
        if self.d_col < 1:
            raise ValueError(f"d_col must be >= 1, got {self.d_col}")
        self._gram = np.zeros((self.d_col, self.d_col), dtype=np.float64)

    def accumulate(self, batch: np.ndarray) -> "GramAccumulator":
        """Fold one activation batch (rows x d_col) into the running Gram.

        Rows are copied, converted to float64, into one ``CHUNK_ROWS`` buffer,
        which is folded each time it fills.
        """
        b = np.asarray(batch)
        if b.ndim != 2 or b.shape[1] != self.d_col:
            raise ValueError(f"batch shape {b.shape} does not match d_col {self.d_col}")
        if b.dtype.kind != "f":
            b = b.astype(np.float64)
        if not np.isfinite(b).all():
            raise ValueError("calibration batch contains NaN/Inf")
        if self._chunk is None and b.shape[0]:
            self._chunk = np.empty((CHUNK_ROWS, self.d_col), dtype=np.float64)
        start = 0
        while start < b.shape[0]:
            take = min(CHUNK_ROWS - self._pending_rows, b.shape[0] - start)
            self._chunk[self._pending_rows : self._pending_rows + take] = b[start : start + take]
            self._pending_rows += take
            start += take
            if self._pending_rows == CHUNK_ROWS:
                _fold(self._chunk, self._gram)
                self._pending_rows = 0
        self.samples_seen += b.shape[0]
        return self

    @property
    def gram(self) -> np.ndarray:
        """Current ``2 * X^T X`` including buffered rows (copy).

        The buffered rows are folded into the copy only, so reading the Gram
        mid-stream leaves every later chunk boundary where it was.
        """
        gram = self._gram.copy()
        if self._pending_rows:
            _fold(self._chunk[: self._pending_rows], gram)
        return gram


def _fold(rows: np.ndarray, gram: np.ndarray) -> None:
    """Add ``2 * rows^T rows`` to ``gram`` in place."""
    prod = rows.T @ rows
    prod *= 2.0
    gram += prod


def build_hessian_cholesky(gram: np.ndarray, damp_frac: float = 0.01) -> np.ndarray:
    """Upper Cholesky factor of the damped inverse Gram.

    Returns T (float64, upper triangular) with
    ``T.T @ T == (gram + lambda*I)^{-1}``. ``gram`` is left as it is.

    Raises:
        NotPositiveDefiniteError: if the damped Gram still fails to factor;
            the message advises a larger ``damp_frac``.
    """
    if not 0 <= damp_frac < np.inf:  # NaN fails too
        raise ValueError(f"damp_frac must be finite and >= 0, got {damp_frac}")
    damped = np.array(gram, dtype=np.float64)  # one copy, damped in place
    if damped.ndim != 2 or damped.shape[0] != damped.shape[1] or not damped.size:
        raise ValueError(f"gram must be square and non-empty, got shape {damped.shape}")
    mean_diag = float(np.mean(np.diag(damped)))
    lam = damp_frac * mean_diag if mean_diag != 0.0 else damp_frac
    damped.flat[:: damped.shape[0] + 1] += lam
    try:
        return cholesky_of_inverse(damped)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(
            pivot=exc.pivot,
            message=(
                f"damped Gram is not positive definite at pivot {exc.pivot}; "
                f"increase damp_frac (currently {damp_frac})"
            ),
        ) from exc


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

    ``calib`` is read once, batch by batch: a list of 2-D batches or any
    stream of them. Every batch must have ``w``'s column count, the batches
    at least one row between them, and every entry must be finite. Up to
    :func:`gram_break_even` rows the batches are held and the loss is summed
    batch by batch in row order. Past it, the held batches and every later
    one are folded into a :class:`GramAccumulator` G = 2 X^T X, the fold
    ``mgquant gram`` uses, and the loss is ``sum((D G) . D) / (2 m)`` with
    D = w - q. That side depends only on the concatenated rows, not on how
    they are split into batches. Ties go to the row order.
    """
    w = np.asarray(w)
    q = np.asarray(q)
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
        raise ValueError("calibration batches have no rows")
    # Float64 D without float64 copies of w and q; every product below is
    # taken in place, with the bits of the out-of-place form.
    diff = np.subtract(w, q, dtype=np.float64)
    if acc is not None:
        prod = diff @ acc.gram
        prod *= diff
        # The sum of d^T G d over rows d of D is >= 0; rounding may not keep it so.
        return max(float(np.sum(prod)) / (2 * m), 0.0)
    total = 0.0
    while held:
        batch = np.asarray(held.pop(0), dtype=np.float64)
        if not np.isfinite(batch).all():  # the Gram order checks in accumulate
            raise ValueError("calibration batch contains NaN/Inf")
        proj = diff @ batch.T
        del batch  # the float64 rows are not read again
        total += float(np.sum(np.square(proj, out=proj)))
    return total / m

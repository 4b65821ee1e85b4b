"""Gram accumulation over calibration activations and the damped
inverse-Hessian Cholesky factor that drives compensation and the allocator
graph.

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
files bit-identical to one concatenated file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import NotPositiveDefiniteError, cholesky_of_inverse
from .linalg import cholesky, spd_inverse  # noqa: F401  (bench/tracing.py patches these names)

__all__ = ["GramAccumulator", "build_hessian_cholesky"]

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

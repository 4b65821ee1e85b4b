"""Gram accumulation over calibration activations and the damped
inverse-Hessian Cholesky factor that drives compensation and the allocator
graph.

Given calibration rows X (m x d_col), the accumulator maintains
``gram = 2 * X^T X`` in float64 regardless of batch dtype. The factor is

    hessian_cholesky = upper Cholesky of (gram + lambda*I)^{-1}

with ``lambda = damp_frac * mean(diag(gram))`` (or ``damp_frac`` itself for
an all-zero Gram), computed in one factorization by
:func:`mgquant.linalg.cholesky_of_inverse` without forming the inverse.

Rows are copied into one float64 buffer and folded into the Gram in fixed
``CHUNK_ROWS`` (2,048) row chunks, with the remainder flushed on finalize.
Each fold is one matrix product, doubled and added in place. The
accumulated bytes therefore depend only on the concatenated row stream, not
on how rows were split into batches or files, which keeps e.g. two half
files bit-identical to one concatenated file.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .linalg import NotPositiveDefiniteError, cholesky_of_inverse
from .linalg import cholesky, spd_inverse  # noqa: F401  (bench/tracing.py patches these names)

__all__ = ["CalibrationSet", "GramAccumulator", "build_hessian_cholesky"]

#: Rows per Gram flush. Fixed so results are independent of batch splits.
CHUNK_ROWS = 2048


@dataclass(frozen=True)
class CalibrationSet:
    """A list of activation batches, all with the same feature dimension.

    Iterating yields the batches, so a set can stand wherever a stream of
    batches is read (see :func:`mgquant.gptq.proxy_loss`).
    """

    batches: list[np.ndarray]

    def __post_init__(self):
        if not self.batches:
            raise ValueError("calibration set needs at least one batch")
        d = None
        total = 0
        for i, b in enumerate(self.batches):
            b = np.asarray(b)
            if b.ndim != 2:
                raise ValueError(f"calibration batch {i} must be 2-D, got shape {b.shape}")
            if not np.isfinite(b).all():
                raise ValueError(f"calibration batch {i} contains NaN/Inf")
            if d is None:
                d = b.shape[1]
            elif b.shape[1] != d:
                raise ValueError(
                    f"calibration batch {i} has {b.shape[1]} columns, expected {d}"
                )
            total += b.shape[0]
        if total < 1:
            raise ValueError("calibration set has no rows")

    @classmethod
    def from_matrix(cls, x: np.ndarray) -> "CalibrationSet":
        return cls(batches=[np.asarray(x)])

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.batches)

    @property
    def d_col(self) -> int:
        return int(np.asarray(self.batches[0]).shape[1])

    @property
    def total_rows(self) -> int:
        return int(sum(np.asarray(b).shape[0] for b in self.batches))


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

    @classmethod
    def from_gram(cls, gram: np.ndarray, samples_seen: int) -> "GramAccumulator":
        """Rehydrate an accumulator from a previously saved Gram matrix."""
        gram = np.asarray(gram, dtype=np.float64)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ValueError(f"gram must be square, got shape {gram.shape}")
        if samples_seen < 0:
            raise ValueError(f"samples_seen must be >= 0, got {samples_seen}")
        acc = cls(d_col=gram.shape[0], samples_seen=int(samples_seen))
        acc._gram = gram.copy()
        return acc

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
                self._fold(self._chunk)
                self._pending_rows = 0
        self.samples_seen += b.shape[0]
        return self

    def _fold(self, rows: np.ndarray) -> None:
        prod = rows.T @ rows
        prod *= 2.0
        self._gram += prod

    @property
    def gram(self) -> np.ndarray:
        """Current ``2 * X^T X`` including buffered rows (copy)."""
        if self._pending_rows:
            self._fold(self._chunk[: self._pending_rows])
            self._pending_rows = 0
        return self._gram.copy()


def build_hessian_cholesky(acc: GramAccumulator, damp_frac: float = 0.01) -> np.ndarray:
    """Upper Cholesky factor of the damped inverse Gram.

    Returns T (float64, upper triangular) with
    ``T.T @ T == (gram + lambda*I)^{-1}``.

    Raises:
        NotPositiveDefiniteError: if the damped Gram still fails to factor;
            the message advises a larger ``damp_frac``.
    """
    if acc.samples_seen < 1:
        raise ValueError("no calibration samples accumulated")
    if not 0 <= damp_frac < np.inf:  # NaN fails too
        raise ValueError(f"damp_frac must be finite and >= 0, got {damp_frac}")
    damped = acc.gram  # a copy, damped in place
    mean_diag = float(np.mean(np.diag(damped)))
    lam = damp_frac * mean_diag if mean_diag != 0.0 else damp_frac
    damped.flat[:: acc.d_col + 1] += lam
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

"""Dense linear algebra kernels shared by the whole package.

Numpy-only kernels that pin down the conventions everything else relies on:

* both float32 and float64 are supported and the input dtype is preserved;
* matrices handed to ``cholesky``/``spd_inverse`` are checked for symmetry
  and re-symmetrized as ``(A + A^T) / 2`` before factorization (single
  precision Gram accumulation drifts off symmetric);
* the factorization is a recursive blocked lower Cholesky: split at n // 2,
  solve the off-diagonal block through the triangular inverse of the
  leading factor, recurse on the Schur complement. Blocks of at most
  ``LEAF`` (64) columns go to ``numpy.linalg.cholesky``/``numpy.linalg.inv``.
  Everything above the leaves is matrix products, so unlike LAPACK's
  threaded ``potrf`` the factor keeps its bits across BLAS thread counts
  (a test compares 1 and 2 threads);
* Cholesky failures raise :class:`NotPositiveDefiniteError` carrying the
  0-based index of the first leading minor that is not positive definite
  (LAPACK's ``potrf`` convention), found by bisecting the failing leaf;
* triangular factors are returned as plain square arrays with the unused
  triangle zeroed exactly.

All functions are pure: no global state, identical inputs give identical
outputs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ShapeMismatchError",
    "NotPositiveDefiniteError",
    "matmul",
    "cholesky",
    "spd_inverse",
    "symmetry_gap",
]

#: Relative symmetry tolerance accepted before factorization.
SYMMETRY_RTOL = 1e-8

#: Largest block the recursive factorization hands to ``numpy.linalg`` whole.
LEAF = 64


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NotPositiveDefiniteError(ArithmeticError):
    """A Cholesky pivot was not strictly positive.

    Attributes:
        pivot: 0-based index of the failing diagonal entry.
    """

    def __init__(self, pivot: int, message: str | None = None):
        self.pivot = int(pivot)
        super().__init__(
            message or f"matrix is not positive definite (failing pivot {self.pivot})"
        )


def _as_matrix(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2:
        raise ShapeMismatchError(f"{name} must be 2-D, got shape {a.shape}")
    if a.dtype not in (np.float32, np.float64):
        a = a.astype(np.float64)
    return a


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with explicit shape validation.

    Raises:
        ShapeMismatchError: if ``a.cols != b.rows``; the message names both
            shapes.
    """
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(
            f"cannot multiply {a.shape[0]}x{a.shape[1]} by {b.shape[0]}x{b.shape[1]}"
        )
    return a @ b


def _gap(a: np.ndarray, a_t: np.ndarray) -> float:
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(a - a_t))) / scale


def symmetry_gap(a: np.ndarray) -> float:
    """Relative asymmetry ``max|A - A^T| / max|A|`` (0 for the zero matrix)."""
    a = np.asarray(a)
    return _gap(a, a.T)


def _check_square_symmetric(a: np.ndarray) -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"matrix must be square, got shape {a.shape}")
    # One strided pass over A^T, shared by the check and the symmetrization:
    # reading a large A^T in place costs more than copying it once.
    a_t = np.ascontiguousarray(a.T)
    gap = _gap(a, a_t)
    if gap > SYMMETRY_RTOL:
        raise ValueError(
            f"matrix is not symmetric (relative asymmetry {gap:.3e} > {SYMMETRY_RTOL:.0e})"
        )
    # Exact symmetrization; f32 accumulation chains are only symmetric to rounding.
    return np.ascontiguousarray((a + a_t) * a.dtype.type(0.5))


def _first_failing_minor(a: np.ndarray) -> int:
    """Index k of the first leading minor ``a[:k+1, :k+1]`` that fails to factor.

    ``a`` itself must fail. Failure is monotone in k (a principal submatrix
    of a positive definite matrix is positive definite), so bisection finds k.
    """
    lo, hi = 0, a.shape[0] - 1
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            np.linalg.cholesky(a[: mid + 1, : mid + 1])
            lo = mid + 1
        except np.linalg.LinAlgError:
            hi = mid
    return lo


def _factor(a: np.ndarray, offset: int, want_inverse: bool):
    """Lower Cholesky factor L of ``a``, and ``L^{-1}`` if ``want_inverse``.

    Splits at ``h = n // 2``: ``L11 = chol(A11)``, ``L21 = A21 L11^{-T}`` and
    ``L22 = chol(A22 - L21 L21^T)``, with the triangular inverse
    ``inv([[L11, 0], [L21, L22]]) = [[L11^{-1}, 0], [-L22^{-1} L21 L11^{-1}, L22^{-1}]]``.
    ``offset`` is the index of ``a[0, 0]`` in the caller's matrix, so a
    failing pivot is reported in the caller's numbering.
    """
    n = a.shape[0]
    if n <= LEAF:
        try:
            low = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError(pivot=offset + _first_failing_minor(a)) from None
        return low, (np.tril(np.linalg.inv(low)) if want_inverse else None)
    h = n // 2
    l11, inv11 = _factor(a[:h, :h], offset, True)
    l21 = a[h:, :h] @ inv11.T
    l22, inv22 = _factor(a[h:, h:] - l21 @ l21.T, offset + h, want_inverse)
    low = np.zeros_like(a)
    low[:h, :h] = l11
    low[h:, :h] = l21
    low[h:, h:] = l22
    if not want_inverse:
        return low, None
    inv = np.zeros_like(a)
    inv[:h, :h] = inv11
    inv[h:, :h] = -(inv22 @ l21) @ inv11
    inv[h:, h:] = inv22
    return low, inv


def cholesky(a: np.ndarray, orientation: str = "lower") -> np.ndarray:
    """Cholesky factor of a symmetric positive definite matrix.

    Args:
        a: square matrix, symmetric within ``SYMMETRY_RTOL`` relative.
        orientation: ``"lower"`` returns T with ``T @ T.T == a``;
            ``"upper"`` returns T with ``T.T @ T == a``.

    Returns:
        Triangular factor, same dtype as ``a``, zero on the unused side,
        strictly positive diagonal.

    Raises:
        NotPositiveDefiniteError: with the 0-based failing pivot index.
    """
    if orientation not in ("lower", "upper"):
        raise ValueError(f"orientation must be 'lower' or 'upper', got {orientation!r}")
    a = _as_matrix(a, "a")
    low, _ = _factor(_check_square_symmetric(a), 0, False)
    return low if orientation == "lower" else np.ascontiguousarray(low.T)


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix.

    Computed as ``L^{-T} L^{-1}`` from the recursive factorization, which
    returns ``L^{-1}`` alongside ``L``, then symmetrized exactly by mirroring
    the upper triangle, so the result satisfies ``out == out.T`` bit for bit.

    Raises:
        NotPositiveDefiniteError: from the factorization, with the index of
            the first leading minor that is not positive definite.
    """
    a = _as_matrix(a, "a")
    _, inv_low = _factor(_check_square_symmetric(a), 0, True)
    inv = inv_low.T @ inv_low
    upper = np.triu(inv)
    return upper + np.triu(inv, k=1).T

"""Dense linear algebra kernels shared by the whole package.

Numpy-only kernels that pin down the conventions everything else relies on:

* both float32 and float64 are supported and the input dtype is preserved;
* matrices handed to ``cholesky``/``spd_inverse``/``cholesky_of_inverse``
  are rejected with ``ValueError`` if any entry is NaN/Inf, checked for
  symmetry and re-symmetrized as ``(A + A^T) / 2`` before factorization
  (single precision Gram accumulation drifts off symmetric);
* the factorization is a recursive blocked lower Cholesky: split at n // 2,
  solve the off-diagonal block through the triangular inverse of the
  leading factor, recurse on the Schur complement. Blocks of at most
  ``LEAF`` (64) columns go to ``numpy.linalg.cholesky``/``numpy.linalg.inv``.
  Everything above the leaves is matrix products, so unlike LAPACK's
  threaded ``potrf`` the factor keeps its bits across BLAS thread counts
  (a test compares 1 and 2 threads);
* the upper Cholesky factor of ``A^{-1}`` takes one factorization, never
  forming ``A^{-1}``: it is ``J L^{-1} J`` with L the lower factor of
  ``J A J`` and J the index reversal, and the recursion returns ``L^{-1}``;
* Cholesky failures raise :class:`NotPositiveDefiniteError` carrying the
  0-based index of the first leading minor that is not positive definite
  (LAPACK's ``potrf`` convention), found by bisecting the failing leaf;
* triangular factors are returned as plain square arrays with the unused
  triangle zeroed exactly;
* ``triu_matmul`` multiplies an upper-triangular matrix, or its transpose,
  by a dense one in row panels of ``PANEL`` rows, reading only the upper
  triangle: about half the flops of a dense product, and whatever the
  lower triangle holds does not reach the result.

All functions are pure: no global state, identical inputs give identical
outputs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ShapeMismatchError",
    "NotPositiveDefiniteError",
    "cholesky",
    "spd_inverse",
    "cholesky_of_inverse",
    "transposed_copy",
    "triu_matmul",
]

#: Relative symmetry tolerance accepted before factorization.
SYMMETRY_RTOL = 1e-8

#: Largest block the recursive factorization hands to ``numpy.linalg`` whole.
LEAF = 64

#: Rows per panel of :func:`triu_matmul` (128 measured best from n=256 to 2048).
PANEL = 128


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


def _max_abs(a: np.ndarray) -> float:
    # max and -min in two passes, without an |A| buffer; NaN if any entry is.
    return max(float(a.max()), -float(a.min())) if a.size else 0.0


def transposed_copy(a: np.ndarray) -> np.ndarray:
    """A new row-major copy of ``a.T``, with ``np.ascontiguousarray(a.T)``'s bytes.

    Contiguous rows (row-major, or reversed) go 64 at a time, in cache: 3x
    faster than numpy's strided pass at 2048², which other layouts take.
    """
    if a.ndim != 2 or abs(a.strides[1]) != a.itemsize:
        return np.array(a.T, order="C")
    out = np.empty((a.shape[1], a.shape[0]), dtype=a.dtype)
    for s in range(0, a.shape[0], 64):
        out[:, s : s + 64] = a[s : s + 64].T
    return out


def triu_matmul(u: np.ndarray, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``triu(u) @ x``, or ``triu(u).T @ x``, reading only ``u``'s upper triangle.

    The rows of the result go ``PANEL`` at a time, each panel one product:
    rows [p, q) of ``triu(u) @ x`` are ``u[p:q, p:] @ x[p:]``, and those of
    the transpose ``u[:q, p:q].T @ x[:q]``, with the panel copied and the
    part of its diagonal block below the diagonal zeroed. Up to ``PANEL``
    rows that is the one product ``triu(u) @ x`` (bit for bit ``u @ x`` when
    ``u`` is upper triangular); past it the sums split, so the result moves
    at rounding level.
    """
    u, x = np.asarray(u), np.asarray(x)
    n = u.shape[0]
    if u.ndim != 2 or u.shape[1] != n or x.ndim != 2 or len(x) != n:
        raise ShapeMismatchError(f"cannot multiply triangular {u.shape} by {x.shape}")
    out = np.empty((n, x.shape[1]), dtype=np.result_type(u, x))
    below = np.tri(min(n, PANEL), k=-1, dtype=bool)
    for p in range(0, n, PANEL):
        q = min(p + PANEL, n)
        below_diag = below[: q - p, : q - p]
        if transpose:
            panel = np.array(u[:q, p:q])
            np.copyto(panel[p:], 0, where=below_diag)
            np.matmul(panel.T, x[:q], out=out[p:q])
        else:
            panel = np.array(u[p:q, p:])
            np.copyto(panel[:, : q - p], 0, where=below_diag)
            np.matmul(panel, x[p:], out=out[p:q])
    return out


def _check_square_symmetric(a: np.ndarray) -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"matrix must be square, got shape {a.shape}")
    # max|A| is NaN or Inf exactly when some entry is, so the scale of the
    # symmetry check doubles as the finiteness check, before any arithmetic.
    scale = _max_abs(a)
    if not np.isfinite(scale):
        raise ValueError("matrix contains NaN/Inf")
    # One tiled copy of A^T; A - A^T goes into one more buffer, which then
    # takes the exact symmetrization: f32 accumulation chains are only
    # symmetric to rounding.
    a_t = transposed_copy(a)
    out = np.subtract(a, a_t)
    gap = _max_abs(out) / scale if scale != 0.0 else 0.0
    if gap > SYMMETRY_RTOL:
        raise ValueError(
            f"matrix is not symmetric (relative asymmetry {gap:.3e} > {SYMMETRY_RTOL:.0e})"
        )
    np.add(a, a_t, out=out)
    out *= a.dtype.type(0.5)
    return out


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


def _factor(a: np.ndarray, offset: int, want_low: bool, want_inverse: bool):
    """Lower Cholesky factor L of ``a``, and/or ``L^{-1}``, as asked.

    Splits at ``h = n // 2``: ``L11 = chol(A11)``, ``L21 = A21 L11^{-T}`` and
    ``L22 = chol(A22 - L21 L21^T)``, with the triangular inverse
    ``inv([[L11, 0], [L21, L22]]) = [[L11^{-1}, 0], [-L22^{-1} L21 L11^{-1}, L22^{-1}]]``.
    Only the pieces asked for are assembled; the other is returned as None.
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
    l11, inv11 = _factor(a[:h, :h], offset, want_low, True)
    l21 = a[h:, :h] @ inv11.T
    l22, inv22 = _factor(a[h:, h:] - l21 @ l21.T, offset + h, want_low, want_inverse)
    low = inv = None
    if want_low:
        low = np.zeros_like(a)
        low[:h, :h] = l11
        low[h:, :h] = l21
        low[h:, h:] = l22
    if want_inverse:
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
        ValueError: if ``a`` has a NaN/Inf entry or is not symmetric.
        NotPositiveDefiniteError: with the 0-based failing pivot index.
    """
    if orientation not in ("lower", "upper"):
        raise ValueError(f"orientation must be 'lower' or 'upper', got {orientation!r}")
    a = _as_matrix(a, "a")
    low, _ = _factor(_check_square_symmetric(a), 0, True, False)
    return low if orientation == "lower" else np.ascontiguousarray(low.T)


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix.

    Computed as ``L^{-T} L^{-1}`` from the recursive factorization, which
    returns ``L^{-1}`` without assembling ``L``, then symmetrized exactly by
    mirroring the upper triangle, so the result satisfies ``out == out.T``
    bit for bit.

    Raises:
        ValueError: if ``a`` has a NaN/Inf entry or is not symmetric.
        NotPositiveDefiniteError: from the factorization, with the index of
            the first leading minor that is not positive definite.
    """
    a = _as_matrix(a, "a")
    _, inv_low = _factor(_check_square_symmetric(a), 0, False, True)
    inv = inv_low.T @ inv_low
    upper = np.triu(inv)
    return upper + np.triu(inv, k=1).T


def cholesky_of_inverse(a: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of the inverse of a symmetric positive definite matrix.

    Returns T, same dtype as ``a``, upper triangular with an exactly zero
    lower side and a strictly positive diagonal, such that
    ``T.T @ T == a^{-1}``. With J the index reversal, ``J a J = L L^T``
    gives ``a = (J L J)(J L J)^T`` with ``J L J`` upper triangular, so
    ``T = (J L J)^{-1} = J L^{-1} J``: one factorization that also returns
    ``L^{-1}``, with no inverse formed and factored again.

    Raises:
        ValueError: if ``a`` has a NaN/Inf entry or is not symmetric.
        NotPositiveDefiniteError: with the index of the first leading minor
            of ``a`` (not of ``J a J``) that is not positive definite. A
            matrix singular to rounding may factor in one order only; if
            ``a`` itself factors, the index p is the row where the reversed
            pass broke down, the smallest trailing block ``a[p:, p:]`` that
            failed.
    """
    a = _as_matrix(a, "a")
    # Symmetrizing the reversed view gives J sym(a) J entry for entry, with
    # no second copy to reverse it.
    sym_r = _check_square_symmetric(a[::-1, ::-1])
    try:
        _, inv_low = _factor(sym_r, 0, False, True)
    except NotPositiveDefiniteError as exc:
        # The reversed pass numbers trailing blocks of ``a``; factoring ``a``
        # itself raises with its first failing leading minor.
        _factor(np.ascontiguousarray(sym_r[::-1, ::-1]), 0, False, False)
        raise NotPositiveDefiniteError(pivot=a.shape[0] - 1 - exc.pivot) from None
    return np.ascontiguousarray(inv_low[::-1, ::-1])

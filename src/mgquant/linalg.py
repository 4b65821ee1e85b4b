"""Dense linear algebra kernels shared by the whole package.

Thin wrappers around numpy/LAPACK that pin down the conventions everything
else relies on:

* both float32 and float64 are supported and the input dtype is preserved;
* matrices handed to ``cholesky``/``spd_inverse`` are checked for symmetry
  and re-symmetrized as ``(A + A^T) / 2`` before factorization (single
  precision Gram accumulation drifts off symmetric);
* Cholesky failures raise :class:`NotPositiveDefiniteError` carrying the
  0-based index of the offending pivot;
* triangular factors are returned as plain square arrays with the unused
  triangle zeroed exactly.

All functions are pure: no global state, identical inputs give identical
outputs. SciPy's LAPACK bindings are imported by the two factorizations
only, so importing this module (every module of the package does, for
:class:`ShapeMismatchError`) loads numpy alone.
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


def symmetry_gap(a: np.ndarray) -> float:
    """Relative asymmetry ``max|A - A^T| / max|A|`` (0 for the zero matrix)."""
    a = np.asarray(a)
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(a - a.T))) / scale


def _check_square_symmetric(a: np.ndarray) -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"matrix must be square, got shape {a.shape}")
    gap = symmetry_gap(a)
    if gap > SYMMETRY_RTOL:
        raise ValueError(
            f"matrix is not symmetric (relative asymmetry {gap:.3e} > {SYMMETRY_RTOL:.0e})"
        )
    # Exact symmetrization; f32 accumulation chains are only symmetric to rounding.
    sym = (a + a.T) * a.dtype.type(0.5)
    return np.ascontiguousarray(sym)


def _potrf_potri(dtype: np.dtype):
    # Imported here, not at module level: loading scipy.linalg costs about
    # 0.35 s, and only the ``hessian`` command factorizes anything.
    from scipy.linalg import lapack

    if dtype == np.float64:
        return lapack.dpotrf, lapack.dpotri
    return lapack.spotrf, lapack.spotri


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
    sym = _check_square_symmetric(a)
    potrf, _ = _potrf_potri(sym.dtype)
    factor, info = potrf(sym, lower=(orientation == "lower"), clean=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefiniteError(pivot=info - 1)
    if info < 0:
        raise RuntimeError(f"LAPACK potrf: illegal argument {-info}")
    return factor


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix.

    Computed via Cholesky (potrf + potri), then symmetrized exactly by
    mirroring the computed triangle, so the result satisfies
    ``out == out.T`` bit for bit.

    Raises:
        NotPositiveDefiniteError: propagated from the factorization.
    """
    a = _as_matrix(a, "a")
    sym = _check_square_symmetric(a)
    potrf, potri = _potrf_potri(sym.dtype)
    factor, info = potrf(sym, lower=0, clean=0, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefiniteError(pivot=info - 1)
    if info < 0:
        raise RuntimeError(f"LAPACK potrf: illegal argument {-info}")
    inv, info = potri(factor, lower=0)
    if info != 0:
        raise NotPositiveDefiniteError(
            pivot=max(info - 1, 0),
            message=f"inverse from Cholesky factor failed (info {info})",
        )
    upper = np.triu(inv)
    return upper + np.triu(inv, k=1).T

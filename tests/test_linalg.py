import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgquant.calibration import build_hessian_cholesky
from mgquant.linalg import (
    PANEL,
    NotPositiveDefiniteError,
    ShapeMismatchError,
    cholesky,
    cholesky_of_inverse,
    spd_inverse,
    transposed_copy,
    triu_matmul,
)


def random_spd(rng, n, dtype=np.float64):
    a = rng.standard_normal((n + 4, n)).astype(dtype)
    return (a.T @ a + n * np.eye(n, dtype=dtype)).astype(dtype)


class TestCholesky:
    def test_scaled_identity(self):
        t = cholesky(0.5 * np.eye(3), "lower")
        assert np.allclose(t, 0.70710678 * np.eye(3), atol=1e-8)

    def test_hand_cholesky_2x2(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        t = cholesky(a, "lower")
        assert np.allclose(t, [[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        assert np.allclose(t @ t.T, a, atol=1e-12)

    def test_upper_orientation(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        t = cholesky(a, "upper")
        assert np.allclose(t.T @ t, a, atol=1e-12)
        assert t[1, 0] == 0.0

    def test_indefinite_reports_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert exc.value.pivot == 1

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            cholesky(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_nonsquare_rejected(self):
        with pytest.raises(ShapeMismatchError):
            cholesky(np.ones((2, 3)))

    def test_zero_side_exactly_zero_and_diag_positive(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 12)
        lo = cholesky(a, "lower")
        up = cholesky(a, "upper")
        assert np.all(np.triu(lo, k=1) == 0.0)
        assert np.all(np.tril(up, k=-1) == 0.0)
        assert np.all(np.diag(lo) > 0)
        assert np.all(np.diag(up) > 0)

    def test_reconstruction_100_seeded_spd(self):
        # relative Frobenius reconstruction error below 1e-8 in f64
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 65))
            a = random_spd(rng, n)
            t = cholesky(a, "lower")
            rel = np.linalg.norm(t @ t.T - a) / np.linalg.norm(a)
            assert rel < 1e-8

    def test_float32_supported(self):
        rng = np.random.default_rng(3)
        a = random_spd(rng, 8, dtype=np.float32)
        t = cholesky(a, "lower")
        assert t.dtype == np.float32
        assert np.allclose(t @ t.T, a, rtol=1e-4, atol=1e-4)


class TestSpdInverse:
    def test_scalar_identity(self):
        assert np.allclose(spd_inverse(2.0 * np.eye(4)), 0.5 * np.eye(4))

    def test_closed_form_2x2(self):
        inv = spd_inverse(np.array([[4.0, 2.0], [2.0, 3.0]]))
        assert np.allclose(inv, [[0.375, -0.25], [-0.25, 0.5]], atol=1e-12)

    def test_residual_on_random_gram(self):
        rng = np.random.default_rng(8)
        a = random_spd(rng, 8)
        inv = spd_inverse(a)
        assert np.max(np.abs(a @ inv - np.eye(8))) < 1e-6

    def test_result_exactly_symmetric(self):
        rng = np.random.default_rng(9)
        inv = spd_inverse(random_spd(rng, 16))
        assert np.array_equal(inv, inv.T)

    def test_propagates_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            spd_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestNonFiniteInput:
    ENTRY_POINTS = (cholesky, spd_inverse, cholesky_of_inverse)

    @pytest.mark.parametrize("factorize", ENTRY_POINTS)
    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_rejected_before_arithmetic(self, factorize, bad):
        small = np.array([[1.0, bad], [bad, 1.0]])
        large = random_spd(np.random.default_rng(7), 70)
        large[3, 66] = large[66, 3] = bad
        diagonal = np.eye(3)
        diagonal[2, 2] = bad
        for a in (small, large, diagonal, small.astype(np.float32)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="NaN/Inf"):
                    factorize(a)


# The factorization recurses on halves down to blocks of LEAF = 64 columns;
# these sizes sit on, around and well past that boundary.
BOUNDARY_SIZES = (1, 63, 64, 65, 129, 300)
DTYPES = (np.float32, np.float64)


def indefinite_at(rng, n, k, dtype=np.float64):
    """SPD matrix whose leading minor of size k + 1 is made indefinite.

    The k-th pivot of the Cholesky factorization is ``a_kk - a_k^T A_k^{-1} a_k``;
    lowering ``a_kk`` turns that pivot to ``-n`` while every smaller leading
    minor stays positive definite.
    """
    a = random_spd(rng, n)
    schur = a[k, k] - a[k, :k] @ np.linalg.solve(a[:k, :k], a[:k, k]) if k else a[0, 0]
    a[k, k] -= schur + n
    return a.astype(dtype)


class TestRecursionBoundaries:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_cholesky_both_orientations(self, n, dtype):
        a = random_spd(np.random.default_rng(n), n, dtype=dtype)
        lo = cholesky(a, "lower")
        up = cholesky(a, "upper")
        for t, rebuilt in ((lo, lo @ lo.T), (up, up.T @ up)):
            assert t.dtype == dtype
            if dtype == np.float64:
                assert np.linalg.norm(rebuilt - a) / np.linalg.norm(a) < 1e-8
            else:
                assert np.allclose(rebuilt, a, rtol=1e-4, atol=1e-4)
            assert np.all(np.diag(t) > 0)
        assert np.all(np.triu(lo, k=1) == 0.0)
        assert np.all(np.tril(up, k=-1) == 0.0)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_spd_inverse_residual_and_symmetry(self, n, dtype):
        a = random_spd(np.random.default_rng(100 + n), n, dtype=dtype)
        inv = spd_inverse(a)
        assert inv.dtype == dtype
        bound = 1e-6 if dtype == np.float64 else 1e-4
        assert np.max(np.abs(a @ inv - np.eye(n))) < bound
        assert np.array_equal(inv, inv.T)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_failing_pivot_index(self, n, dtype):
        for k in sorted({k for k in (0, 63, 64, 65, n - 1) if k < n}):
            a = indefinite_at(np.random.default_rng(k), n, k, dtype)
            for factorize in (cholesky, lambda m: cholesky(m, "upper"), spd_inverse):
                with pytest.raises(NotPositiveDefiniteError) as exc:
                    factorize(a)
                assert exc.value.pivot == k, (n, k)

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_hessian_message_names_pivot(self, n):
        for k in sorted({k for k in (0, 63, 64, 65, n - 1) if k < n}):
            gram = indefinite_at(np.random.default_rng(k), n, k)
            with pytest.raises(NotPositiveDefiniteError, match=rf"at pivot {k};") as exc:
                build_hessian_cholesky(gram, damp_frac=0.0)
            assert exc.value.pivot == k

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_cholesky_of_inverse_factor_and_residual(self, n, dtype):
        a = random_spd(np.random.default_rng(200 + n), n, dtype=dtype)
        hc = cholesky_of_inverse(a)
        assert hc.dtype == dtype
        assert np.all(np.tril(hc, k=-1) == 0.0)
        assert np.all(np.diag(hc) > 0)
        bound = 1e-6 if dtype == np.float64 else 1e-4
        assert np.max(np.abs(hc.T @ hc @ a - np.eye(n))) < bound

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_cholesky_of_inverse_pivot_matches_cholesky(self, n, dtype):
        # the pass runs on the reversed matrix, but the pivot is numbered in a's;
        # a negative last entry makes the reversed pass fail at its first pivot
        for k in sorted({k for k in (0, 63, 64, 65, n - 1) if k < n}):
            a = indefinite_at(np.random.default_rng(k), n, k, dtype)
            tail_negative = a.copy()
            tail_negative[-1, -1] = -n
            for m in (a, tail_negative):
                with pytest.raises(NotPositiveDefiniteError) as forward:
                    cholesky(m)
                with pytest.raises(NotPositiveDefiniteError) as exc:
                    cholesky_of_inverse(m)
                assert exc.value.pivot == forward.value.pivot == k, (n, k)

    def test_cholesky_of_inverse_singular_to_rounding(self):
        # rank 2 up to rounding: the forward order factors with a last pivot
        # of about 4e-16, the reversed one fails on the whole matrix
        a = np.array([[0.65, -0.24, -0.59], [-0.24, 0.17, 0.14], [-0.59, 0.14, 0.61]])
        assert np.all(np.diag(cholesky(a)) > 0)
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky_of_inverse(a)
        assert exc.value.pivot == 0


class TestTransposedCopy:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 70), (70, 1), (64, 64), (130, 97), (200, 3)])
    @pytest.mark.parametrize("view", ["plain", "reversed", "fortran", "strided"])
    def test_bytes_equal_numpy_copy(self, dtype, shape, view):
        rng = np.random.default_rng(sum(shape))
        a = (100 * rng.standard_normal(shape)).astype(dtype)
        if view == "reversed":
            a = a[::-1, ::-1]
        elif view == "fortran":
            a = np.asfortranarray(a)
        elif view == "strided":
            a = np.repeat(a, 2, axis=1)[:, ::2]
        out = transposed_copy(a)
        assert out.flags.c_contiguous and out.dtype == a.dtype
        assert out.shape == a.T.shape
        assert out.tobytes() == np.ascontiguousarray(a.T).tobytes()
        assert not np.shares_memory(out, a)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_triu_matmul_takes_the_upper_triangle(data):
    # Up to the panel width the product is one matmul, bit for bit u @ x;
    # past it the panels split each sum, so it moves only at rounding level.
    # Whatever lies below the diagonal never reaches the result.
    n = data.draw(st.sampled_from([1, 2, 17, PANEL - 1, PANEL, PANEL + 1, 2 * PANEL + 19]),
                  label="n")
    k = data.draw(st.integers(1, 9), label="k")
    dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
    transpose = data.draw(st.booleans(), label="transpose")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    u = np.triu(rng.standard_normal((n, n))).astype(dtype)
    x = rng.standard_normal((n, k)).astype(dtype)
    got = triu_matmul(u, x, transpose=transpose)
    a = u.T if transpose else u
    assert got.dtype == dtype
    if n <= PANEL:
        assert np.array_equal(got, a @ x)
    else:
        bound = 2 * n * np.finfo(dtype).eps * (np.abs(a).astype(np.float64) @ np.abs(x))
        assert np.all(np.abs(got - (a.astype(np.float64) @ x)) <= bound)
    garbage = u + np.tril(np.full((n, n), np.nan, dtype=dtype), k=-1)
    assert np.array_equal(triu_matmul(garbage, x, transpose=transpose), got)


def test_triu_matmul_checks_shapes():
    with pytest.raises(ShapeMismatchError):
        triu_matmul(np.eye(3), np.ones((4, 2)))
    with pytest.raises(ShapeMismatchError):
        triu_matmul(np.ones((3, 4)), np.ones((3, 2)))

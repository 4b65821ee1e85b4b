import numpy as np
import pytest

from mgquant.calibration import (
    CHUNK_ROWS,
    GramAccumulator,
    build_hessian_cholesky,
    gram_break_even,
    proxy_loss,
)
from mgquant.linalg import NotPositiveDefiniteError


class TestAccumulate:
    def test_zero_batch_keeps_gram_zero(self):
        acc = GramAccumulator(d_col=3)
        acc.accumulate(np.zeros((4, 3)))
        assert np.all(acc.gram == 0.0)
        assert acc.samples_seen == 4

    def test_identity_batch(self):
        acc = GramAccumulator(d_col=2)
        acc.accumulate(np.eye(2))
        assert np.array_equal(acc.gram, 2.0 * np.eye(2))

    def test_two_half_batches_equal_one_full(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 6))
        one = GramAccumulator(d_col=6).accumulate(x)
        two = GramAccumulator(d_col=6)
        two.accumulate(x[:17]).accumulate(x[17:])
        assert np.max(np.abs(one.gram - two.gram)) < 1e-10

    def test_split_invariance_is_bit_exact(self):
        # arbitrary batch boundaries over the same row stream give the same bytes
        rng = np.random.default_rng(1)
        x = rng.standard_normal((700, 5))
        ref = GramAccumulator(d_col=5).accumulate(x).gram
        for cuts in ([100], [256], [3, 250, 500], [1] * 0 + [699]):
            acc = GramAccumulator(d_col=5)
            prev = 0
            for c in cuts + [700]:
                acc.accumulate(x[prev:c])
                prev = c
            assert np.array_equal(acc.gram, ref)

    def test_split_invariance_across_full_chunks_is_bit_exact(self):
        # two full chunks and a remainder; cuts on and beside a chunk boundary
        rng = np.random.default_rng(6)
        m = 2 * CHUNK_ROWS + 37
        x = rng.standard_normal((m, 5))
        ref = GramAccumulator(d_col=5).accumulate(x).gram
        for cuts in ([CHUNK_ROWS - 1], [CHUNK_ROWS], [CHUNK_ROWS + 1],
                     [CHUNK_ROWS - 1, CHUNK_ROWS + 1, 2 * CHUNK_ROWS]):
            acc = GramAccumulator(d_col=5)
            prev = 0
            for c in cuts + [m]:
                acc.accumulate(x[prev:c])
                prev = c
            assert np.array_equal(acc.gram, ref), cuts
        acc = GramAccumulator(d_col=5)
        for start in range(0, m, 37):
            acc.accumulate(x[start:start + 37])
        assert acc.samples_seen == m
        assert np.array_equal(acc.gram, ref)

    def test_reading_gram_mid_stream_keeps_bytes(self):
        # reading .gram folds the buffered rows into its copy, not the running sum
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5000, 64))
        ref = GramAccumulator(d_col=64).accumulate(x).gram
        acc = GramAccumulator(d_col=64).accumulate(x[:100])
        early = acc.gram
        assert np.array_equal(early, GramAccumulator(d_col=64).accumulate(x[:100]).gram)
        acc.accumulate(x[100:])
        assert np.array_equal(acc.gram, ref)
        assert np.array_equal(acc.gram, ref)  # a second read changes nothing either

    def test_dimension_mismatch(self):
        acc = GramAccumulator(d_col=3)
        with pytest.raises(ValueError, match="d_col"):
            acc.accumulate(np.zeros((2, 4)))

    def test_nonfinite_rejected(self):
        acc = GramAccumulator(d_col=2)
        with pytest.raises(ValueError):
            acc.accumulate(np.array([[1.0, np.inf]]))

    def test_order_invariance_within_tolerance(self):
        rng = np.random.default_rng(2)
        batches = [rng.standard_normal((30, 8)) for _ in range(5)]
        a = GramAccumulator(d_col=8)
        for b in batches:
            a.accumulate(b)
        b_acc = GramAccumulator(d_col=8)
        for b in reversed(batches):
            b_acc.accumulate(b)
        rel = np.max(np.abs(a.gram - b_acc.gram)) / np.max(np.abs(a.gram))
        assert rel < 1e-9

    def test_float32_batches_accumulate_in_f64(self):
        # float32 rows are upcast exactly, so they give the float64 rows' bytes:
        # in one batch, at every cut of the full-chunk split test, and in a
        # stream that alternates the two dtypes
        rng = np.random.default_rng(8)
        m = 2 * CHUNK_ROWS + 37
        x32 = rng.standard_normal((m, 5)).astype(np.float32)
        x64 = x32.astype(np.float64)
        ref = GramAccumulator(d_col=5).accumulate(x64).gram
        one = GramAccumulator(d_col=5).accumulate(x32).gram
        assert one.dtype == np.float64 and one.tobytes() == ref.tobytes()
        for cuts in ([CHUNK_ROWS - 1], [CHUNK_ROWS], [CHUNK_ROWS + 1],
                     [CHUNK_ROWS - 1, CHUNK_ROWS + 1, 2 * CHUNK_ROWS], list(range(37, m, 37))):
            for mixed in (False, True):
                acc = GramAccumulator(d_col=5)
                for i, (a, b) in enumerate(zip([0] + cuts, cuts + [m])):
                    acc.accumulate((x64 if mixed and i % 2 else x32)[a:b])
                assert acc.gram.tobytes() == ref.tobytes(), (cuts, mixed)

    @pytest.mark.parametrize("rows", [8, 2 * CHUNK_ROWS + 37])
    def test_proxy_loss_float32_rows_match_float64(self, rows):
        # (6, 5) weights break even at 60/7 rows: 8 sums in row order, the
        # longer stream folds the Gram
        rng = np.random.default_rng(9)
        w = rng.standard_normal((6, 5))
        q = np.round(w)
        x32 = rng.standard_normal((rows, 5)).astype(np.float32)
        assert 8 < gram_break_even(6, 5) < 9
        halves = [x32[: rows // 2], x32[rows // 2:]]
        loss = proxy_loss(w, q, [h.astype(np.float64) for h in halves])
        assert proxy_loss(w, q, halves) == loss > 0


class TestBuildHessianCholesky:
    def test_identity_calibration(self):
        acc = GramAccumulator(d_col=2).accumulate(np.eye(2))
        hc = build_hessian_cholesky(acc.gram, damp_frac=0.0)
        assert np.allclose(hc, 0.70710678 * np.eye(2), atol=1e-8)

    def test_diagonal_gram(self):
        hc = build_hessian_cholesky(np.diag([2.0, 8.0]), damp_frac=0.0)
        assert np.allclose(np.diag(hc), [1 / np.sqrt(2.0), 1 / np.sqrt(8.0)])
        assert hc[1, 0] == 0.0 and hc[0, 1] == 0.0

    def test_residual_oracle_16dim(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((64, 16))
        acc = GramAccumulator(d_col=16).accumulate(x)
        gram = acc.gram
        hc = build_hessian_cholesky(gram, damp_frac=0.01)
        lam = 0.01 * np.mean(np.diag(gram))
        residual = hc.T @ hc @ (gram + lam * np.eye(16))
        assert np.max(np.abs(residual - np.eye(16))) < 1e-5

    def test_factor_is_upper_with_positive_diag(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((50, 10))
        acc = GramAccumulator(d_col=10).accumulate(x)
        hc = build_hessian_cholesky(acc.gram)
        assert np.all(np.tril(hc, k=-1) == 0.0)
        assert np.all(np.diag(hc) > 0.0)

    def test_damping_monotonicity(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 6))
        acc = GramAccumulator(d_col=6).accumulate(x)
        gram = acc.gram
        prev = None
        for frac in (0.0, 0.01, 0.1, 1.0):
            lam = frac * np.mean(np.diag(gram))
            mn = np.min(np.diag(gram + lam * np.eye(6)))
            if prev is not None:
                assert mn > prev
            prev = mn

    def test_non_square_gram_rejected(self):
        for gram in (np.ones((2, 3)), np.ones(4), np.zeros((0, 0))):
            with pytest.raises(ValueError, match="square"):
                build_hessian_cholesky(gram)

    def test_gram_left_unchanged(self):
        gram = np.diag([2.0, 8.0])
        build_hessian_cholesky(gram, damp_frac=0.5)
        assert np.array_equal(gram, np.diag([2.0, 8.0]))

    def test_negative_damp_rejected(self):
        with pytest.raises(ValueError):
            build_hessian_cholesky(2.0 * np.eye(2), damp_frac=-0.1)

    def test_nonfinite_damp_rejected(self):
        for damp in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="damp_frac"):
                build_hessian_cholesky(2.0 * np.eye(2), damp_frac=damp)

    def test_indefinite_gram_advises_larger_damp(self):
        with pytest.raises(NotPositiveDefiniteError, match="damp_frac"):
            build_hessian_cholesky(np.diag([1.0, -5.0]), damp_frac=0.0)

    def test_zero_gram_uses_absolute_damp(self):
        acc = GramAccumulator(d_col=3)
        acc.accumulate(np.zeros((2, 3)))
        hc = build_hessian_cholesky(acc.gram, damp_frac=0.25)
        # gram is zero, lambda = 0.25, inverse = 4*I, factor = 2*I
        assert np.allclose(hc, 2.0 * np.eye(3))


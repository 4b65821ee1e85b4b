import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgquant.calibration import (
    GramAccumulator,
    build_hessian_cholesky,
    gram_break_even,
    proxy_loss,
)
from mgquant.baselines import quantize_rtn_matrix
from mgquant.cli import main
from mgquant.gptq import SUB_BLOCK, quantize_blockwise, validate_widths
from mgquant.linalg import ShapeMismatchError
from mgquant.pipeline import result_to_sections
from mgquant.tensorfile import write_tensor_file
from mgquant.quant import quantize


def correlated_layer(seed, d_row=64, d_col=64, rows=256):
    rng = np.random.default_rng(seed)
    w = 0.05 * rng.standard_normal((d_row, d_col))
    x = rng.standard_normal((rows, d_col)) @ (rng.standard_normal((d_col, d_col)) / np.sqrt(d_col))
    hc = build_hessian_cholesky(GramAccumulator(d_col=d_col).accumulate(x).gram, 0.01)
    return w, hc, [x]


class TestEngineBasics:
    def test_identity_factor_reduces_to_per_column_quantization(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((8, 12))
        hc = 0.7 * np.eye(12)
        widths = np.array([1, 2, 3, 4] * 3)
        res = quantize_blockwise(w, hc, widths, block_size=5)
        for j in range(12):
            expect = quantize(w[:, j], int(widths[j]))[0]
            assert np.array_equal(res.quantized[:, j], expect)

    def test_identity_factor_block_size_invariance(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((6, 10))
        hc = 1.3 * np.eye(10)
        widths = np.full(10, 2)
        outs = [
            quantize_blockwise(w, hc, widths, block_size=b).quantized
            for b in (1, 3, 10)
        ]
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[1], outs[2])

    def test_exactly_representable_passes_through(self):
        rng = np.random.default_rng(5)
        codes = rng.integers(0, 4, size=(8, 6))
        codes[0, :] = 0
        codes[1, :] = 3
        w = 0.25 * codes.astype(np.float64)
        hc = np.triu(rng.standard_normal((6, 6)))
        np.fill_diagonal(hc, np.abs(np.diag(hc)) + 0.5)
        res = quantize_blockwise(w, hc, np.full(6, 2), block_size=3)
        assert np.array_equal(res.quantized, w)
        assert np.all(res.block_errors == 0.0)

    def test_all_block_sizes_give_on_grid_outputs(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((5, 9))
        _, hc, _ = correlated_layer(6, d_row=5, d_col=9, rows=40)
        widths = np.array([1, 2, 2, 3, 4, 1, 3, 2, 4])
        for b in (1, 4, 9):
            res = quantize_blockwise(w, hc, widths, block_size=b)
            for j in range(9):
                expect = res.scales[j] * (res.codes[:, j].astype(np.float64) - res.zeros[j])
                assert np.array_equal(res.quantized[:, j], expect)
                assert res.widths[j] == widths[j]
                assert res.codes[:, j].max() < 1 << int(widths[j])

    def test_determinism(self):
        w, hc, _ = correlated_layer(7, d_row=16, d_col=16, rows=64)
        widths = np.full(16, 2)
        a = quantize_blockwise(w, hc, widths, block_size=4)
        b = quantize_blockwise(w, hc, widths, block_size=4)
        assert np.array_equal(a.quantized, b.quantized)
        assert np.array_equal(a.block_errors, b.block_errors)
        assert np.array_equal(a.codes, b.codes)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weights_left_unchanged(self, dtype):
        # the engine quantizes in place in its own copy, never in ``w``
        w, hc, _ = correlated_layer(10, d_row=12, d_col=20, rows=80)
        w = w.astype(dtype)
        before = w.copy()
        res = quantize_blockwise(w, hc, np.arange(20) % 4 + 1, block_size=8,
                                 keep_residuals=True)
        assert np.array_equal(w, before)
        assert not np.shares_memory(res.quantized, w)
        assert not np.array_equal(res.quantized, w)

    def test_column_major_outputs_write_their_row_major_bytes(self, tmp_path):
        w, hc, _ = correlated_layer(11, d_row=12, d_col=20, rows=80)
        res = quantize_blockwise(w.astype(np.float32), hc, np.arange(20) % 4 + 1, block_size=8)
        for arr in (res.quantized, res.codes):
            assert arr.flags.f_contiguous and not arr.flags.c_contiguous
        sections = result_to_sections(res)
        write_tensor_file(tmp_path / "views.mgqt", sections)
        write_tensor_file(tmp_path / "copies.mgqt",
                          {k: np.ascontiguousarray(v) for k, v in sections.items()})
        assert (tmp_path / "views.mgqt").read_bytes() == (tmp_path / "copies.mgqt").read_bytes()

    def test_residuals_match_manual_compensation(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((4, 3))
        hc = np.triu(rng.standard_normal((3, 3)))
        np.fill_diagonal(hc, np.abs(np.diag(hc)) + 0.5)
        res = quantize_blockwise(w, hc, np.full(3, 2), block_size=3, keep_residuals=True)
        assert np.array_equal(res.residuals[:, 0], w[:, 0])
        q0 = quantize(w[:, 0], 2)[0]
        e0 = (w[:, 0] - q0) / hc[0, 0]
        expect1 = w[:, 1] - e0 * hc[0, 1]
        assert np.allclose(res.residuals[:, 1], expect1, atol=1e-15)

    def test_block_error_records_squared_compensation(self):
        w, hc, _ = correlated_layer(9, d_row=8, d_col=8, rows=32)
        res = quantize_blockwise(w, hc, np.full(8, 2), block_size=4, keep_residuals=True)
        total = 0.0
        for j in range(8):
            q = quantize(res.residuals[:, j], 2)[0]
            e = (res.residuals[:, j] - q) / hc[j, j]
            total += float(e @ e)
        assert np.sum(res.block_errors) == pytest.approx(total, rel=1e-12)


def reference_blockwise(w, hc, widths, block_size):
    """The engine as a plain loop: one column at a time on (d_row, d_col)
    arrays, each column's error reaching the rest of its block by a rank-1
    update."""
    hc = hc.astype(w.dtype)
    d_row, d_col = w.shape
    work = np.array(w, copy=True)
    quantized = np.zeros_like(work)
    residuals = np.zeros_like(work)
    codes = np.zeros(w.shape, dtype=np.uint8)
    scales = np.zeros(d_col)
    zeros = np.zeros(d_col)
    block_errors = []
    for b in range(0, d_col, block_size):
        e = min(b + block_size, d_col)
        errs = np.zeros((d_row, e - b), dtype=work.dtype)
        for j in range(b, e):
            col = work[:, j]
            residuals[:, j] = col
            q, codes[:, j], scales[j], zeros[j] = quantize(col, int(widths[j]))
            quantized[:, j] = q
            err = (col - quantized[:, j]) / hc[j, j]
            errs[:, j - b] = err
            if j + 1 < e:
                work[:, j + 1 : e] -= np.outer(err, hc[j, j + 1 : e])
        block_errors.append(float(np.sum(np.square(errs, dtype=np.float64))))
        if e < d_col:
            work[:, e:] -= errs @ hc[b:e, e:]
    return {"quantized": quantized, "codes": codes, "scales": scales, "zeros": zeros,
            "residuals": residuals, "block_errors": np.array(block_errors)}


class TestAgainstReference:
    """The sub-blocked engine against the column-at-a-time loop it batches."""

    D_ROW, D_COL = 48, 150  # 150 is not a multiple of the sub-block width

    def run_both(self, w, hc, block_size, keep_residuals):
        # Training keeps the residuals and inference does not; both must
        # match the loop, which always records them.
        widths = np.random.default_rng(22).integers(1, 5, self.D_COL)
        res = quantize_blockwise(w, hc, widths, block_size=block_size,
                                 keep_residuals=keep_residuals)
        assert np.array_equal(res.widths, widths)
        ref = reference_blockwise(w, hc, widths, block_size)
        if not keep_residuals:
            assert res.residuals is None
            del ref["residuals"]
        return res, ref

    @pytest.mark.parametrize("keep_residuals", [True, False])
    @pytest.mark.parametrize("block_size", [1, 7, 128, D_COL])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_column_at_a_time_loop(self, dtype, block_size, keep_residuals):
        assert self.D_COL % SUB_BLOCK
        w, hc, _ = correlated_layer(21, d_row=self.D_ROW, d_col=self.D_COL, rows=300)
        res, ref = self.run_both(w.astype(dtype), hc, block_size, keep_residuals)
        assert np.array_equal(res.codes, ref["codes"])
        # Only the order of the compensation sums differs: each entry sums
        # at most d_col terms, so it may move by d_col roundings of the largest.
        tol = self.D_COL * np.finfo(dtype).eps
        for key in sorted(ref.keys() - {"codes"}):
            got = np.asarray(getattr(res, key), dtype=np.float64)
            want = np.asarray(ref[key], dtype=np.float64)
            assert np.abs(got - want).max() <= tol * np.abs(want).max(), key

    @pytest.mark.parametrize("keep_residuals", [True, False])
    @pytest.mark.parametrize("block_size", [1, 7, 128, D_COL])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_diagonal_factor_is_exact(self, dtype, block_size, keep_residuals):
        # no cross terms, so nothing is summed in another order
        rng = np.random.default_rng(23)
        w = (0.05 * rng.standard_normal((self.D_ROW, self.D_COL))).astype(dtype)
        hc = np.diag(rng.uniform(0.5, 2.0, self.D_COL))
        res, ref = self.run_both(w, hc, block_size, keep_residuals)
        for key, want in ref.items():
            assert np.array_equal(getattr(res, key), want), key


class TestEngineOracle:
    def test_bracketed_by_enumeration_and_rtn(self):
        # engine proxy loss sits between the exhaustive per-column-code optimum
        # (on the engine's own grids) and plain RTN
        w, hc, calib = correlated_layer(11, d_row=2, d_col=4, rows=16)
        widths = np.full(4, 2)
        res = quantize_blockwise(w, hc, widths, block_size=4)
        rtn = quantize_rtn_matrix(w, 2)
        res_loss = proxy_loss(w, res.quantized, calib)
        assert res_loss <= proxy_loss(w, rtn.quantized, calib)

        # proxy loss decomposes over weight rows; per row enumerate every
        # combination of one level per column
        x = calib[0]
        m = x.shape[0]
        level_sets = [
            res.scales[j] * (np.arange(1 << int(res.widths[j]), dtype=np.float64) - res.zeros[j])
            for j in range(4)
        ]
        best_total = 0.0
        for i in range(w.shape[0]):
            best = np.inf
            for c0 in level_sets[0]:
                for c1 in level_sets[1]:
                    for c2 in level_sets[2]:
                        for c3 in level_sets[3]:
                            d = w[i] - np.array([c0, c1, c2, c3])
                            best = min(best, float(np.sum((d @ x.T) ** 2)))
            best_total += best
        oracle = best_total / m
        assert res_loss >= oracle - 1e-12

    def test_compensation_helps_statistically(self):
        wins = 0
        for seed in range(30):
            w, hc, calib = correlated_layer(100 + seed)
            g = quantize_blockwise(w, hc, np.full(64, 2), block_size=16)
            r = quantize_rtn_matrix(w, 2)
            wins += proxy_loss(w, g.quantized, calib) <= proxy_loss(w, r.quantized, calib)
        assert wins >= 29


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_engine_invariants(data):
    # for any shape, widths 1..8, block size and work dtype: codes fit their
    # widths, every column lies on its grid, widths come back as given, w is
    # left alone, and a diagonal factor gives RTN bit for bit
    d_row = data.draw(st.integers(1, 24), label="d_row")
    d_col = data.draw(st.integers(1, 40), label="d_col")
    widths = np.array(data.draw(st.lists(st.integers(1, 8), min_size=d_col, max_size=d_col),
                                label="widths"))
    block_size = data.draw(st.integers(1, d_col), label="block_size")
    dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
    scale = data.draw(st.sampled_from([1e-3, 0.05, 1.0, 1e3]), label="scale")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    w = (scale * rng.standard_normal((d_row, d_col))).astype(dtype)
    hc = np.triu(0.3 * rng.standard_normal((d_col, d_col)))
    np.fill_diagonal(hc, rng.uniform(0.5, 2.0, d_col))
    before = w.copy()

    res = quantize_blockwise(w, hc, widths, block_size=block_size)
    assert np.array_equal(w, before)
    assert np.array_equal(res.widths, widths)
    assert res.codes.dtype == np.uint8 and (res.codes < (1 << widths)).all()
    on_grid = (res.scales * (res.codes - res.zeros)).astype(dtype)
    assert res.quantized.dtype == dtype and np.array_equal(res.quantized, on_grid)

    bits = int(widths[0])
    diag = quantize_blockwise(w, np.diag(np.diag(hc)), np.full(d_col, bits),
                              block_size=block_size)
    rtn = quantize_rtn_matrix(w, bits)
    assert np.array_equal(diag.quantized, rtn.quantized)
    assert np.array_equal(diag.codes, rtn.codes)
    assert np.array_equal(w, before)


class TestValidation:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e300, 2.5])
    def test_non_integer_widths_rejected_without_warnings(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^widths must be integers$"):
                validate_widths(np.array([2.0, bad, 3.0]), 3)
            with pytest.raises(ValueError, match="^widths must be integers$"):
                quantize_blockwise(np.ones((2, 3)), np.eye(3), np.array([2.0, bad, 3.0]))
            assert validate_widths(np.array([2.0, 1.0, 8.0]), 3).tolist() == [2, 1, 8]

    def test_width_bounds(self):
        w = np.ones((2, 3))
        hc = np.eye(3)
        with pytest.raises(ValueError):
            quantize_blockwise(w, hc, np.array([0, 2, 2]))
        # codes are stored one byte each
        with pytest.raises(ValueError):
            quantize_blockwise(w, hc, np.array([9, 2, 2]))
        with pytest.raises(ValueError):
            quantize_rtn_matrix(w, 9)
        with pytest.raises(ShapeMismatchError):
            quantize_blockwise(w, hc, np.array([2, 2]))

    def test_factor_shape_and_diag(self):
        w = np.ones((2, 3))
        with pytest.raises(ShapeMismatchError):
            quantize_blockwise(w, np.eye(4), np.full(3, 2))
        bad = np.eye(3)
        bad[1, 1] = 0.0
        with pytest.raises(ValueError, match="diagonal"):
            quantize_blockwise(w, bad, np.full(3, 2))

    def test_overflowing_last_column_rejected(self):
        # the span of the last column overflows; no NaN column comes back
        w = np.array([[0.1, 1e308], [0.2, -1e308], [0.3, 0.0]])
        with pytest.raises(ValueError, match="magnitude"):
            quantize_blockwise(w, np.eye(2), np.full(2, 2), block_size=2)
        with pytest.raises(ValueError, match="magnitude"):
            quantize_rtn_matrix(w, 2)

    def test_block_size_bounds(self):
        w = np.ones((2, 3))
        with pytest.raises(ValueError):
            quantize_blockwise(w, np.eye(3), np.full(3, 2), block_size=0)
        with pytest.raises(ValueError):
            quantize_blockwise(w, np.eye(3), np.full(3, 2), block_size=4)


def loop_oracle(w, q, x):
    """``||(w - q) x^T||_F^2 / m``, one output entry at a time in row order."""
    total = 0.0
    for i in range(w.shape[0]):
        for r in range(x.shape[0]):
            acc = 0.0
            for j in range(w.shape[1]):
                acc += (w[i, j] - q[i, j]) * x[r, j]
            total += acc * acc
    return total / x.shape[0]


class TestProxyLoss:
    def test_zero_when_equal(self):
        w = np.ones((3, 4))
        assert proxy_loss(w, w, [np.ones((5, 4))]) == 0.0

    def test_identity_calibration_reduces_to_frobenius(self):
        rng = np.random.default_rng(12)
        w = rng.standard_normal((3, 4))
        q = rng.standard_normal((3, 4))
        expect = np.sum((w - q) ** 2) / 4.0
        assert proxy_loss(w, q, [np.eye(4)]) == pytest.approx(expect, rel=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(13)
        w = rng.standard_normal((4, 5))
        q = rng.standard_normal((4, 5))
        x = rng.standard_normal((7, 5))
        assert proxy_loss(w, q, [x]) == pytest.approx(loop_oracle(w, q, x), rel=1e-10)

    def test_shape_mismatch(self):
        calib = [np.ones((2, 3))]
        with pytest.raises(ShapeMismatchError):
            proxy_loss(np.ones((2, 3)), np.ones((2, 4)), calib)
        with pytest.raises(ShapeMismatchError):
            proxy_loss(np.ones((2, 4)), np.ones((2, 4)), calib)

    def test_multi_batch_equals_concatenated(self):
        rng = np.random.default_rng(14)
        w = rng.standard_normal((3, 4))
        q = rng.standard_normal((3, 4))
        x = rng.standard_normal((10, 4))
        split = proxy_loss(w, q, [x[:4], x[4:]])
        assert split == pytest.approx(proxy_loss(w, q, [x]), rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("rows", [16, 17], ids=["row-order", "gram-order"])
    def test_nonfinite_batch_rejected(self, bad, rows):
        # d_row = d_col = 8 gives m* = 16: 16 rows stay in row order, 17 fold a Gram
        w = np.ones((8, 8))
        x = np.ones((rows, 8))
        x[3, 5] = bad
        with pytest.raises(ValueError, match="NaN/Inf"):
            proxy_loss(w, 0.5 * w, [x[:4], x[4:]])

    def test_batch_column_counts_differ(self):
        w = np.ones((2, 3))
        with pytest.raises(ShapeMismatchError):
            proxy_loss(w, w, [np.ones((2, 3)), np.ones((2, 4))])

    def test_no_batches_or_no_rows_rejected(self):
        w = np.ones((2, 3))
        for calib in ([], [np.zeros((0, 3))], [np.zeros((0, 3)), np.zeros((0, 3))]):
            with pytest.raises(ValueError, match="no rows"):
                proxy_loss(w, w, calib)


class TestStreamedProxyLoss:
    def test_break_even(self):
        # 2 d_row d_col m = m d_col^2 + 2 d_row d_col^2 at m*
        assert gram_break_even(256, 256) == 512
        assert gram_break_even(2048, 2048) == 4096
        assert gram_break_even(512, 512) == 1024
        assert gram_break_even(4, 5) == pytest.approx(40 / 3)
        assert gram_break_even(4, 8) == math.inf
        assert gram_break_even(1, 64) == math.inf

    def test_sides_meet_the_two_formulas_bit_for_bit(self):
        rng = np.random.default_rng(21)
        w = rng.standard_normal((8, 8))
        q = w + 0.01 * rng.standard_normal((8, 8))
        diff = w - q
        x = rng.standard_normal((17, 8))
        # m* = 16: the tie stays in row order, one more row goes through the Gram
        tie = x[:16]
        rows = float(np.sum((diff @ tie[:5].T) ** 2)) + float(np.sum((diff @ tie[5:].T) ** 2))
        assert proxy_loss(w, q, iter([tie[:5], tie[5:]])) == rows / 16
        gram = GramAccumulator(8).accumulate(x).gram
        assert proxy_loss(w, q, iter([x[:5], x[5:]])) == float(np.sum((diff @ gram) * diff)) / 34

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="no rows"):
            proxy_loss(np.ones((2, 3)), np.ones((2, 3)), iter([np.zeros((0, 3))]))

    def test_batch_width_checked(self):
        with pytest.raises(ShapeMismatchError):
            proxy_loss(np.ones((2, 3)), np.ones((2, 3)), iter([np.ones((40, 3)), np.ones((4, 2))]))


def random_split(draw, m):
    """Cut ``m`` rows into files of sections; sections may be empty."""
    cuts = sorted(draw(st.lists(st.integers(0, m), max_size=5)))
    sections = [(a, b) for a, b in zip([0, *cuts], [*cuts, m])]
    files, i = [], 0
    while i < len(sections):
        n = draw(st.integers(1, len(sections) - i))
        files.append(sections[i : i + n])
        i += n
    return files


def eval_loss(root, tag, x, files):
    paths = []
    for k, sections in enumerate(files):
        path = root / f"{tag}{k}.mgqt"
        write_tensor_file(path, {f"b{j}": x[a:b] for j, (a, b) in enumerate(sections)})
        paths.append(str(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["eval", "--orig", str(root / "w.mgqt"), "--quant", str(root / "q.mgqt"),
                     "--calib", *paths]) == 0
    return json.loads(out.getvalue())["proxy_loss"]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_streamed_loss_over_random_files_and_sections(data):
    # eval over the same rows cut into random files and sections: through the
    # Gram (m > m*) the loss keeps its bits across cuts; on both sides it
    # matches the row-order oracle and is never negative
    d_row, d_col = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    m_star = gram_break_even(d_row, d_col)
    gram_side = math.isfinite(m_star) and data.draw(st.booleans())
    if gram_side:
        m = data.draw(st.integers(math.floor(m_star) + 1, math.floor(m_star) + 30))
    else:
        m = data.draw(st.integers(1, int(min(m_star, 30))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    w = rng.standard_normal((d_row, d_col))
    q = w + data.draw(st.sampled_from([0.0, 1e-3, 1.0])) * rng.standard_normal((d_row, d_col))
    x = rng.standard_normal((m, d_col)) * rng.choice([1.0, 0.01], size=(1, d_col))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_tensor_file(root / "w.mgqt", {"weights": w})
        write_tensor_file(root / "q.mgqt", {"quantized": q})
        first = eval_loss(root, "a", x, random_split(data.draw, m))
        second = eval_loss(root, "b", x, random_split(data.draw, m))
    oracle = loop_oracle(w, q, x)
    for loss in (first, second):
        assert loss >= 0.0
        assert abs(loss - oracle) <= 1e-12 * oracle
    if gram_side:
        assert first == second

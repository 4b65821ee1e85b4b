import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mgquant import quant
from mgquant.quant import LIMIT, _fit_covering_1d, error_table, quantize


def levels(scale, zero, bits):
    """Every value of a grid, code 0 first."""
    return scale * (np.arange(1 << bits, dtype=np.float64) - zero)


def assert_matches_row_path(result, x, bits):
    """A 1-D result equals row 0 of quantize(x[None, :], bits), byte for byte."""
    for a, b in zip(result, quantize(x[None, :], bits)):
        assert np.asarray(a).tobytes() == b[0].tobytes()


class TestFitGrid:
    def test_values_already_on_two_bit_grid(self):
        v = np.array([0.0, 1.0, 2.0, 3.0])
        deq, _, scale, _ = quantize(v, 2)
        assert scale == 1.0
        assert np.array_equal(deq, v)

    def test_constant_vector_degenerates(self):
        for t in (2, 4):
            deq, codes, scale, _ = quantize(np.array([5.0, 5.0, 5.0]), t)
            assert scale == 1.0
            assert np.all(codes == codes[0])
            assert np.all(deq == 5.0)

    def test_one_bit_endpoints_exact(self):
        _, _, scale, zero = quantize(np.array([-1.0, 0.5]), 2)
        ends = levels(scale, zero, 2)[[0, -1]]
        assert ends[0] == -1.0
        assert ends[1] == 0.5

    def test_coverage_property(self):
        # grid spans [min, max] of the fitted data for every width
        for seed in range(300):
            rng = np.random.default_rng(seed)
            v = rng.standard_normal(11) * 10 ** rng.uniform(-3, 3)
            if seed % 3 == 0:
                v = v - v.min() + 10 ** rng.uniform(-3, 3)
            for t in (2, 3, 4, 8):
                _, _, scale, zero = quantize(v, t)
                grid = levels(scale, zero, t)
                assert grid[0] <= v.min()
                assert grid[-1] >= v.max()

    def test_empty_and_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            quantize(np.array([]), 2)
        with pytest.raises(ValueError):
            quantize(np.array([1.0, np.nan]), 2)
        with pytest.raises(ValueError):
            quantize(np.array([1.0]), 0)

    def test_grid_invariants(self):
        # every fitted scale is positive, also for constant and all-zero
        # vectors, and widths below 1 are rejected
        rng = np.random.default_rng(1)
        v = np.vstack([rng.standard_normal(6), np.full(6, 2.0), np.zeros(6)])
        for t in (1, 2, 3):
            assert np.all(quantize(v, t)[2] > 0)
        with pytest.raises(ValueError):
            quantize(v, 0)


class TestQuantizeRtn:
    def test_on_grid_round_trip_exact(self):
        v = levels(0.25, 2.0, 3)
        deq, codes, _, _ = quantize(v, 3)
        assert np.array_equal(codes, np.arange(8))
        assert np.array_equal(deq, v)

    def test_nearest_level(self):
        # 0 and 3 pin the 2-bit grid to scale 1, zero 0
        codes = quantize(np.array([0.0, 3.0, 0.49, 0.51]), 2)[1]
        assert codes[2] == 0
        assert codes[3] == 1

    def test_ties_round_away_from_zero(self):
        # 0 and 7 pin the 3-bit grid to scale 1, zero 0
        codes = quantize(np.array([0.0, 7.0, 0.5, 2.5]), 3)[1]
        assert codes[2] == 1
        assert codes[3] == 3

    def test_codes_clamped(self):
        codes = quantize(np.array([-5.0, 50.0]), 2)[1]
        assert list(codes) == [0, 3]

    def test_matches_exhaustive_nearest_level_oracle(self):
        rng = np.random.default_rng(77)
        v = rng.standard_normal(32) * 2.0
        deq, _, scale, zero = quantize(v, 3)
        grid = levels(scale, zero, 3)
        per_value_err = np.abs(v - deq)
        assert np.all(per_value_err <= scale / 2 + 1e-12)
        best = np.min(np.abs(v[:, None] - grid[None, :]), axis=1)
        assert np.allclose(per_value_err, best, atol=1e-12)

    def test_rtn_error_never_beaten_by_any_code(self):
        # exhaustive scan over every code for t <= 4
        for seed in range(30):
            rng = np.random.default_rng(seed)
            v = rng.standard_normal(16)
            for t in (1, 2, 3, 4):
                deq, _, scale, zero = quantize(v, t)
                err = np.sum((v - deq) ** 2)
                grid = levels(scale, zero, t)
                best = np.sum(np.min((v[:, None] - grid[None, :]) ** 2, axis=1))
                assert err <= best + 1e-15


class TestQuantizeBinary:
    def test_forced_by_mean_abs(self):
        deq, _, scale, _ = quantize(np.array([1.0, -2.0, 3.0]), 1)
        assert scale == 4.0  # 2 * alpha
        assert np.array_equal(deq, [2.0, -2.0, 2.0])

    def test_all_zeros(self):
        deq = quantize(np.zeros(5), 1)[0]
        assert np.array_equal(deq, np.zeros(5))

    def test_sign_zero_is_positive(self):
        out = quantize(np.array([0.0, -1.0, 1.0]), 1)[0]
        alpha = 2.0 / 3.0
        assert out[0] == pytest.approx(alpha)
        assert out[0] > 0

    def test_alpha_matches_golden_section_oracle(self):
        # alpha = mean|x| minimizes ||x - a*sign(x)|| over a; confirm with a
        # 1-D golden-section search
        rng = np.random.default_rng(5)
        x = rng.standard_normal(64)

        def f(a):
            return np.sum((x - a * np.where(x >= 0, 1.0, -1.0)) ** 2)

        lo, hi = 0.0, np.abs(x).max()
        phi = (np.sqrt(5.0) - 1) / 2
        for _ in range(200):
            m1 = hi - phi * (hi - lo)
            m2 = lo + phi * (hi - lo)
            if f(m1) < f(m2):
                hi = m2
            else:
                lo = m1
        alpha_opt = 0.5 * (lo + hi)
        # value-based search stalls at sqrt(eps)-level resolution near the
        # flat quadratic minimum
        assert alpha_opt == pytest.approx(np.mean(np.abs(x)), abs=1e-6)

    def test_alpha_local_optimality(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(40)
        sign = np.where(x >= 0, 1.0, -1.0)
        alpha = np.mean(np.abs(x))
        base = np.linalg.norm(x - alpha * sign)
        for d in (1e-3, -1e-3):
            assert np.linalg.norm(x - (alpha + d) * sign) >= base


class TestErrorTable:
    def test_exact_at_four_bits(self):
        col = 0.5 * np.array([0.0, 3.0, 7.0, 15.0, 8.0, 1.0])
        block = col[:, None]
        table = error_table(block, np.array([0.7]), 4)[0]
        assert table[3] == 0.0

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(11)
        block = rng.standard_normal((8, 3))
        hdiag = 0.37
        table = error_table(block, np.full(3, hdiag), 4)[1]
        for t in range(1, 5):
            q = quantize(block[:, 1], t)[0]
            expect = float(np.sum((block[:, 1] - q) ** 2)) / hdiag**2
            assert table[t - 1] == pytest.approx(expect, rel=1e-12)

    def test_nonincreasing_in_t_on_continuous_data(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            block = rng.standard_normal((32, 4)) * 10 ** rng.uniform(-1, 1)
            tables = error_table(block, np.ones(4), 4)
            for j in range(4):
                assert np.all(np.diff(tables[j]) <= 1e-12)

    def test_hdiag_must_be_positive(self):
        with pytest.raises(ValueError):
            error_table(np.ones((4, 2)), np.array([0.0, 1.0]), 4)

    def test_vectorized_matches_per_column(self):
        rng = np.random.default_rng(13)
        w = rng.standard_normal((24, 10)) * np.logspace(-1, 1, 10)
        hd = np.abs(rng.standard_normal(10)) + 0.05
        vec = error_table(w, hd, 4)
        for j in range(10):
            ref = [np.sum((w[:, j] - quantize(w[:, j], t)[0]) ** 2) / hd[j] ** 2
                   for t in range(1, 5)]
            assert np.array_equal(vec[j], ref)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_chunked_equals_whole_matrix(self, monkeypatch, order):
        # each entry sums one column, so the chunk size cannot move a bit; the
        # columns include a constant one and one of a single sign
        rng = np.random.default_rng(14)
        w = rng.standard_normal((24, 10)) * np.logspace(-1, 1, 10)
        w[:, 3] = 0.25
        w[:, 7] = np.abs(w[:, 7])
        w = np.asarray(w, order=order)
        hd = np.abs(rng.standard_normal(10)) + 0.05
        monkeypatch.setattr(quant, "CHUNK_ELEMENTS", 24 * 10)
        whole = error_table(w, hd, 4)
        for chunk in (1, 3, 4):
            monkeypatch.setattr(quant, "CHUNK_ELEMENTS", 24 * chunk)
            assert np.array_equal(error_table(w, hd, 4), whole)

    def test_error_table_validation(self):
        with pytest.raises(ValueError):
            error_table(np.ones((4, 3)), np.ones(2), 4)
        with pytest.raises(ValueError):
            error_table(np.ones((4, 3)), np.array([1.0, -1.0, 1.0]), 4)


class TestGridSoundness:
    def test_dequant_is_exactly_scale_times_offset_code(self):
        rng = np.random.default_rng(21)
        v = rng.standard_normal(50)
        for t in (1, 2, 3, 4):
            deq, codes, scale, zero = quantize(v, t)
            expect = scale * (codes.astype(np.float64) - zero)
            assert np.array_equal(deq, expect)
            assert codes.min() >= 0
            assert codes.max() <= (1 << t) - 1

    def test_codes_of_a_few_ulp_span_clipped_in_both_forms(self):
        # a span of a few ulps: rounding in code space overshoots the ends
        v = np.array([1.0, 1.0 + 2.2e-16, 1.0 + 4.4e-16, 1e6, 1e6 + 1.2e-10, 1e6 + 4.8e-10])
        for x in (v[:3], v[3:]):
            for t in range(3, 9):
                result = quantize(x, t)
                assert result[1].min() >= 0 and result[1].max() <= (1 << t) - 1
                assert_matches_row_path(result, x, t)


class TestOverflow:
    def test_span_overflow_rejected(self):
        with pytest.raises(ValueError, match="magnitude"):
            quantize(np.array([-1e308, 1e308]), 2)

    def test_one_bit_scale_overflow_rejected(self):
        with pytest.raises(ValueError, match="magnitude"):
            quantize(np.array([1e308, 1.5e308, -1e308]), 1)

    def test_one_bit_mean_overflow_rejected(self):
        # each value is within LIMIT, their sum is not
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="mean"):
            quantize(np.full(8, LIMIT), 1)

    def test_top_level_at_float_max_rejected(self):
        # the nominal grid's top level would round past the largest float
        with pytest.raises(ValueError):
            quantize(np.array([0.0, np.finfo(np.float64).max]), 2)

    def test_values_at_limit_accepted(self):
        for t in (1, 2, 8):
            deq = quantize(np.array([-LIMIT, 0.5 * LIMIT, LIMIT]), t)[0]
            assert np.isfinite(deq).all()

    def test_subnormal_span_gets_finite_covering_grid(self):
        # span / 3 underflows to 0; both forms fit the same exact grid, silently
        v = np.array([1e-310, 1e-310 + 5e-324])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = quantize(v, 2)
            assert_matches_row_path(result, v, 2)
        deq, _, scale, zero = result
        assert scale > 0 and np.isfinite(zero)
        assert np.array_equal(deq, v)

    def test_one_bit_mean_overflow_rejected_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for v in (np.full(8, LIMIT), np.full((2, 8), LIMIT)):
                with pytest.raises(ValueError, match="mean"):
                    quantize(v, 1)

    def test_uncoverable_row_raises(self):
        with pytest.raises(ValueError, match="covering"):
            _fit_covering_1d(-1e308, 1e308, 2)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    values=arrays(np.float64, st.integers(1, 64),
                  elements=st.floats(allow_nan=False, allow_infinity=False)),
    bits=st.integers(1, 8),
)
def test_quantize_property(values, bits):
    """Any finite vector: a ValueError, or a finite result exactly on a covering grid."""
    try:
        deq, codes, scale, zero = quantize(values, bits)
    except ValueError:
        mag = np.abs(values)
        with np.errstate(over="ignore"):
            too_large = mag.max() > LIMIT or (bits == 1 and mag.sum() / mag.size > LIMIT)
        assert too_large
        return
    # the 1-D path fits on Python floats; the 2-D path is the reference
    assert_matches_row_path((deq, codes, scale, zero), values, bits)
    cmax = (1 << bits) - 1
    assert np.isfinite(deq).all()
    assert np.isfinite(scale) and np.isfinite(zero)
    assert np.array_equal(codes, np.round(codes))
    assert codes.min() >= 0 and codes.max() <= cmax
    assert np.array_equal(deq, scale * (codes - zero))
    if bits > 1:
        grid = levels(scale, zero, bits)
        assert grid[0] <= values.min() and grid[-1] >= values.max()

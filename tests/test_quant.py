import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mgquant import quant
from mgquant.quant import LIMIT, MAX_BITS, _fit_covering_1d, error_table, quantize


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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bytes_match_the_per_width_quantize_reference(self, monkeypatch, dtype):
        # one grid fit per chunk serves every width; each entry keeps the bits
        # of quantize's error, on zero, signed-zero, constant and one-signed
        # columns and on one whose nominal 2-bit grid falls short of its range
        rng = np.random.default_rng(15)
        w = rng.standard_normal((3, 12)) * np.logspace(-2, 2, 12)
        w[:, 0] = [0.0, -0.0, 0.0]
        w[:, 1] = [-0.0, 0.5, -0.25]
        w[:, 2] = -0.75
        w[:, 3] = np.abs(w[:, 3])
        w[:, 4] = -np.abs(w[:, 4])
        w[:, 5] = [0.1, 0.3, 0.7]
        w[:, 6] = [1e6, 1e6 + 1.2e-10, 1e6 + 4.8e-10]
        w = w.astype(dtype)
        hd = np.abs(rng.standard_normal(12)) + 0.05
        fits = []
        fit = quant._fit_covering_1d
        monkeypatch.setattr(quant, "_fit_covering_1d", lambda *a: fits.append(a) or fit(*a))
        table = error_table(w, hd, 8)
        if dtype is np.float64:
            assert (0.1, 0.7, 2) in fits
        cols = w.T.astype(np.float64)
        ref = np.stack([np.sum(np.square(quantize(cols, t)[0] - cols), axis=-1)
                        for t in range(1, 9)], axis=1) / (hd**2)[:, None]
        assert table.tobytes() == ref.tobytes()
        assert table[0].tobytes() == np.zeros(8).tobytes()

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


class TestErrorTableArguments:
    """Each bad argument is a ValueError naming it, raised before any work."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("error_table started work")

        monkeypatch.setattr(quant, "_mean_abs", work)
        monkeypatch.setattr(quant, "_round_rows", work)

    def test_t_max_zero_rejected(self):
        with pytest.raises(ValueError, match="t_max"):
            error_table(np.ones((4, 3)), np.ones(3), 0)

    def test_negative_t_max_rejected(self):
        with pytest.raises(ValueError, match="t_max"):
            error_table(np.ones((4, 3)), np.ones(3), -1)

    def test_zero_row_weights_rejected(self):
        with pytest.raises(ValueError, match="weights"):
            error_table(np.ones((0, 3)), np.ones(3), 4)


class TestWidthRule:
    """``quantize`` and ``error_table`` take whole widths in 1..MAX_BITS; any
    other width is a ValueError naming it, raised before any work."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("_mean_abs", "_grid", "_round", "_round_rows"):
            monkeypatch.setattr(quant, name, work)

    @pytest.mark.parametrize("width", [0, 9, 1024, 2.5, float("nan")], ids=str)
    def test_bad_width_refused(self, no_work, width):
        x = np.linspace(-1.0, 1.0, 12)
        for values in (x, x.reshape(3, 4)):
            with pytest.raises(ValueError, match=r"^bits must be in \[1, 8\], got "):
                quantize(values, width)
        with pytest.raises(ValueError, match=r"^t_max must be in \[1, 8\], got "):
            error_table(x.reshape(3, 4), np.ones(4), width)

    @pytest.mark.parametrize("width", range(1, MAX_BITS + 1))
    def test_every_width_accepted(self, width):
        x = np.linspace(-1.0, 1.0, 12)
        assert quantize(x, width)[1].max() <= (1 << width) - 1
        assert quantize(x.reshape(3, 4), width)[1].max() <= (1 << width) - 1
        assert error_table(x.reshape(3, 4), np.ones(4), width).shape == (4, width)


#: Vectors that need the covering repair at some width, a subnormal span,
#: and signed zeros.
SPECIAL_VECTORS = [
    [1e6, 1e6 + 1.2e-10, 1e6 + 4.8e-10],
    [0.1, 0.3, 0.7],
    [1.0, 1.0 + 2.2e-16, 1.0 + 4.4e-16],
    [1e-310, 1e-310 + 5e-324],
    [0.0, -0.0, 0.0],
    [-0.0, 0.5, -0.25],
]


def vectors(n):
    """Length-n vectors that between them take every case of the grid fit:
    the nominal grid, the exact-zero nudge, the covering repair, subnormal
    spans, constant vectors and signed zeros."""
    base = st.one_of(st.floats(-1e6, 1e6), st.floats(-1e-307, 1e-307))
    steps = st.lists(st.integers(0, 5), min_size=n, max_size=n)
    scaled_normal = st.builds(lambda s, e: np.random.default_rng(s).standard_normal(n) * 10.0**e,
                              st.integers(0, 2**16), st.integers(-3, 3))
    return st.one_of(
        arrays(np.float64, n, elements=st.floats(-1e6, 1e6)),
        scaled_normal,
        st.builds(lambda b, k: b + np.spacing(b) * np.array(k, dtype=np.float64), base, steps),
        st.sampled_from(SPECIAL_VECTORS).map(lambda v: np.resize(v, n)),
        arrays(np.float64, n, elements=st.sampled_from([0.0, -0.0, 0.5, -0.25])),
        base.map(lambda c: np.full(n, c)),
    )


@st.composite
def stacked_vectors(draw, rank):
    """A float64 array of the given rank whose rows are drawn by :func:`vectors`."""
    n = draw(st.integers(1, 6))
    lead = draw(st.lists(st.integers(1, 3), min_size=rank - 1, max_size=rank - 1))
    rows = [draw(vectors(n)) for _ in range(int(np.prod(lead)))]
    return np.stack(rows).reshape(*lead, n)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(x=st.sampled_from([2, 3]).flatmap(stacked_vectors))
def test_rows_match_per_vector_calls(x):
    """Every row of a 2-D or 3-D input gets its own 1-D call's bits, at every width."""
    for bits in range(1, 9):
        result = quantize(x, bits)
        for idx in np.ndindex(x.shape[:-1]):
            for a, b in zip(result, quantize(x[idx], bits)):
                assert a[idx].tobytes() == np.asarray(b).tobytes()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    cols=st.integers(1, 4).flatmap(
        lambda m: st.lists(vectors(m), min_size=1, max_size=10).map(np.stack)),
    chunk=st.integers(1, 4),
    t_max=st.integers(1, 8),
    order=st.sampled_from(["C", "F"]),
)
def test_error_table_matches_per_width_quantize(cols, chunk, t_max, order):
    """Chunks that mix nominal and repaired columns keep each column's 1-D quantize bits."""
    w = np.asarray(cols.T, order=order)
    hd = np.linspace(0.5, 2.0, w.shape[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quant, "CHUNK_ELEMENTS", w.shape[0] * chunk)
        table = error_table(w, hd, t_max)
    ref = [[np.sum(np.square(quantize(col, t)[0] - col)) / h**2 for t in range(1, t_max + 1)]
           for col, h in zip(cols, hd)]
    assert table.tobytes() == np.array(ref).tobytes()

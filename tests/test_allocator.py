import numpy as np
import pytest

from mgquant.allocator import (
    AllocatorParams,
    allocate,
    ffnn_logits,
    gcn_forward,
    gumbel_softmax,
    hessian_node_features,
    init_allocator_params,
    preprocess,
    sample_gumbel,
)
from mgquant.linalg import ShapeMismatchError
from mgquant.synth import make_layer


def small_params(rng, d_gnn=4, hidden=4, t_max=4):
    return init_allocator_params(d_gnn, hidden, t_max, rng)


def upper_factor(rng, n):
    hc = np.triu(rng.standard_normal((n, n)))
    np.fill_diagonal(hc, np.abs(np.diag(hc)) + 0.5)
    return hc


class TestPreprocess:
    def test_no_pooling_when_rows_equal_width(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((4, 6))
        x = preprocess(w, 4)
        assert np.array_equal(x, w.T)

    def test_zero_weights(self):
        assert np.all(preprocess(np.zeros((5, 3)), 2) == 0.0)

    def test_explicit_index_oracle(self):
        # d_row 3, width 2: one zero pad, X[j] = ([w0j, w1j] + [w2j, 0]) / 2
        rng = np.random.default_rng(1)
        w = rng.standard_normal((3, 5))
        x = preprocess(w, 2)
        assert x.shape == (5, 2)
        for j in range(5):
            expect = (np.array([w[0, j], w[1, j]]) + np.array([w[2, j], 0.0])) / 2.0
            assert np.array_equal(x[j], expect)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_short_rows_give_a_transposed_copy(self, dtype):
        # d_row < width: the real columns only, no zero padding
        w = np.arange(6.0, dtype=dtype).reshape(2, 3)
        x = preprocess(w, 4)
        assert x.shape == (3, 2) and x.dtype == dtype
        assert np.array_equal(x, w.T)
        assert x.flags.c_contiguous and not np.shares_memory(x, w)

    def test_linearity_exact(self):
        rng = np.random.default_rng(2)
        w1 = rng.standard_normal((7, 4))
        w2 = rng.standard_normal((7, 4))
        a, b = 2.0, -0.5
        lhs = preprocess(a * w1 + b * w2, 3)
        rhs = a * preprocess(w1, 3) + b * preprocess(w2, 3)
        assert np.allclose(lhs, rhs, atol=1e-15)

    def test_dtype_preserved(self):
        w = np.zeros((4, 3), dtype=np.float32)
        assert preprocess(w, 2).dtype == np.float32

    def test_validation(self):
        with pytest.raises(ShapeMismatchError):
            preprocess(np.zeros(3), 2)
        with pytest.raises(ValueError):
            preprocess(np.zeros((2, 3)), 0)


class TestGcnForward:
    def test_zero_weights_give_zero(self):
        rng = np.random.default_rng(3)
        params = small_params(rng)
        params.w0[:] = 0.0
        hc = upper_factor(rng, 6)
        x0 = rng.standard_normal((6, 4))
        assert np.all(gcn_forward(hc, x0, params)[1] == 0.0)

    def test_identity_propagation(self):
        # identity adjacency and identity layer weights pass relu(x0) through
        rng = np.random.default_rng(4)
        params = AllocatorParams(
            w0=np.eye(4), w1=np.eye(4),
            wc=np.zeros((4, 4)), bc=np.zeros(4),
        )
        x0 = rng.standard_normal((5, 4))
        out = gcn_forward(np.eye(5), x0, params)[1]
        assert np.array_equal(out, np.maximum(x0, 0.0))

    def test_matches_composition_oracle(self):
        rng = np.random.default_rng(5)
        params = small_params(rng, d_gnn=3, hidden=5)
        hc = upper_factor(rng, 8)
        x0 = rng.standard_normal((8, 3))
        out1, out = gcn_forward(hc, hc @ x0, params)
        x1 = np.maximum(hc @ (x0 @ params.w0), 0.0)
        x2 = np.maximum(hc @ (x1 @ params.w1), 0.0)
        assert np.max(np.abs(out1 - x1)) < 1e-10
        assert np.max(np.abs(out - x2)) < 1e-10

    def test_output_nonnegative(self):
        rng = np.random.default_rng(6)
        params = small_params(rng)
        out = gcn_forward(upper_factor(rng, 7), rng.standard_normal((7, 4)), params)[1]
        assert np.all(out >= 0.0)

    def test_zero_features_give_zero(self):
        rng = np.random.default_rng(60)
        params = small_params(rng)
        out = gcn_forward(upper_factor(rng, 6), np.zeros((6, 4)), params)[1]
        assert np.all(out == 0.0)

    def test_shape_validation(self):
        rng = np.random.default_rng(8)
        params = small_params(rng)
        with pytest.raises(ShapeMismatchError):
            gcn_forward(np.eye(5), rng.standard_normal((6, 4)), params)
        with pytest.raises(ShapeMismatchError):
            gcn_forward(np.eye(6), rng.standard_normal((6, 5)), params)


class TestMlpForward:
    def test_zero_weights(self):
        rng = np.random.default_rng(9)
        params = small_params(rng)
        params.w0[:] = 0.0
        assert np.all(gcn_forward(None, rng.standard_normal((5, 4)), params)[1] == 0.0)

    def test_identity_layers(self):
        rng = np.random.default_rng(10)
        params = AllocatorParams(
            w0=np.eye(3), w1=np.eye(3), wc=np.zeros((3, 4)), bc=np.zeros(4)
        )
        x0 = rng.standard_normal((6, 3))
        assert np.array_equal(gcn_forward(None, x0, params)[1], np.maximum(x0, 0.0))

    def test_matches_two_matmul_oracle(self):
        rng = np.random.default_rng(11)
        params = small_params(rng, d_gnn=3, hidden=6)
        x0 = rng.standard_normal((9, 3))
        expect = np.maximum(np.maximum(x0 @ params.w0, 0) @ params.w1, 0)
        assert np.max(np.abs(gcn_forward(None, x0, params)[1] - expect)) < 1e-10

    def test_hessian_node_features_pools_rows(self):
        rng = np.random.default_rng(12)
        hc = upper_factor(rng, 6)
        x0 = hessian_node_features(hc, 3)
        assert x0.shape == (6, 3)
        # row j of the factor, split into two chunks of 3, averaged
        for j in range(6):
            expect = (hc[j, :3] + hc[j, 3:]) / 2.0
            assert np.allclose(x0[j], expect, atol=1e-15)

    # one copy (n <= d_gnn); pooled with padding; pooled, no padding, k >= 8
    @pytest.mark.parametrize("n, d_gnn", [(5, 8), (256, 512), (100, 7), (300, 64),
                                          (512, 64), (1030, 64)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_hessian_node_features_bytes_match_the_double_copy(self, n, d_gnn, dtype):
        hc = upper_factor(np.random.default_rng(n), n).astype(dtype)
        got = hessian_node_features(hc, d_gnn)
        expect = preprocess(np.ascontiguousarray(hc.T), d_gnn)
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()


class TestFirstLayerInput:
    """The first layer's input at the features' real width, ``A0 = hc @ F``
    (``F`` for the MLP ablation), gives the logits of the two-product forward
    ``relu(adj @ (x0 @ w0))`` over features zero-padded to ``d_gnn``."""

    @pytest.mark.parametrize("arch", ["gcn", "mlp"])
    @pytest.mark.parametrize("rows", [10, 16, 37])  # d_gnn 16: below, equal, ragged above
    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_logits_match_padded_forward(self, arch, rows, dtype, rtol):
        rng = np.random.default_rng(rows)
        d_gnn = 16
        d_row, d_col = (rows, 20) if arch == "gcn" else (24, rows)
        w, hc, _ = make_layer(rng, d_row, d_col, 64, decades=1.0)
        w, hc = w.astype(dtype), hc.astype(dtype)
        params = init_allocator_params(d_gnn, 12, 4, rng)
        if arch == "gcn":
            f, adj = preprocess(w, d_gnn), hc
        else:
            f, adj = hessian_node_features(hc, d_gnn), None
        a0 = f if adj is None else adj @ f
        assert a0.shape == (d_col, min(rows, d_gnn)) and a0.dtype == dtype
        logits = ffnn_logits(gcn_forward(adj, a0, params)[1], params)

        def layer(x, wl):
            x = x @ wl.astype(dtype)
            return np.maximum(x if adj is None else adj @ x, 0)

        x0 = np.pad(f, ((0, 0), (0, d_gnn - f.shape[1])))
        padded = ffnn_logits(layer(layer(x0, params.w0), params.w1), params)
        assert logits.dtype == dtype
        assert np.max(np.abs(logits - padded)) <= rtol * np.max(np.abs(padded))

    def test_mlp_input_is_a_contiguous_copy_of_the_real_columns(self):
        rng = np.random.default_rng(14)
        hc = upper_factor(rng, 5)
        a0 = hessian_node_features(hc, 8)
        assert a0.flags.c_contiguous and not np.shares_memory(a0, hc)
        assert np.array_equal(a0, hc)


class TestAllocate:
    def test_dominant_bias_class(self):
        rng = np.random.default_rng(13)
        params = small_params(rng)
        params.wc[:] = 0.0
        params.bc[:] = [0.0, 0.0, 0.0, 10.0]
        widths = allocate(rng.standard_normal((8, 4)), params)
        assert np.all(widths == 4)

    def test_argmax_invariant_to_monotone_transform(self):
        rng = np.random.default_rng(14)
        params = small_params(rng)
        x2 = np.abs(rng.standard_normal((12, 4)))
        logits = ffnn_logits(x2, params)
        assert np.array_equal(
            np.argmax(logits, axis=1), np.argmax(2.0 * logits + 1.0, axis=1)
        )

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(15)
        params = small_params(rng, d_gnn=4, hidden=4, t_max=4)
        x2 = np.abs(rng.standard_normal((32, 4)))
        widths = allocate(x2, params)
        logits = ffnn_logits(x2, params)
        for j in range(32):
            best, arg = -np.inf, 0
            for t in range(4):
                if logits[j, t] > best:
                    best, arg = logits[j, t], t
            assert widths[j] == arg + 1

    def test_ties_break_to_lower_width(self):
        params = AllocatorParams(
            w0=np.eye(2), w1=np.eye(2), wc=np.zeros((2, 4)), bc=np.zeros(4)
        )
        widths = allocate(np.ones((3, 2)), params)
        assert np.all(widths == 1)


class TestGumbelSoftmax:
    def test_high_temperature_flattens(self):
        rng = np.random.default_rng(17)
        logits = rng.standard_normal(4)
        noise = sample_gumbel((4,), rng)
        p = gumbel_softmax(logits, 1e6, noise)
        assert np.max(np.abs(p - 0.25)) < 1e-4

    def test_low_temperature_one_hot(self):
        rng = np.random.default_rng(18)
        logits = rng.standard_normal(4)
        noise = sample_gumbel((4,), rng)
        p = gumbel_softmax(logits, 1e-6, noise)
        arg = np.argmax(logits + noise)
        expect = np.zeros(4)
        expect[arg] = 1.0
        assert np.max(np.abs(p - expect)) < 1e-6

    def test_valid_distribution_for_all_tau(self):
        rng = np.random.default_rng(19)
        logits = rng.standard_normal((20, 4))
        noise = sample_gumbel((20, 4), rng)
        for tau in (1e-3, 0.1, 1.0, 10.0, 1e5):
            p = gumbel_softmax(logits, tau, noise)
            assert np.all(p >= 0.0)
            assert np.all(p <= 1.0)
            assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12

    def test_tau_must_be_positive(self):
        with pytest.raises(ValueError):
            gumbel_softmax(np.zeros(4), 0.0, np.zeros(4))
        with pytest.raises(ValueError):
            gumbel_softmax(np.zeros(4), -1.0, np.zeros(4))

    def test_noise_shape_checked(self):
        with pytest.raises(ShapeMismatchError):
            gumbel_softmax(np.zeros(4), 1.0, np.zeros(3))

    def test_uniform_logits_sampling_frequencies(self):
        # 1e5 samples of argmax under zero logits: counts within 3 sigma of
        # the multinomial expectation
        rng = np.random.default_rng(20)
        n = 100_000
        noise = sample_gumbel((n, 4), rng)
        p = gumbel_softmax(np.zeros((n, 4)), 1.0, noise)
        counts = np.bincount(np.argmax(p, axis=1), minlength=4)
        expect = n / 4.0
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - expect) <= 3.0 * sigma)


class TestParams:
    def test_init_shapes_and_bounds(self):
        rng = np.random.default_rng(21)
        p = init_allocator_params(8, 6, 4, rng)
        assert p.w0.shape == (8, 6)
        assert p.w1.shape == (6, 6)
        assert p.wc.shape == (6, 4)
        assert np.all(p.bc == 0.0)
        assert np.max(np.abs(p.w0)) <= np.sqrt(6.0 / (8 + 6))
        assert np.max(np.abs(p.wc)) <= np.sqrt(6.0 / (6 + 4))
        assert p.d_gnn == 8 and p.hidden == 6 and p.t_max == 4

    def test_init_seeded_deterministic(self):
        a = init_allocator_params(4, 4, 4, np.random.default_rng(1))
        b = init_allocator_params(4, 4, 4, np.random.default_rng(1))
        assert all(np.array_equal(x, y) for x, y in zip(a.as_dict().values(), b.as_dict().values()))

    def test_validation(self):
        with pytest.raises(ShapeMismatchError):
            AllocatorParams(
                w0=np.zeros((3, 4)), w1=np.zeros((3, 3)),
                wc=np.zeros((4, 4)), bc=np.zeros(4),
            )
        with pytest.raises(ValueError, match="t_max"):
            AllocatorParams(
                w0=np.zeros((3, 3)), w1=np.zeros((3, 3)),
                wc=np.zeros((3, 1)), bc=np.zeros(1),
            )
        with pytest.raises(ValueError, match="t_max"):  # codes are one byte each
            AllocatorParams(
                w0=np.zeros((3, 3)), w1=np.zeros((3, 3)),
                wc=np.zeros((3, 9)), bc=np.zeros(9),
            )
        with pytest.raises(ValueError, match="NaN"):
            AllocatorParams(
                w0=np.full((3, 3), np.nan), w1=np.zeros((3, 3)),
                wc=np.zeros((3, 4)), bc=np.zeros(4),
            )

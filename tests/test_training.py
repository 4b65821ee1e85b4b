import numpy as np
import pytest

from helpers import gradient_check_config
from mgquant import training
from mgquant.allocator import (
    ffnn_logits,
    gcn_forward,
    gumbel_softmax,
    hessian_node_features,
    init_allocator_params,
    preprocess,
    sample_gumbel,
)
from mgquant.pipeline import widths_for
from mgquant.synth import make_layer
from mgquant.training import (
    AdamW,
    LOG_HEADER,
    TrainConfig,
    backward_from_cache,
    format_training_log,
    forward_cached,
    soft_losses,
    train,
)


class TestSoftLosses:
    def test_one_hot_collapses_to_selection(self):
        rng = np.random.default_rng(0)
        errs = np.abs(rng.standard_normal((6, 4)))
        picks = rng.integers(0, 4, size=6)
        P = np.zeros((6, 4))
        P[np.arange(6), picks] = 1.0
        out = soft_losses(P, errs, target_bits=2.5, alpha=1.0)
        assert out.l_quant == pytest.approx(errs[np.arange(6), picks].sum(), rel=1e-12)
        assert out.mean_bits_soft == pytest.approx(float(np.mean(picks + 1)), rel=1e-12)

    def test_zero_residual_when_on_target(self):
        P = np.full((4, 4), 0.25)
        errs = np.zeros((4, 4))
        out = soft_losses(P, errs, target_bits=2.5, alpha=1.0)
        assert out.l_bit == 0.0
        assert out.mean_bits_soft == 2.5

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        raw = rng.random((8, 4))
        P = raw / raw.sum(axis=1, keepdims=True)
        errs = np.abs(rng.standard_normal((8, 4)))
        target, alpha = 1.7, 0.3
        out = soft_losses(P, errs, target, alpha)
        lq = 0.0
        mb = 0.0
        for j in range(8):
            for t in range(4):
                lq += P[j, t] * errs[j, t]
                mb += (t + 1) * P[j, t]
        mb /= 8.0
        assert out.l_quant == pytest.approx(lq, abs=1e-12)
        assert out.mean_bits_soft == pytest.approx(mb, abs=1e-12)
        assert out.l_bit == pytest.approx((mb - target) ** 2, abs=1e-12)

    def test_decomposition_identity_exact(self):
        rng = np.random.default_rng(2)
        raw = rng.random((5, 4))
        P = raw / raw.sum(axis=1, keepdims=True)
        errs = np.abs(rng.standard_normal((5, 4)))
        out = soft_losses(P, errs, 2.0, alpha=3.7)
        assert out.total == out.l_quant + 3.7 * out.l_bit

    def test_row_sum_violation(self):
        P = np.full((3, 4), 0.3)
        with pytest.raises(ValueError, match="sum"):
            soft_losses(P, np.zeros((3, 4)), 2.0, 1.0)

    def test_negative_errs_rejected(self):
        P = np.full((2, 4), 0.25)
        errs = np.zeros((2, 4))
        errs[0, 0] = -1.0
        with pytest.raises(ValueError):
            soft_losses(P, errs, 2.0, 1.0)


class TestBackward:
    def test_dead_first_layer_blocks_w1(self):
        rng = np.random.default_rng(3)
        params = init_allocator_params(4, 4, 4, rng)
        params.w0[:] = 0.0
        adj = np.eye(6)
        x0 = rng.standard_normal((6, 4))
        cache = forward_cached(x0, params, adj=adj)
        noise = sample_gumbel((6, 4), rng)
        P = gumbel_softmax(cache.logits, 1.0, noise)
        errs = np.abs(rng.standard_normal((6, 4)))
        grads = {k: np.zeros_like(v) for k, v in params.as_dict().items()}
        backward_from_cache(cache, params, P, errs, 2.5, 1.0, 1.0, grads)
        assert np.all(grads["w1"] == 0.0)
        assert np.all(grads["w0"] == 0.0)

    def test_uniform_payoff_has_zero_gradient(self):
        # alpha = 0 and errs constant across widths per row: shifting
        # probability mass cannot change the loss
        rng = np.random.default_rng(4)
        params = init_allocator_params(4, 4, 4, rng)
        x0 = rng.standard_normal((5, 4))
        cache = forward_cached(x0, params, adj=None)
        noise = sample_gumbel((5, 4), rng)
        P = gumbel_softmax(cache.logits, 1.0, noise)
        errs = np.repeat(np.abs(rng.standard_normal((5, 1))), 4, axis=1)
        grads = {k: np.zeros_like(v) for k, v in params.as_dict().items()}
        backward_from_cache(cache, params, P, errs, 2.5, 0.0, 1.0, grads)
        for g in grads.values():
            assert np.max(np.abs(g)) < 1e-14

    @pytest.mark.parametrize("arch", ["gcn", "mlp"])
    def test_matches_finite_differences(self, arch):
        worst = max(gradient_check_config(seed, arch=arch) for seed in range(3))
        assert worst < 1e-4

    def test_nondefault_tau_alpha_gradients(self):
        assert gradient_check_config(6, tau=0.7, alpha=2.0) < 1e-4

    def test_adds_into_the_accumulator(self):
        # A0 is 3 wide and w0 has 6 rows: the rows past 3 are left as they were
        rng = np.random.default_rng(5)
        params = init_allocator_params(6, 5, 4, rng)
        adj = np.triu(rng.standard_normal((7, 7)))
        cache = forward_cached(rng.standard_normal((7, 3)), params, adj=adj)
        P = gumbel_softmax(cache.logits, 1.0, sample_gumbel((7, 4), rng))
        errs = np.abs(rng.standard_normal((7, 4)))
        fresh = {k: np.zeros_like(v) for k, v in params.as_dict().items()}
        backward_from_cache(cache, params, P, errs, 2.5, 1.0, 1.0, fresh)
        start = {k: rng.standard_normal(v.shape) for k, v in params.as_dict().items()}
        acc = {k: v.copy() for k, v in start.items()}
        backward_from_cache(cache, params, P, errs, 2.5, 1.0, 1.0, acc)
        for k in acc:
            assert np.array_equal(acc[k], start[k] + fresh[k]), k
        assert np.all(fresh["w0"][3:] == 0.0) and np.array_equal(acc["w0"][3:], start["w0"][3:])


class TestAdamW:
    def test_zero_grad_no_decay_is_fixed_point(self):
        opt = AdamW(lr=0.1, weight_decay=0.0)
        p = {"a": np.array([1.0, -2.0])}
        opt.step(p, {"a": np.zeros(2)})
        assert np.array_equal(p["a"], [1.0, -2.0])

    def test_first_step_hand_value(self):
        # m_hat = v_hat = 1 after one unit-gradient step: update ~ -lr
        opt = AdamW(lr=0.1, weight_decay=0.0)
        p = {"a": np.array([1.0])}
        opt.step(p, {"a": np.array([1.0])})
        assert p["a"][0] == pytest.approx(0.9, abs=1e-8)

    def test_matches_scalar_replay_oracle(self):
        rng = np.random.default_rng(7)
        grads = [rng.standard_normal() for _ in range(10)]
        opt = AdamW(lr=0.05, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01)
        p = {"a": np.array([0.7])}
        # literal replay of the update rule on python floats
        ref, m, v = 0.7, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            opt.step(p, {"a": np.array([g])})
            ref -= 0.05 * 0.01 * ref
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1 - 0.9**t)
            vh = v / (1 - 0.999**t)
            ref -= 0.05 * mh / (np.sqrt(vh) + 1e-8)
            assert p["a"][0] == pytest.approx(ref, abs=1e-12)

    def test_decay_applied_before_moment_update(self):
        opt = AdamW(lr=0.5, weight_decay=0.1)
        p = {"a": np.array([2.0])}
        opt.step(p, {"a": np.zeros(1)})
        # zero gradient: only the decoupled decay moves the parameter
        assert p["a"][0] == pytest.approx(2.0 * (1 - 0.5 * 0.1), abs=1e-15)

    def test_accumulation_equivalence(self):
        # summing per-pass gradients then stepping once equals stepping on the
        # externally pre-summed gradient (what accum_steps=1 would be fed)
        rng = np.random.default_rng(8)
        gs = [rng.standard_normal((3, 2)) for _ in range(4)]
        presum = gs[0] + gs[1] + gs[2] + gs[3]
        p1 = {"a": np.ones((3, 2))}
        p2 = {"a": np.ones((3, 2))}
        pending = np.zeros((3, 2))
        for g in gs:
            pending += g
        AdamW(lr=0.01).step(p1, {"a": pending})
        AdamW(lr=0.01).step(p2, {"a": presum})
        assert np.array_equal(p1["a"], p2["a"])

    def test_shape_mismatch(self):
        opt = AdamW()
        with pytest.raises(Exception):
            opt.step({"a": np.ones(3)}, {"a": np.ones(4)})

    @pytest.mark.parametrize("weight_decay", [0.01, 0.0])
    def test_in_place_step_matches_the_out_of_place_formula(self, weight_decay):
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(9)
        shapes = {"w": (6, 5), "b": (5,)}
        params = {k: rng.standard_normal(s) for k, s in shapes.items()}
        ref = {k: (p.copy(), np.zeros_like(p), np.zeros_like(p)) for k, p in params.items()}
        opt = AdamW(lr=lr, betas=(b1, b2), eps=eps, weight_decay=weight_decay)
        for t in range(1, 6):
            grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
            kept = {k: g.copy() for k, g in grads.items()}
            opt.step(params, grads)
            bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
            for k, (p, m, v) in ref.items():
                g = kept[k]
                if weight_decay:
                    p = p - lr * weight_decay * p
                m = m * b1 + (1.0 - b1) * g
                v = v * b2 + (1.0 - b2) * np.square(g)
                p = p - lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
                ref[k] = (p, m, v)
                assert np.array_equal(params[k], p), (t, k)
                assert np.array_equal(opt._m[k], m) and np.array_equal(opt._v[k], v), (t, k)
                assert np.array_equal(grads[k], g), (t, k)


def sign_layer(rng, d_col=16, d_row=16):
    """Columns of the form +-c_j: exactly representable at every width."""
    mags = np.exp(rng.uniform(-1.0, 1.0, size=d_col))
    signs = rng.choice([-1.0, 1.0], size=(d_row, d_col))
    w = signs * mags[None, :]
    hc = np.eye(d_col)
    return w, hc


class TestTrain:
    def test_one_bit_sink(self):
        rng = np.random.default_rng(9)
        w, hc = sign_layer(rng)
        cfg = TrainConfig(
            epochs=300, lr=0.05, accum_steps=1, target_bits=1.0,
            d_gnn=8, seed=0, block_size=16,
        )
        params, records = train([(w, hc)], cfg)
        # +-c columns are exact at 1 bit; coarser grids reproduce them to 1 ulp,
        # so the expected error vanishes to rounding level
        assert records[-1].l_quant < 1e-20
        assert records[-1].hard_mean_bits <= 1.1

    def test_t_max_sink(self):
        rng = np.random.default_rng(10)
        w, hc = sign_layer(rng)
        cfg = TrainConfig(
            epochs=300, lr=0.05, accum_steps=1, target_bits=4.0,
            d_gnn=8, seed=0, block_size=16,
        )
        params, records = train([(w, hc)], cfg)
        assert records[-1].soft_mean_bits >= 3.9
        assert records[-1].hard_mean_bits >= 3.9

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(11)
        w, hc = sign_layer(rng, d_col=8, d_row=8)
        w = w + 0.01 * rng.standard_normal(w.shape)
        cfg = TrainConfig(epochs=5, d_gnn=4, seed=3, block_size=8)
        p1, r1 = train([(w, hc)], cfg)
        p2, r2 = train([(w, hc)], cfg)
        assert r1 == r2
        for a, b in zip(p1.as_dict().values(), p2.as_dict().values()):
            assert np.array_equal(a, b)

    def test_epochs_zero_returns_initialized_params(self):
        rng = np.random.default_rng(12)
        w, hc = sign_layer(rng, d_col=8, d_row=8)
        cfg = TrainConfig(epochs=0, d_gnn=4, seed=5, block_size=8)
        params, records = train([(w, hc)], cfg)
        assert records == []
        ref = init_allocator_params(4, 4, 4, np.random.default_rng(5))
        assert np.array_equal(params.w0, ref.w0)

    def test_log_format_round_trips(self):
        rng = np.random.default_rng(13)
        w, hc = sign_layer(rng, d_col=8, d_row=8)
        cfg = TrainConfig(epochs=2, d_gnn=4, seed=1, block_size=8)
        _, records = train([(w, hc)], cfg)
        text = format_training_log(records)
        lines = text.strip().split("\n")
        assert lines[0] == LOG_HEADER
        assert len(lines) == 1 + len(records)
        first = lines[1].split("\t")
        assert int(first[0]) == 0 and int(first[1]) == 0
        assert float(first[2]) == records[0].l_quant  # repr round-trips exactly

    def test_validation(self):
        rng = np.random.default_rng(14)
        w, hc = sign_layer(rng, d_col=8, d_row=8)
        with pytest.raises(ValueError):
            train([], TrainConfig())
        with pytest.raises(ValueError):
            train([(w, hc)], TrainConfig(lr=0.0))
        with pytest.raises(ValueError):
            train([(w, hc)], TrainConfig(target_bits=9.0))
        with pytest.raises(ValueError):
            train([(w, hc)], TrainConfig(), arch="cnn")

    @pytest.mark.parametrize("shape", [(0, 8), (4, 0)], ids=["0x8", "4x0"])
    def test_empty_weights_rejected_before_any_pass(self, monkeypatch, shape):
        passes = []
        monkeypatch.setattr(training, "forward_cached", lambda *a, **k: passes.append(1))
        hc = np.eye(shape[1])
        with pytest.raises(ValueError, match="at least one row and one column"):
            train([(np.eye(8), np.eye(8)), (np.zeros(shape), hc)], TrainConfig(d_gnn=8))
        assert passes == []

    def test_regression_fixture_seed7(self, fixture_records):
        # frozen end-to-end behavior at package defaults on the 8-layer fixture
        cfg = TrainConfig(target_bits=2.5, seed=7)
        records = fixture_records(cfg)  # criterion 02's seed 7, if it has run
        ep0 = [r for r in records if r.epoch == 0]
        final = [r for r in records if r.epoch == cfg.epochs - 1]
        hard = float(np.mean([r.hard_mean_bits for r in final]))
        assert abs(hard - 2.5) <= 0.25
        assert np.mean([r.l_quant for r in final]) < np.mean([r.l_quant for r in ep0])

    def test_features_built_once_per_pass(self, monkeypatch):
        calls = []

        def counting(w, d_gnn):
            calls.append(len(w))
            return preprocess(w, d_gnn)

        monkeypatch.setattr(training, "preprocess", counting)
        rng = np.random.default_rng(15)
        layers = [make_layer(rng, 12, 16, 48)[:2] for _ in range(2)]
        cfg = TrainConfig(epochs=3, accum_steps=2, d_gnn=8, block_size=8)
        _, records = train(layers, cfg)
        # once in each layer's pass, never for the up-front shape check
        assert len(records) == 6 and calls == [12] * 6

    def test_padded_rows_of_w0_only_decay(self):
        # d_row 5 < d_gnn 8: rows 5..7 of w0 meet no feature column, so
        # their gradient is exactly zero and each AdamW step only decays them
        rng = np.random.default_rng(16)
        layers = [make_layer(rng, 5, 12, 48)[:2] for _ in range(3)]
        cfg = TrainConfig(epochs=4, lr=0.01, accum_steps=2, d_gnn=8, seed=4, block_size=4)
        params, _ = train(layers, cfg)
        expect = init_allocator_params(8, 8, 4, np.random.default_rng(4)).w0
        for _ in range(cfg.epochs * 2):  # 3 passes per epoch: steps after 2 and at the end
            expect -= cfg.lr * AdamW().weight_decay * expect
        assert np.array_equal(params.w0[5:], expect[5:])
        assert not np.array_equal(params.w0[:5], expect[:5])

    @pytest.mark.slow
    def test_monotone_budget_pressure(self, fixture_records):
        # a heavier average-bit penalty never worsens the final budget gap
        gaps = []
        for alpha in (0.1, 1.0, 10.0):
            cfg = TrainConfig(target_bits=2.5, seed=0, alpha=alpha)
            records = fixture_records(cfg)  # alpha 1.0 is criterion 02's seed 0
            final = [r for r in records if r.epoch == cfg.epochs - 1]
            gaps.append(abs(float(np.mean([r.soft_mean_bits for r in final])) - 2.5))
        assert gaps[1] <= gaps[0] + 1e-12
        assert gaps[2] <= gaps[1] + 1e-12


class TestSharedForward:
    """Inference and training run one forward pass."""

    @pytest.mark.parametrize("arch", ["gcn", "mlp"])
    def test_widths_and_logits_match_training_forward(self, arch):
        rng = np.random.default_rng(21)
        w, hc, _ = make_layer(rng, 40, 24, 96, decades=1.0)
        params = init_allocator_params(16, 12, 4, rng)
        if arch == "gcn":
            adj, a0 = hc, hc @ preprocess(w, 16)
        else:
            adj, a0 = None, hessian_node_features(hc, 16)
        cache = forward_cached(a0, params, adj=adj)
        assert cache.logits.dtype == np.float64

        widths = widths_for(w, hc, params, arch=arch)
        assert np.array_equal(widths, np.argmax(cache.logits, axis=1) + 1)
        assert len(np.unique(widths)) > 1

        _, x2 = gcn_forward(adj, a0, params)
        assert cache.logits.tobytes() == ffnn_logits(x2, params).tobytes()

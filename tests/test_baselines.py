import numpy as np
import pytest

from mgquant.baselines import BaselineSpec, quantize_rtn_matrix, run_baseline
from mgquant.gptq import proxy_loss
from mgquant.synth import make_layer
from mgquant.training import TrainConfig


def correlated(seed, d_row=64, d_col=64, calib_rows=256):
    rng = np.random.default_rng(seed)
    return make_layer(rng, d_row, d_col, calib_rows)


class TestSpec:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown baseline method"):
            BaselineSpec(method="awq")

    def test_budget_defaults_to_bits(self):
        assert BaselineSpec(method="rtn", bits=3).budget == 3.0
        assert BaselineSpec(method="mlp-ptq", bits=2, target_bits=2.5).budget == 2.5


class TestRtn:
    def test_zero_proxy_on_representable_matrix(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 4, size=(8, 5))
        codes[0, :] = 0
        codes[1, :] = 3
        w = 0.5 * codes.astype(np.float64)
        _, hc, calib = correlated(0, d_row=8, d_col=5, calib_rows=16)
        res = run_baseline(BaselineSpec(method="rtn", bits=2), w, hc)
        assert proxy_loss(w, res.quantized, calib) == 0.0
        assert np.array_equal(res.quantized, w)

    def test_uniform_widths(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((6, 7))
        res = quantize_rtn_matrix(w, 3)
        assert np.all(res.widths == 3)
        assert res.mean_bits == 3.0


class TestGptqUniform:
    @pytest.mark.parametrize("bits", [1, 2])
    def test_identity_factor_equals_rtn(self, bits):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((10, 12))
        hc = 0.9 * np.eye(12)
        spec = BaselineSpec(method="gptq-uniform", bits=bits)
        res = run_baseline(spec, w, hc, cfg=TrainConfig(block_size=4))
        rtn = quantize_rtn_matrix(w, bits)
        assert np.array_equal(res.quantized, rtn.quantized)

    def test_average_bits_exact(self):
        rng = np.random.default_rng(3)
        w, hc, calib = correlated(3)
        res = run_baseline(BaselineSpec(method="gptq-uniform", bits=2), w, hc)
        assert res.mean_bits == 2.0
        assert res.bit_histogram(4) == [0, 64, 0, 0]

    def test_beats_rtn_statistically(self):
        # compensation helps on correlated instances
        wins = 0
        for seed in range(50):
            w, hc, calib = correlated(200 + seed)
            g = run_baseline(
                BaselineSpec(method="gptq-uniform", bits=2), w, hc,
                cfg=TrainConfig(block_size=16),
            )
            r = run_baseline(BaselineSpec(method="rtn", bits=2), w, hc)
            wins += proxy_loss(w, g.quantized, calib) <= proxy_loss(w, r.quantized, calib)
        assert wins >= 48  # 95% with margin


class TestMlpPtq:
    def test_budget_invariant_on_fixture_layer(self, fixture_layers):
        layers, calibs = fixture_layers
        w, hc = layers[0]
        cfg = TrainConfig(
            epochs=150, lr=5e-3, accum_steps=4, d_gnn=64, hidden=64,
            target_bits=2.5, seed=3, block_size=128,
        )
        res = run_baseline(
            BaselineSpec(method="mlp-ptq", bits=2, target_bits=2.5),
            w, hc, cfg=cfg,
        )
        assert abs(res.mean_bits - 2.5) <= 0.25
        assert proxy_loss(w, res.quantized, calibs[0]) > 0.0
        assert sum(res.bit_histogram(4)) == w.shape[1]

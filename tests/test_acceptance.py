"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them as they complete). Tolerances and runtime bounds are asserted as
stated; nothing is deferred to later calibration.
"""

import json
import struct
import time

import numpy as np
import pytest

from helpers import gradient_check_config
from mgquant.allocator import gumbel_softmax, init_allocator_params, sample_gumbel
from mgquant.baselines import BaselineSpec, quantize_rtn_matrix, run_baseline
from mgquant.cli import main
from mgquant.calibration import proxy_loss
from mgquant.gptq import quantize_blockwise
from mgquant.linalg import cholesky, spd_inverse
from mgquant.pipeline import quantize_with_allocator, widths_for
from mgquant.report import build_report, layer_entry, write_report
from mgquant.synth import make_layer, salience_instance
from mgquant.tensorfile import read_tensor_file, write_tensor_file
from mgquant.training import TrainConfig, train


def report_line(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {num:02d}] {status} - {detail}")


def test_criterion_01_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        worst = max(worst, gradient_check_config(seed, step=1e-5))
    # d_row < d_gnn: the first layer's input built from real features
    for seed in range(5):
        worst = max(worst, gradient_check_config(seed, step=1e-5, short_rows=True))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 60.0
    report_line(1, ok, f"analytic vs central FD worst rel err {worst:.2e} "
                       f"over 25 seeded configs in {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 60.0


@pytest.mark.slow
def test_criterion_02_bit_budget(fixture_records):
    start = time.perf_counter()
    hits = 0
    means = []
    for seed in range(10):
        cfg = TrainConfig(target_bits=2.5, alpha=1.0, seed=seed)
        records = fixture_records(cfg, fresh=True)  # trained and timed here, then stored
        final = [r for r in records if r.epoch == cfg.epochs - 1]
        hard = float(np.mean([r.hard_mean_bits for r in final]))
        means.append(hard)
        hits += abs(hard - 2.5) <= 0.25
    elapsed = time.perf_counter() - start
    ok = hits >= 9 and elapsed < 600.0
    report_line(2, ok, f"{hits}/10 seeds within +-0.25 of 2.5 bits "
                       f"(means {min(means):.3f}..{max(means):.3f}) in {elapsed:.0f}s")
    assert hits >= 9
    assert elapsed < 600.0


@pytest.mark.slow
def test_criterion_03_mixed_precision_advantage():
    start = time.perf_counter()
    wins = 0
    n = 50
    for seed in range(n):
        w, hc, calib = salience_instance(seed)
        d_col = w.shape[1]
        cfg = TrainConfig(
            epochs=200, lr=5e-3, accum_steps=4, d_gnn=32,
            target_bits=2.5, seed=1000 + seed, block_size=64,
        )
        params, _ = train([(w, hc)], cfg)
        widths = widths_for(w, hc, params)
        mg = quantize_blockwise(w, hc, widths, block_size=64)
        split = np.full(d_col, 2, dtype=np.int64)
        split[d_col // 2:] = 3
        fixed = quantize_blockwise(w, hc, split, block_size=64)
        wins += proxy_loss(w, mg.quantized, calib) <= proxy_loss(w, fixed.quantized, calib)
    elapsed = time.perf_counter() - start
    ok = wins >= int(0.8 * n) and elapsed < 900.0
    report_line(3, ok, f"trained allocation beat the fixed 2/3-bit split on "
                       f"{wins}/{n} salient instances in {elapsed:.0f}s")
    assert wins >= int(0.8 * n)
    assert elapsed < 900.0


def test_criterion_04_compensation_advantage():
    start = time.perf_counter()
    wins = 0
    for seed in range(100):
        rng = np.random.default_rng(40_000 + seed)
        w, hc, calib = make_layer(rng, 64, 64, 256)
        g = quantize_blockwise(w, hc, np.full(64, 2), block_size=16)
        r = quantize_rtn_matrix(w, 2)
        wins += proxy_loss(w, g.quantized, calib) <= proxy_loss(w, r.quantized, calib)
    elapsed = time.perf_counter() - start
    ok = wins >= 95 and elapsed < 60.0
    report_line(4, ok, f"blockwise compensation <= RTN on {wins}/100 "
                       f"correlated instances in {elapsed:.1f}s")
    assert wins >= 95
    assert elapsed < 60.0


def test_criterion_05_quantizer_exactness():
    rng = np.random.default_rng(5)
    d_row, d_col = 64, 32
    widths = rng.integers(1, 5, size=d_col).astype(np.int64)
    w = np.zeros((d_row, d_col))
    for j, t in enumerate(widths):
        if t == 1:
            alpha = float(2.0 ** rng.integers(-3, 2))
            w[:, j] = alpha * rng.choice([-1.0, 1.0], size=d_row)
        else:
            scale = float(2.0 ** rng.integers(-4, 1))
            codes = rng.integers(0, 2**t, size=d_row)
            codes[0], codes[1] = 0, 2**t - 1  # pin the fitted range
            w[:, j] = scale * codes
    hc = np.triu(rng.standard_normal((d_col, d_col)))
    np.fill_diagonal(hc, np.abs(np.diag(hc)) + 0.5)
    res = quantize_blockwise(w, hc, widths, block_size=8)
    exact = np.array_equal(res.quantized, w) and np.all(res.block_errors == 0.0)

    # every output lies exactly on its declared grid, also for generic input
    w2 = rng.standard_normal((16, d_col))
    res2 = quantize_blockwise(w2, hc, widths, block_size=8)
    on_grid = all(
        np.array_equal(
            res2.quantized[:, j],
            res2.scales[j] * (res2.codes[:, j].astype(np.float64) - res2.zeros[j]),
        )
        and res2.codes[:, j].min() >= 0 and res2.codes[:, j].max() <= 2 ** t - 1
        for j, t in enumerate(res2.widths)
    )
    ok = exact and on_grid
    report_line(5, ok, "grid-representable matrices round-trip exactly; "
                       "all outputs sit on their declared grids")
    assert exact
    assert on_grid


def test_criterion_06_gumbel_limits():
    rng = np.random.default_rng(6)
    logits = rng.standard_normal(4)
    noise = sample_gumbel((4,), rng)
    flat = gumbel_softmax(logits, 1e6, noise)
    flat_dev = float(np.max(np.abs(flat - 0.25)))

    sharp = gumbel_softmax(logits, 1e-6, noise)
    onehot = np.zeros(4)
    onehot[np.argmax(logits + noise)] = 1.0
    sharp_dev = float(np.max(np.abs(sharp - onehot)))

    n = 100_000
    noise_mc = sample_gumbel((n, 4), rng)
    p = gumbel_softmax(np.zeros((n, 4)), 1.0, noise_mc)
    counts = np.bincount(np.argmax(p, axis=1), minlength=4)
    sigma = np.sqrt(n * 0.25 * 0.75)
    mc_dev = float(np.max(np.abs(counts - n / 4.0)))

    ok = flat_dev < 1e-4 and sharp_dev < 1e-6 and mc_dev <= 3.0 * sigma
    report_line(6, ok, f"tau=1e6 dev {flat_dev:.1e}; tau=1e-6 dev {sharp_dev:.1e}; "
                       f"1e5-sample max count dev {mc_dev:.0f} <= 3 sigma ({3*sigma:.0f})")
    assert flat_dev < 1e-4
    assert sharp_dev < 1e-6
    assert mc_dev <= 3.0 * sigma


def _small_cli_instance(tmp_path, seed=0):
    rng = np.random.default_rng(seed)
    wdir = tmp_path / "weights"
    hdir = tmp_path / "hessians"
    wdir.mkdir()
    hdir.mkdir()
    calib_path = tmp_path / "calib.mgqt"
    x = (0.05 * rng.standard_normal((96, 16))).astype(np.float32)
    write_tensor_file(calib_path, {"batch0": x})
    for i in range(2):
        w = (0.01 * rng.standard_normal((24, 16))).astype(np.float32)
        write_tensor_file(wdir / f"L{i}.mgqt", {"weights": w})
        gram = tmp_path / f"gram{i}.mgqt"
        assert main(["gram", "--calib", str(calib_path), "--out", str(gram)]) == 0
        assert main(["hessian", "--gram", str(gram), "--out", str(hdir / f"L{i}.mgqt")]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "epochs": 3, "lr": 0.01, "accum_steps": 2, "d_gnn": 8,
        "block_size": 8, "seed": 11, "target_bits": 2.5,
    }))
    return wdir, hdir, calib_path, cfg


def test_criterion_07_cli_determinism(tmp_path):
    wdir, hdir, calib, cfg = _small_cli_instance(tmp_path)
    params_bytes = []
    log_bytes = []
    for i in (1, 2):
        out = tmp_path / f"params{i}.mgqt"
        assert main(["train", "--weights", str(wdir), "--hessians", str(hdir),
                     "--config", str(cfg), "--out", str(out)]) == 0
        params_bytes.append(out.read_bytes())
        log_bytes.append((tmp_path / f"params{i}.mgqt.log").read_bytes())
    train_ok = params_bytes[0] == params_bytes[1] and log_bytes[0] == log_bytes[1]

    out_bytes = []
    reports = []
    for i in (1, 2):
        qout = tmp_path / f"q{i}.mgqt"
        rep = tmp_path / f"r{i}.json"
        assert main(["quantize", "--weights", str(wdir / "L0.mgqt"),
                     "--hessian", str(hdir / "L0.mgqt"),
                     "--params", str(tmp_path / "params1.mgqt"),
                     "--block", "8", "--calib", str(calib),
                     "--out", str(qout), "--report", str(rep)]) == 0
        out_bytes.append(qout.read_bytes())
        r = json.loads(rep.read_text())
        r.pop("timing")
        reports.append(r)
    quant_ok = out_bytes[0] == out_bytes[1] and reports[0] == reports[1]
    ok = train_ok and quant_ok
    report_line(7, ok, "train and quantize outputs byte-identical across "
                       "two runs (timing excluded)")
    assert train_ok
    assert quant_ok


def test_criterion_08_linear_algebra():
    worst_chol = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 65))
        a = rng.standard_normal((n + 4, n))
        spd = a.T @ a + n * np.eye(n)
        t = cholesky(spd, "lower")
        worst_chol = max(
            worst_chol, np.linalg.norm(t @ t.T - spd) / np.linalg.norm(spd)
        )
    rng = np.random.default_rng(123)
    a = rng.standard_normal((40, 32))
    spd = a.T @ a + 32 * np.eye(32)
    inv = spd_inverse(spd)
    resid = float(np.max(np.abs(spd @ inv - np.eye(32))))
    ok = worst_chol < 1e-8 and resid < 1e-6
    report_line(8, ok, f"cholesky reconstruction worst {worst_chol:.2e} over 100 "
                       f"seeded SPD; inverse residual {resid:.2e}")
    assert worst_chol < 1e-8
    assert resid < 1e-6


def test_criterion_09_allocator_efficiency(tmp_path):
    rng = np.random.default_rng(0)
    w, hc, _ = make_layer(rng, 1024, 1024, 2048, weight_scale=0.02, calib_scale=0.1)
    params = init_allocator_params(512, 512, 4, np.random.default_rng(1))
    # one warm-up, then five measured runs; the run with the median ratio is
    # judged and reported, so one slow run does not decide the criterion
    quantize_with_allocator(w, hc, params, block_size=128, dtype=np.float32)
    runs = []
    for _ in range(5):
        result, timings = quantize_with_allocator(
            w, hc, params, block_size=128, dtype=np.float32
        )
        runs.append((timings.allocator_time / timings.engine_time, timings))
    ratio, timings = sorted(runs, key=lambda run: run[0])[2]
    entry = layer_entry("layer1024", result, None, t_max=4)
    report = build_report(
        seed=0,
        config_echo={"command": "efficiency"},
        layers=[entry],
        timing={
            "layers": [{
                "name": "layer1024",
                "allocator_time": timings.allocator_time,
                "engine_time": timings.engine_time,
            }],
            "total_wall_time": timings.total,
        },
    )
    path = tmp_path / "efficiency_report.json"
    write_report(path, report)
    stored = json.loads(path.read_text())["timing"]["layers"][0]
    ok = ratio < 0.5 and "allocator_time" in stored and "engine_time" in stored
    report_line(9, ok, f"allocator inference adds {100 * ratio:.1f}% over the "
                       f"engine on a 1024x1024 layer (median of 5 runs, bound 50%); "
                       f"both timings reported")
    assert ratio < 0.5
    assert "allocator_time" in stored and "engine_time" in stored


def test_criterion_10_ablation_harness(tmp_path, fixture_layers):
    layers, calibs = fixture_layers
    w, hc = layers[0]
    write_tensor_file(tmp_path / "w.mgqt", {"weights": w})
    write_tensor_file(tmp_path / "h.mgqt", {"hessian_cholesky": hc})
    write_tensor_file(tmp_path / "c.mgqt", {"batch0": calibs[0][0]})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "epochs": 150, "lr": 5e-3, "accum_steps": 4, "d_gnn": 64,
        "block_size": 128, "seed": 3, "target_bits": 2.5,
    }))
    rep = tmp_path / "mlp_report.json"
    rc = main(["baseline", "--method", "mlp-ptq", "--target-bits", "2.5",
               "--weights", str(tmp_path / "w.mgqt"), "--hessian", str(tmp_path / "h.mgqt"),
               "--calib", str(tmp_path / "c.mgqt"), "--config", str(cfg_path),
               "--out", str(tmp_path / "mlp_q.mgqt"), "--report", str(rep)])
    mlp_report = json.loads(rep.read_text())
    mlp_entry = mlp_report["layers"][0]

    # GCN counterpart at the same budget and configuration
    cfg = TrainConfig(
        epochs=150, lr=5e-3, accum_steps=4, d_gnn=64,
        target_bits=2.5, seed=3, block_size=128,
    )
    params, _ = train([(w, hc)], cfg)
    widths = widths_for(w, hc, params)
    gcn = quantize_blockwise(w, hc, widths, block_size=128)
    gcn_loss = proxy_loss(w, gcn.quantized, calibs[0])

    comparison = {
        "schema": "mgquant-ablation-v1",
        "target_bits": 2.5,
        "gcn": {"proxy_loss": gcn_loss, "mean_bits": round(gcn.mean_bits, 3)},
        "mlp": {"proxy_loss": mlp_entry["proxy_loss"], "mean_bits": mlp_entry["mean_bits"]},
    }
    cmp_path = tmp_path / "ablation_comparison.json"
    cmp_path.write_text(json.dumps(comparison, sort_keys=True, indent=2))
    emitted = json.loads(cmp_path.read_text())
    ok = (
        rc == 0
        and mlp_entry["proxy_loss"] is not None
        and emitted["gcn"]["proxy_loss"] > 0
        and emitted["mlp"]["proxy_loss"] > 0
    )
    report_line(10, ok, f"mlp-ptq completed (proxy {mlp_entry['proxy_loss']:.3e}, "
                        f"mean bits {mlp_entry['mean_bits']}); comparison report emitted "
                        f"(gcn proxy {gcn_loss:.3e}); no directional assertion")
    assert rc == 0
    assert mlp_entry["proxy_loss"] is not None
    assert emitted["gcn"]["proxy_loss"] > 0 and emitted["mlp"]["proxy_loss"] > 0


def test_criterion_11_tensor_file_format(tmp_path):
    # 200-seed byte round trip
    round_trip_ok = True
    for seed in range(200):
        rng = np.random.default_rng(seed)
        sections = {}
        for i in range(int(rng.integers(1, 4))):
            ndim = int(rng.integers(1, 4))
            shape = tuple(int(d) for d in rng.integers(1, 7, size=ndim))
            dtype = [np.float32, np.float64, np.uint8][int(rng.integers(0, 3))]
            if dtype == np.uint8:
                arr = rng.integers(0, 256, size=shape).astype(np.uint8)
            else:
                arr = rng.standard_normal(shape).astype(dtype)
            sections[f"s{i}"] = arr
        p1 = tmp_path / "rt1.mgqt"
        p2 = tmp_path / "rt2.mgqt"
        write_tensor_file(p1, sections)
        write_tensor_file(p2, read_tensor_file(p1))
        round_trip_ok &= p1.read_bytes() == p2.read_bytes()

    good = tmp_path / "good.mgqt"
    write_tensor_file(good, {"x": np.arange(6, dtype=np.float32)})
    blob = bytearray(good.read_bytes())

    bad_magic = tmp_path / "bad_magic.mgqt"
    bad_magic.write_bytes(b"XXXX" + bytes(blob[4:]))
    rc_magic = main(["hessian", "--gram", str(bad_magic), "--out", str(tmp_path / "h.mgqt")])

    bad_dtype = bytearray(blob)
    bad_dtype[7 + 1 + 1] = 9
    bd = tmp_path / "bad_dtype.mgqt"
    bd.write_bytes(bytes(bad_dtype))
    rc_dtype = main(["hessian", "--gram", str(bd), "--out", str(tmp_path / "h.mgqt")])

    trunc = tmp_path / "trunc.mgqt"
    trunc.write_bytes(bytes(blob[:-3]))
    rc_trunc = main(["hessian", "--gram", str(trunc), "--out", str(tmp_path / "h.mgqt")])

    ok = round_trip_ok and rc_magic == 3 and rc_dtype == 3 and rc_trunc == 3
    report_line(11, ok, f"200-seed byte round trip; malformed magic/dtype/truncation "
                        f"exit codes {rc_magic}/{rc_dtype}/{rc_trunc}")
    assert round_trip_ok
    assert rc_magic == 3 and rc_dtype == 3 and rc_trunc == 3

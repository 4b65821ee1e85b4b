import json
from pathlib import Path

import numpy as np

from mgquant.calibration import proxy_loss
from mgquant.gptq import quantize_blockwise
from mgquant.report import SCHEMA, build_report, dump_report, layer_entry, write_report

GOLDEN = Path(__file__).parent / "data" / "golden_report.json"


def golden_result():
    w = np.array([
        [0.0, 1.0, -1.0, 0.5],
        [1.0, 0.5, 1.0, -0.5],
        [2.0, -0.5, 3.0, 1.5],
        [3.0, -1.0, -3.0, -1.5],
    ])
    hc = np.eye(4)
    return w, quantize_blockwise(w, hc, np.array([2, 1, 2, 3]), block_size=2)


def golden_report():
    w, res = golden_result()
    entry = layer_entry("layer0", res, proxy_loss(w, res.quantized, [np.eye(4)]), t_max=4)
    return build_report(
        seed=0,
        config_echo={"command": "golden", "block_size": 2},
        layers=[entry],
        timing={"total_wall_time": 0.0},
    )


def test_matches_golden_file_byte_for_byte():
    # schema stability: a fixed input reproduces the frozen report exactly
    assert dump_report(golden_report()) == GOLDEN.read_text()


def test_valid_json_with_expected_schema():
    report = json.loads(dump_report(golden_report()))
    assert report["schema"] == SCHEMA
    assert set(report) == {"schema", "seed", "config", "layers", "totals", "timing"}
    layer = report["layers"][0]
    assert set(layer) == {
        "name", "rows", "cols", "proxy_loss", "mean_bits",
        "bit_histogram", "block_error_sum",
    }
    assert sum(layer["bit_histogram"]) == layer["cols"]


def test_histogram_counts_and_rounding():
    _, res = golden_result()
    entry = layer_entry("x", res, None, t_max=4)
    assert entry["bit_histogram"] == [1, 2, 1, 0]
    assert entry["mean_bits"] == round(float(np.mean([2, 1, 2, 3])), 3)


def test_totals_weighted_mean_bits():
    e1 = {"name": "a", "rows": 2, "cols": 10, "proxy_loss": 1.0, "mean_bits": 2.0,
          "bit_histogram": [0, 10, 0, 0], "block_error_sum": 0.0}
    e2 = {"name": "b", "rows": 2, "cols": 30, "proxy_loss": 3.0, "mean_bits": 4.0,
          "bit_histogram": [0, 0, 0, 30], "block_error_sum": 0.0}
    report = build_report(seed=1, config_echo={}, layers=[e1, e2], timing={})
    assert report["totals"]["proxy_loss_sum"] == 4.0
    assert report["totals"]["mean_bits"] == 3.5
    assert report["totals"]["n_layers"] == 2


def test_write_report_atomic_and_deterministic(tmp_path):
    p = tmp_path / "r.json"
    write_report(p, golden_report())
    b1 = p.read_bytes()
    write_report(p, golden_report())
    assert p.read_bytes() == b1
    assert not [f for f in tmp_path.iterdir() if f.suffix == ".tmp"]

"""The bench tracer (`bench/tracing.py`) times the package by swapping wrappers
onto module attributes. A rename or fusion in `mgquant` breaks `--trace 1`;
these tests make that fail in the unit suite. The tracer is loaded from its
file by path and never modified.
"""

import importlib
import types
from pathlib import Path

import numpy as np
import pytest

from mgquant import cli
from mgquant.allocator import init_allocator_params
from mgquant.calibration import gram_break_even
from mgquant.pipeline import params_to_sections, quantize_with_allocator
from mgquant.synth import make_layer
from mgquant.tensorfile import write_tensor_file
from mgquant.training import TrainConfig, train

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_wrapped_name_resolves():
    unresolved = []
    for module, path, *_ in load_tracing().WRAPPERS:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = owner.__dict__.get(part)
            if owner is None:
                break
        if owner is None or attr not in owner.__dict__:
            unresolved.append(f"{module}.{path}")
    assert not unresolved, f"tracer names no longer in the package: {unresolved}"


def test_allocator_and_training_names_stay_on_their_call_paths():
    rng = np.random.default_rng(0)
    w, hc, _ = make_layer(rng, 24, 16, 64)
    tracer = load_tracing().Tracer()
    with tracer.installed():
        quantize_with_allocator(w, hc, init_allocator_params(8, 8, 4, rng), block_size=8)
        cfg = TrainConfig(epochs=2, accum_steps=2, d_gnn=8, block_size=8)
        train([(w, hc), (w, hc)], cfg)
    counts = {}
    for span in tracer.spans:
        counts[span["name"]] = counts.get(span["name"], 0) + 1
    for name in ("allocator.preprocess", "allocator.gcn_forward", "allocator.allocate"):
        assert counts.get(name) == 1, name
    assert counts.get("training.forward") == 4
    assert counts.get("training.backward") == 4


@pytest.mark.parametrize("rows", (20, 64))
def test_proxy_loss_count_over_calibration_split_across_files(tmp_path, rows):
    # the tracer reads `total_rows` off proxy_loss's third argument once the
    # call returns; with --calib in two files it must still count all m rows,
    # in row order (m <= m*) and through the Gram (m > m*) alike
    rng = np.random.default_rng(1)
    d_row, d_col = 24, 16
    assert (rows > gram_break_even(d_row, d_col)) == (rows == 64)
    w, hc, _ = make_layer(rng, d_row, d_col, 64)
    x = rng.standard_normal((rows, d_col))
    files = {name: tmp_path / f"{name}.mgqt" for name in ("w", "h", "p", "c0", "c1", "q")}
    write_tensor_file(files["w"], {"weights": w})
    write_tensor_file(files["h"], {"hessian_cholesky": hc})
    write_tensor_file(files["p"], params_to_sections(init_allocator_params(8, 8, 4, rng)))
    write_tensor_file(files["c0"], {"a": x[:5], "b": x[5:9]})
    write_tensor_file(files["c1"], {"a": x[9:]})
    calib = ["--calib", str(files["c0"]), str(files["c1"])]
    tracer = load_tracing().Tracer()
    with tracer.installed():
        assert cli.main(["quantize", "--weights", str(files["w"]), "--hessian", str(files["h"]),
                         "--params", str(files["p"]), "--block", "8", *calib,
                         "--out", str(files["q"])]) == 0
        assert cli.main(["eval", "--orig", str(files["w"]), "--quant", str(files["q"]),
                         *calib]) == 0
    counts = [s["count"] for s in tracer.spans if s["name"] == "gptq.proxy_loss"]
    assert counts == [2 * d_row * d_col * rows] * 2

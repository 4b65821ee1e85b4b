"""The three layer stacks and the seeded generator of their input files.

Every stack uses the scales of `mgquant.synth.regression_fixture`: weights
0.004 x Gaussian with shuffled log-spaced per-column scales over one decade,
and calibration rows 0.05 x (Z @ M) with a random mixing matrix M per layer.
The generator is the benchmark's own, so the program sees only `.mgqt`
files. Each stack leans on a different part of the program:

* `stack-256`: allocator training and CLI start-up;
* `wide-2048`: the blockwise engine, the 2048^2 inverse and Cholesky, the
  allocator's dense adjacency products and large writes;
* `calib-long`: Gram accumulation, large calibration reads and the
  O(d_row * d_col * m) proxy loss in `quantize` and `eval`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mgqt

WEIGHT_SCALE = 0.004
CALIB_SCALE = 0.05
DECADES = 1.0
DAMP = 0.01
BLOCK = 128


@dataclass(frozen=True)
class Workload:
    name: str
    key: int  # mixed into the seed so stacks never share inputs
    layers: int
    d_row: int
    d_col: int
    rows: int  # calibration rows per layer
    files: int  # calibration files per layer
    batches: int  # sections per calibration file
    # Training config; with `target_bits` set, the run also checks that the
    # allocator holds that average-bit budget.
    config: dict = field(default_factory=dict)

    @property
    def t_max(self) -> int:
        return self.config.get("t_max", 4)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stack-256", 1, layers=8, d_row=256, d_col=256, rows=512, files=1,
                 batches=1, config={"epochs": 10, "lr": 0.005, "target_bits": 2.5, "seed": 0}),
        Workload("wide-2048", 2, layers=2, d_row=2048, d_col=2048, rows=4096, files=1,
                 batches=2, config={"epochs": 1, "seed": 0}),
        Workload("calib-long", 3, layers=2, d_row=512, d_col=512, rows=65536, files=4,
                 batches=4, config={"epochs": 1, "seed": 0}),
    )
}


@dataclass
class Layer:
    """One generated layer: its files and the benchmark's own reference data."""

    name: str
    weights_path: Path
    calib_paths: list[Path]
    w: np.ndarray  # the stored float32 weights, as float64
    gram: np.ndarray  # 2 X^T X in float64 from the stored float32 rows
    rows: int


@dataclass
class Inputs:
    workload: Workload
    root: Path
    layers: list[Layer]
    config_path: Path

    @property
    def weights_dir(self) -> Path:
        return self.root / "weights"


def generate(workload: Workload, seed: int, root: Path) -> Inputs:
    """Write the stack's weight, calibration and config files under `root`."""
    rng = np.random.default_rng([workload.key, seed])
    d_row, d_col = workload.d_row, workload.d_col
    per_file = workload.rows // workload.files
    per_batch = per_file // workload.batches
    layers = []
    for i in range(workload.layers):
        name = f"L{i}"
        col_scale = np.logspace(-DECADES / 2, DECADES / 2, d_col)
        rng.shuffle(col_scale)
        w = (WEIGHT_SCALE * rng.standard_normal((d_row, d_col)) * col_scale).astype(np.float32)
        weights_path = root / "weights" / f"{name}.mgqt"
        mgqt.write(weights_path, {"weights": w})

        mix = rng.standard_normal((d_col, d_col)) / np.sqrt(d_col)
        gram = np.zeros((d_col, d_col))
        calib_paths = []
        for f in range(workload.files):
            sections = {}
            for b in range(workload.batches):
                x = (CALIB_SCALE * rng.standard_normal((per_batch, d_col)) @ mix).astype(np.float32)
                x64 = x.astype(np.float64)
                gram += 2.0 * (x64.T @ x64)
                sections[f"batch{b}"] = x
            path = root / "calib" / name / f"part{f}.mgqt"
            mgqt.write(path, sections)
            calib_paths.append(path)
        layers.append(Layer(name, weights_path, calib_paths, w.astype(np.float64), gram,
                            per_batch * workload.batches * workload.files))
    config_path = root / "config.json"
    config_path.write_text(json.dumps(workload.config))
    return Inputs(workload, root, layers, config_path)

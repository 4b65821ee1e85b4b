"""The full file-based pipeline, as the CLI drives it.

gram -> hessian -> train -> quantize -> eval, all through tensor container
files in a temporary directory that is removed at the end. Equivalent
shell session:

    mgquant gram     --calib calib.mgqt --out gram.mgqt
    mgquant hessian  --gram gram.mgqt --damp 0.01 --out hess.mgqt
    mgquant train    --weights weights/ --hessians hessians/ \
                     --config cfg.json --out params.mgqt
    mgquant quantize --weights weights/L0.mgqt --hessian hessians/L0.mgqt \
                     --params params.mgqt --block 32 --calib calib.mgqt \
                     --out q.mgqt --report report.json
    mgquant eval     --orig weights/L0.mgqt --quant q.mgqt --calib calib.mgqt

Run: python demos/04_file_pipeline.py
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from mgquant.cli import main
from mgquant.tensorfile import read_tensor_file, write_tensor_file


def step(argv: list[str]) -> None:
    """Run one CLI command; stop the demo with its exit code if it fails."""
    rc = main(argv)
    if rc:
        sys.exit(rc)


with tempfile.TemporaryDirectory(prefix="mgquant_demo_") as tmp:
    root = Path(tmp)
    print(f"working in {root}\n")

    rng = np.random.default_rng(3)
    wdir = root / "weights"
    hdir = root / "hessians"
    wdir.mkdir()
    hdir.mkdir()

    calib_path = root / "calib.mgqt"
    x = (0.05 * rng.standard_normal((256, 32))).astype(np.float32)
    write_tensor_file(calib_path, {"batch0": x[:100], "batch1": x[100:]})

    for i in range(2):
        w = (0.01 * rng.standard_normal((48, 32))).astype(np.float32)
        write_tensor_file(wdir / f"L{i}.mgqt", {"weights": w})
        step(["gram", "--calib", str(calib_path), "--out", str(root / f"gram{i}.mgqt")])
        step(["hessian", "--gram", str(root / f"gram{i}.mgqt"), "--damp", "0.01",
              "--out", str(hdir / f"L{i}.mgqt")])

    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({
        "epochs": 40, "lr": 0.01, "accum_steps": 2, "d_gnn": 16, "hidden": 16,
        "block_size": 32, "seed": 0, "target_bits": 2.5,
    }))

    print("training allocator over both layers:")
    step(["train", "--weights", str(wdir), "--hessians", str(hdir),
          "--config", str(cfg), "--out", str(root / "params.mgqt")])

    print("\nquantizing layer 0 with the trained allocator:")
    step(["quantize", "--weights", str(wdir / "L0.mgqt"), "--hessian", str(hdir / "L0.mgqt"),
          "--params", str(root / "params.mgqt"), "--block", "32",
          "--calib", str(calib_path),
          "--out", str(root / "q.mgqt"), "--report", str(root / "report.json")])

    print("\nevaluating original vs quantized:")
    step(["eval", "--orig", str(wdir / "L0.mgqt"), "--quant", str(root / "q.mgqt"),
          "--calib", str(calib_path)])

    sections = read_tensor_file(root / "q.mgqt")
    print(f"\nquantized file sections: {list(sections)}")
    report = json.loads((root / "report.json").read_text())
    print(f"report: mean_bits={report['layers'][0]['mean_bits']} "
          f"histogram={report['layers'][0]['bit_histogram']} "
          f"allocator/engine ms="
          f"{1e3 * report['timing']['layers'][0]['allocator_time']:.1f}/"
          f"{1e3 * report['timing']['layers'][0]['engine_time']:.1f}")

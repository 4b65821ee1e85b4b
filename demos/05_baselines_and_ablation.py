"""Reference methods side by side: RTN, uniform-width compensation, the
dense-ablation allocator (mlp-ptq), and the graph allocator.

Run: python demos/05_baselines_and_ablation.py
"""

import numpy as np

from mgquant import (
    BaselineSpec,
    TrainConfig,
    proxy_loss,
    quantize_blockwise,
    run_baseline,
    train,
    widths_for,
)
from mgquant.synth import salience_instance

w, hc, calib = salience_instance(seed=5)
cfg = TrainConfig(
    epochs=200, lr=5e-3, accum_steps=4, d_gnn=32,
    target_bits=2.5, seed=2, block_size=64,
)

rows = []


def add_row(name, res):
    rows.append((name, res.mean_bits, proxy_loss(w, res.quantized, calib)))


for bits in (2, 3):
    add_row(f"rtn {bits}-bit", run_baseline(BaselineSpec(method="rtn", bits=bits), w, hc))
    add_row(f"compensated uniform {bits}-bit",
            run_baseline(BaselineSpec(method="gptq-uniform", bits=bits), w, hc, cfg=cfg))

add_row("mlp-ptq @ 2.5",
        run_baseline(BaselineSpec(method="mlp-ptq", bits=2, target_bits=2.5), w, hc, cfg=cfg))

params, _ = train([(w, hc)], cfg)
widths = widths_for(w, hc, params)
add_row("graph allocator @ 2.5", quantize_blockwise(w, hc, widths, block_size=64))

print(f"{'method':<30} {'mean bits':>9}   {'proxy loss':>12}")
for name, bits, loss in rows:
    print(f"{name:<30} {bits:>9.3f}   {loss:>12.6f}")

print("\nThe 2.5-bit mixed allocations should land between the uniform 2-bit")
print("and 3-bit rows; how the two allocators compare to each other varies")
print("with instance size and training budget.")

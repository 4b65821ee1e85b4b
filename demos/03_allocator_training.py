"""Training the graph allocator to spend bits where they matter.

A synthetic layer with strongly heterogeneous columns (scales spread over two
decades, shuffled) is quantized at an average budget of 2.5 bits. The
allocator reads each column as a graph node (adjacency: the hessian factor),
samples widths via Gumbel-Softmax during training, and is penalized for both
expected quantization error and deviation from the budget.

Run: python demos/03_allocator_training.py
"""

import numpy as np

from mgquant import TrainConfig, proxy_loss, quantize_blockwise, train, widths_for
from mgquant.synth import salience_instance

w, hc, calib = salience_instance(seed=0)
d_col = w.shape[1]
col_scale = np.abs(w).mean(axis=0)

cfg = TrainConfig(
    epochs=200, lr=5e-3, accum_steps=4, d_gnn=32,
    target_bits=2.5, seed=1, block_size=64,
)
params, records = train([(w, hc)], cfg)

first, last = records[0], records[-1]
print(f"epoch   0: l_quant={first.l_quant:.4f} soft_bits={first.soft_mean_bits:.3f}")
print(f"epoch {cfg.epochs - 1:>3}: l_quant={last.l_quant:.4f} "
      f"soft_bits={last.soft_mean_bits:.3f}")

# Inference is deterministic: node features, the same forward pass training
# used, then argmax over the head logits, no sampling.
widths = widths_for(w, hc, params)
print(f"\nlearned widths: mean={widths.mean():.3f} "
      f"histogram={np.bincount(widths, minlength=5)[1:].tolist()} (widths 1..4)")

# Wide columns should get more bits: bucket the columns by learned width and
# look at their scales.
for t in range(1, 5):
    cols = np.where(widths == t)[0]
    if cols.size:
        print(f"  width {t}: {cols.size:>2} columns, "
              f"median |w| scale {np.median(col_scale[cols]):.4f}")

mg = quantize_blockwise(w, hc, widths, block_size=64)
split = np.full(d_col, 2)
split[d_col // 2:] = 3
fixed = quantize_blockwise(w, hc, split, block_size=64)
mg_loss = proxy_loss(w, mg.quantized, calib)
fixed_loss = proxy_loss(w, fixed.quantized, calib)
print(f"\nproxy loss, learned allocation: {mg_loss:.5f}")
print(f"proxy loss, fixed 2/3 split:    {fixed_loss:.5f} "
      f"(learned = {mg_loss / fixed_loss:.2%} of fixed)")

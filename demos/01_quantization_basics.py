"""Quantization primitives: uniform grids, round-to-nearest, and the 1-bit path.

Run: python demos/01_quantization_basics.py
"""

import numpy as np

from mgquant import quantize

rng = np.random.default_rng(0)

# A t-bit grid maps integer codes 0..2^t-1 to real values scale*(code - zero).
# Fitting is asymmetric min-max: code 0 lands on the minimum of the data,
# the top code on the maximum. quantize() fits the grid and rounds to it,
# returning (dequantized values, codes, scale, zero).
values = rng.standard_normal(12)
print("values:", np.round(values, 3))
for bits in (2, 3, 4):
    deq, codes, scale, zero = quantize(values, bits)
    err = np.linalg.norm(values - deq)
    print(f"{bits}-bit: scale={scale:.4f} zero={zero:.3f} "
          f"codes={codes.astype(int).tolist()} l2_err={err:.4f}")

# Values already on a grid round-trip exactly.
on_grid = np.array([0.0, 1.0, 2.0, 3.0])
print("\non-grid round trip:", quantize(on_grid, 2)[0], "(exact)")

# The 1-bit quantizer is not min-max: it uses alpha*sign(x) with
# alpha = mean|x|, the least-squares optimal two-level code for the sign
# pattern. Compare it with the two-level min-max grid, {min, max}.
x = rng.standard_normal(1000)
binary = quantize(x, 1)[0]
minmax = np.where(x - x.min() < x.max() - x, x.min(), x.max())
print("\n1-bit on 1000 gaussians:")
print(f"  alpha*sign : l2 err {np.linalg.norm(x - binary):.2f} "
      f"(alpha={np.mean(np.abs(x)):.3f})")
print(f"  min-max    : l2 err {np.linalg.norm(x - minmax):.2f}")

# Per-value error is bounded by half the level spacing for RTN.
deq, _, scale, _ = quantize(x, 3)
print(f"\n3-bit RTN: max per-value error {np.max(np.abs(x - deq)):.4f} "
      f"<= scale/2 = {scale / 2:.4f}")

# The last axis is the vector axis: pass W.T to fit one grid per column.
w = rng.standard_normal((6, 4)) * np.array([0.1, 1.0, 10.0, 100.0])
deq, codes, scales, zeros = quantize(w.T, 2)
print("\nper-column 2-bit scales:", np.round(scales, 4))
print("columns on their grids:",
      np.array_equal(deq, scales[:, None] * (codes - zeros[:, None])))

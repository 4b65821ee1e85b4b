"""Heap bounds at 1024 x 1024, in units of M, one float64 copy of the weights.

The peaks are read with tracemalloc, which sees numpy's buffers, over the
call alone; the caller's inputs are not counted. A child process's
``ru_maxrss`` would not do here: it starts at the high-water mark of the
process that spawned it.
"""

import tracemalloc

import numpy as np
import pytest

from mgquant import quant
from mgquant.calibration import proxy_loss
from mgquant.gptq import quantize_blockwise
from mgquant.quant import error_table
from mgquant.training import TrainConfig, train

D = 1024
M = D * D * 8


def layer(seed):
    rng = np.random.default_rng(seed)
    w = 0.05 * rng.standard_normal((D, D))
    hc = np.triu(rng.standard_normal((D, D))) / np.sqrt(D)
    np.fill_diagonal(hc, np.abs(np.diag(hc)) + 1.0)
    return w, hc, rng.integers(1, 5, D)


def heap_peak(fn) -> float:
    """Peak traced bytes while ``fn()`` runs, in units of M."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / M
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("keep_residuals", [True, False])
def test_engine_quantizes_in_place(keep_residuals):
    # The work buffer (M), the residuals (M), the u8 codes (M/8), one block's
    # errors (M/8) and the first block's trailing update (7M/8): 3.13 M with
    # residuals. A separate quantized buffer and row-major copies of both
    # outputs took it to 4.25 M.
    w, hc, widths = layer(0)
    peak = heap_peak(lambda: quantize_blockwise(w, hc, widths, keep_residuals=keep_residuals))
    assert peak < (3.25 if keep_residuals else 2.25), peak


@pytest.mark.parametrize("order", ["C", "F"])
def test_error_table_holds_a_few_column_chunks(order):
    # 0.20 M from the engine's column-major residuals, 0.26 M from a C-ordered
    # matrix (a chunk is M/16 here); the whole-matrix table took 3.0 and 4.0 M.
    w, hc, _ = layer(1)
    w = np.asarray(w, order=order)
    chunk = min(quant.CHUNK_ELEMENTS, D * D) * 8 / M
    peak = heap_peak(lambda: error_table(w, np.diag(hc), 4))
    assert peak < 5 * chunk, peak


def test_training_holds_one_pass_at_a_time():
    # One pass's engine (3.13 M) plus the node features and activations: 3.4 M.
    # With the previous pass's result and activations still held it was 6.7 M.
    (w0, hc0, _), (w1, hc1, _) = layer(2), layer(3)
    cfg = TrainConfig(epochs=1, accum_steps=2, d_gnn=64)
    peak = heap_peak(lambda: train([(w0, hc0), (w1, hc1)], cfg))
    assert peak < 3.75, peak


class BuiltOnAccess:
    """``n`` layers, each built when indexed; ``reads`` counts the accesses."""

    def __init__(self, n):
        self.n = n
        self.reads = 0

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        if not 0 <= i < self.n:
            raise IndexError(i)
        self.reads += 1
        return layer(10 + i)[:2]


def test_training_peak_does_not_grow_with_the_number_of_layers():
    # Every layer is built inside the call, so the peak counts one layer's
    # weights and factor (2 M) beside its pass. Holding all four took it
    # 6 M higher than with one.
    cfg = TrainConfig(epochs=1, accum_steps=2, d_gnn=64)
    peaks = {}
    for n in (1, 4):
        layers = BuiltOnAccess(n)
        peaks[n] = heap_peak(lambda: train(layers, cfg))
        # one shape check per layer before the first epoch, then one read per pass
        assert layers.reads == n + cfg.epochs * n
    assert abs(peaks[4] - peaks[1]) < 0.25, peaks


def test_proxy_loss_keeps_no_float64_copies_of_its_inputs():
    # Row order over two float32 batches of 512 rows: D (M), one batch's
    # float64 copy (M/2) and its projection, squared in place (M/2): 2.5 M.
    # Float64 copies of w and q and an out-of-place square took it to 4.5 M.
    rng = np.random.default_rng(4)
    w = rng.standard_normal((D, D)).astype(np.float32)
    q = w + np.float32(0.01)
    xs = [rng.standard_normal((512, D)).astype(np.float32) for _ in range(2)]
    peak = heap_peak(lambda: proxy_loss(w, q, xs))
    assert peak < 2.75, peak

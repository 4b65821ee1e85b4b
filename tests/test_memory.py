"""Heap bounds at 1024 x 1024, in units of M, one float64 copy of the weights
(the factorizations' are at 512 x 512, in units of one float64 copy of theirs).

The peaks are read with tracemalloc, which sees numpy's buffers, over the
call alone; the caller's inputs are not counted. A child process's
``ru_maxrss`` would not do here: it starts at the high-water mark of the
process that spawned it.
"""

import tracemalloc

import numpy as np
import pytest

from mgquant import quant
from mgquant.calibration import build_hessian_cholesky, proxy_loss
from mgquant.gptq import quantize_blockwise
from mgquant.linalg import cholesky, cholesky_of_inverse, spd_inverse
from mgquant.quant import error_table
from mgquant.training import AdamW, TrainConfig, train

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
    # The work buffer (M), which ends holding the residuals, the u8 codes
    # (M/8) and the error history (M), into which every pull writes its
    # product and which the quantized matrix is decoded into in place: 2.14 M
    # without residuals, whose block-error squares go into the spent work
    # buffer, and 2.27 M with them, whose squares take one block-sized
    # scratch. A separate residuals buffer took it to 3.14 M; a separate
    # quantized buffer and row-major copies of both outputs, to 4.25 M; a
    # temporary per pull and per block-error sum, to 3.27 M.
    w, hc, widths = layer(0)
    peak = heap_peak(lambda: quantize_blockwise(w, hc, widths, keep_residuals=keep_residuals))
    assert peak < (2.5 if keep_residuals else 2.25), peak


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
    # One pass's engine (2.27 M) plus the node features and activations: 2.5 M;
    # 3.4 M while the engine kept a separate residuals buffer.
    # With the previous pass's result and activations still held it was 6.7 M.
    (w0, hc0, _), (w1, hc1, _) = layer(2), layer(3)
    cfg = TrainConfig(epochs=1, accum_steps=2, d_gnn=64)
    peak = heap_peak(lambda: train([(w0, hc0), (w1, hc1)], cfg))
    assert peak < 3.75, peak


def test_adamw_step_keeps_no_parameter_sized_scratch():
    # One step on a 512 x 512 parameter (2 MiB) whose moments exist: two
    # scratch chunks of 128 KiB. Two scratch copies of the parameter took 4 MiB.
    rng = np.random.default_rng(5)
    params, grads = {"w": rng.standard_normal((512, 512))}, {"w": rng.standard_normal((512, 512))}
    opt = AdamW()
    opt.step(params, grads)
    peak = heap_peak(lambda: opt.step(params, grads)) * M
    assert peak < 2**20, peak


@pytest.mark.parametrize("arch, rows", [("gcn", 48), ("mlp", 40)])
def test_w0_state_stops_at_the_widest_first_layer_input(monkeypatch, arch, rows):
    # d_gnn 64 is past every layer's first-layer input: d_row 48 at most for
    # the graph layers, d_col 40 for the MLP ablation
    shapes = []
    step = AdamW.step

    def spy(opt, params, grads):
        step(opt, params, grads)
        shapes.append((grads["w0"].shape, opt._m["w0"].shape, opt._v["w0"].shape))

    monkeypatch.setattr(AdamW, "step", spy)
    rng = np.random.default_rng(6)
    layers = []
    for d_row in (32, 48):
        hc = np.triu(rng.standard_normal((40, 40))) / 8
        np.fill_diagonal(hc, np.abs(np.diag(hc)) + 1.0)
        layers.append((0.05 * rng.standard_normal((d_row, 40)), hc))
    train(layers, TrainConfig(epochs=2, accum_steps=1, d_gnn=64, block_size=16), arch=arch)
    assert shapes == [((rows, 64),) * 3] * 4


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


def test_factorizations_fill_the_inverse_factor_in_place():
    # The symmetrized input (1) and the buffer into which the recursion writes
    # L^{-1} (1), with up to 0.8 of block temporaries; build_hessian_cholesky
    # adds its damped copy (1), and cholesky holds the symmetrized input and
    # numpy's factor (2). spd_inverse peaks in its final mirror: the factor,
    # the product, its two triangles and their sum (5). With a fresh zeroed
    # block per recursion level, and L assembled for cholesky, the first three
    # read 3.25, 4.25 and 3.0.
    n = 512
    x = np.random.default_rng(7).standard_normal((n + 8, n))
    a = x.T @ x + n * np.eye(n)
    bounds = {cholesky_of_inverse: 3.0, build_hessian_cholesky: 4.0, cholesky: 2.5,
              spd_inverse: 5.1}
    peaks = {fn.__name__: heap_peak(lambda: fn(a)) * M / (n * n * 8) for fn in bounds}
    assert all(peaks[fn.__name__] < bound for fn, bound in bounds.items()), peaks

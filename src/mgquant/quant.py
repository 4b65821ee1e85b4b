"""Scalar quantization: one grid rule and rounding step, plus the error table.

A t-bit grid maps integer codes ``c in [0, 2^t - 1]`` to real values via

    dequant(c) = scale * (c - zero)

with a real-valued ``zero`` offset, so the minimum of the fitted data is
reproduced (up to 1 ulp) at code 0. :func:`quantize` fits one grid per
vector along the last axis, asymmetric min-max, so a weight matrix passed
as ``W.T`` gets one grid per column. The 1-bit case has its own quantizer:
``alpha * sign(x)`` with ``alpha = mean(|x|)`` and ``sign(0) = +1``, which
is the least-squares optimal two-level code for the sign pattern. A width
is a whole number in ``[1, MAX_BITS]``, declared here: every bound on a width
calls :func:`check_width`, so the quantizer refuses any other.

Above 1 bit one function, :func:`_grid`, is the grid rule, on Python
floats: the nominal min-max scale, an exact zero and a covering repair. A
1-D input (the engine's call per column) calls it directly. Rows, in
:func:`quantize` and at every width of :func:`error_table`, are prefiltered
as arrays: only those the nominal grid does not fit exactly go through
:func:`_grid`, so every path gives the same bits for the same vector.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["quantize", "error_table", "check_width", "MAX_BITS"]

MAX_BITS = 8  # the widest width: codes are stored one byte each

#: Largest magnitude :func:`quantize` accepts. Within it the span
#: ``vmax - vmin``, the end levels of a min-max grid and the 1-bit scale
#: ``2 * alpha`` are all finite.
LIMIT = np.finfo(np.float64).max / 4

#: Smallest positive float: the scale of a grid whose ``span / cmax``
#: underflows to 0. Such a span is a few subnormal steps, every one of which
#: is a multiple of TINY, so the grid then reproduces each value exactly.
TINY = math.ulp(0.0)

#: Elements :func:`error_table` quantizes, and the float32 engine decodes, at
#: once (512 KiB of float64), so each temporary stays cache-sized: 256
#: columns of 256 rows, 32 of 2,048.
CHUNK_ELEMENTS = 1 << 16


def check_width(name: str, value, low: int = 1) -> int:
    """``value`` as an int if it is a whole number in ``[low, MAX_BITS]``, else a ValueError."""
    if low <= value <= MAX_BITS and value % 1 == 0:
        return int(value)
    raise ValueError(f"{name} must be in [{low}, {MAX_BITS}], got {value}")


def _exact_zero(vmin: float, scale: float) -> float:
    # zero = -vmin/scale up to rounding; where that misses, prefer the
    # representable neighbor above, then the one below, that reproduces vmin
    # exactly at code 0.
    nominal = zero = -vmin / scale
    for direction in (math.inf, -math.inf):
        if scale * (0.0 - zero) == vmin:
            break
        cand = math.nextafter(nominal, direction)
        if scale * (0.0 - cand) == vmin:
            zero = cand
    return zero


def _covers(vmin: float, vmax: float, cmax: int, scale: float, zero: float) -> bool:
    return scale * (0.0 - zero) <= vmin and scale * (cmax - zero) >= vmax


def _fit_covering_1d(vmin: float, vmax: float, bits: int) -> tuple[float, float]:
    # Rounding of scale/zero can leave the nominal grid short of the data
    # range. Widen the span by a slack proportional to the endpoint
    # magnitude (when the span is tiny relative to the values, the window of
    # admissible zeros is narrower than one representable step, so
    # ulp-nudging alone cannot land in it) and walk zero down until both
    # endpoints are covered. The first grid that covers wins; a range still
    # uncovered after the last widening is an error.
    cmax = (1 << bits) - 1
    span = vmax - vmin
    slack = 4.0 * math.ulp(max(abs(vmin), abs(vmax)))
    for _ in range(60):
        s = (span + slack) / cmax
        z = _exact_zero(vmin, s)
        for _ in range(64):
            if not s * (0.0 - z) > vmin:
                break
            z = math.nextafter(z, math.inf)
        if _covers(vmin, vmax, cmax, s, z):
            return s, z
        slack *= 2.0
    raise ValueError(f"cannot fit a finite {bits}-bit grid covering [{vmin!r}, {vmax!r}]")


def _check_peak(peak: float) -> None:
    if not peak <= LIMIT:  # also catches NaN
        what = f"magnitudes above {LIMIT:.4g}" if math.isfinite(peak) else "non-finite values"
        raise ValueError(f"cannot quantize {what}")


def _mean_abs(mag: np.ndarray):
    # mean(|x|) along the last axis (kept for N-D input) from mag = |x|, bit
    # for bit np.mean's, after the magnitude check. Only a sum past LIMIT
    # can overflow; such a mean is rejected, so the sum must not warn.
    peak = float(mag.max())
    _check_peak(peak)
    n = mag.shape[-1]
    keep = mag.ndim > 1
    if peak * n <= LIMIT:
        return np.add.reduce(mag, axis=-1, keepdims=keep) / n
    with np.errstate(over="ignore"):
        alpha = np.add.reduce(mag, axis=-1, keepdims=keep) / n
    if not np.max(alpha) <= LIMIT:
        raise ValueError("cannot quantize at 1 bit: mean(|x|) overflows")
    return alpha


def _grid(vmin: float, vmax: float, bits: int) -> tuple[float, float]:
    # The min-max grid (scale, zero) of [vmin, vmax]: the nominal scale (1 for
    # a constant range), the zero that puts vmin exactly at code 0, and the
    # widened grid where rounding leaves that one short of the range.
    cmax = (1 << bits) - 1
    span = vmax - vmin
    scale = 1.0 if span == 0.0 else max(span / cmax, TINY)
    zero = _exact_zero(vmin, scale)
    if _covers(vmin, vmax, cmax, scale, zero):
        return scale, zero
    return _fit_covering_1d(vmin, vmax, bits)


def _clips(vmin, vmax, scale, zero, cmax: int):
    # Whether vmin's or vmax's code, rounded as _round does, leaves [0, cmax].
    # Rounding is monotone, so they bound every code; np.clip (a third of the
    # rounding's cost, a no-op inside, -0.0 included) runs only if this holds.
    return (vmin / scale + zero - 0.5 <= -1.0) | (vmax / scale + zero + 0.5 >= cmax + 1)


def _round(x: np.ndarray, scale, zero, cmax: int, clip: bool, out=None) -> np.ndarray:
    # Nearest level, ties away from zero in code space, into ``out`` if
    # given. In place: fresh temporaries cost more than the arithmetic here.
    codes = np.divide(x, scale, out=out)
    codes += zero
    codes += np.copysign(0.5, codes)
    np.trunc(codes, out=codes)
    if clip:
        np.clip(codes, 0.0, cmax, out=codes)
    return codes


def _round_rows(x: np.ndarray, vmin: np.ndarray, vmax: np.ndarray, bits: int, out=None):
    # Codes of each row of x on its grid; the extremes vmin and vmax, scale and
    # zero have x's shape with a last axis of 1. Rows whose nominal grid
    # misses vmin at code 0 or falls short of vmax go through _grid, the rest
    # keep the nominal grid, which is what _grid would return for them.
    cmax = (1 << bits) - 1
    span = vmax - vmin
    scale = np.where(span == 0.0, 1.0, np.maximum(span / cmax, TINY))
    zero = -vmin / scale
    odd = np.nonzero((scale * (0.0 - zero) != vmin) | (scale * (cmax - zero) < vmax))
    if odd[0].size:
        fits = [_grid(lo, hi, bits) for lo, hi in zip(vmin[odd].tolist(), vmax[odd].tolist())]
        scale[odd], zero[odd] = zip(*fits)
    clip = _clips(vmin, vmax, scale, zero, cmax).any()
    return _round(x, scale, zero, cmax, clip, out), scale, zero


def quantize(
    values: np.ndarray, bits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fit one grid per vector along the last axis and round to it.

    At 1 bit the codes are 1 for x >= 0 and 0 for x < 0 on the grid
    ``scale = 2*alpha, zero = 0.5``, which dequantizes them to exactly
    ``+-alpha``; an all-zero vector gets ``scale = zero = 1``, dequantizing
    to 0. Above 1 bit the grid is min-max, code 0 at the minimum and the top
    code at the maximum; a constant vector gets ``scale = 1`` with every
    value at code 0. Rounding is to the nearest level, ties away from zero
    in code space, clipped to ``[0, 2^bits - 1]``.

    Returns:
        ``(dequant, codes, scale, zero)``: float64 arrays. ``dequant`` and
        the integer-valued ``codes`` have the shape of ``values``; ``scale``
        and ``zero`` drop the last axis (scalars for a 1-D input), and
        ``dequant`` equals ``scale[..., None] * (codes - zero[..., None])``
        exactly, and every entry is finite.

    Raises:
        ValueError: for a width :func:`check_width` refuses, an empty input,
            a non-finite value or a magnitude above :data:`LIMIT`; at 1 bit
            also when ``mean(|x|)`` overflows; above 1 bit when no finite
            grid covers a vector's range.
    """
    bits = check_width("bits", bits)
    x = np.ascontiguousarray(values, dtype=np.float64)
    if x.size == 0:
        raise ValueError("cannot quantize an empty vector")
    if bits == 1:
        alpha = _mean_abs(np.abs(x))
        scale = 2.0 * alpha + (alpha == 0.0)  # 1 for an all-zero vector
        zero = 1.0 - alpha / scale  # exactly 0.5, and 1 for an all-zero vector
        codes = (x >= 0).astype(np.float64)
    elif x.ndim == 1:
        vmin, vmax = float(x.min()), float(x.max())
        _check_peak(max(-vmin, vmax))
        scale, zero = _grid(vmin, vmax, bits)
        cmax = (1 << bits) - 1
        codes = _round(x, scale, zero, cmax, _clips(vmin, vmax, scale, zero, cmax))
    else:
        vmin = x.min(axis=-1, keepdims=True)
        vmax = x.max(axis=-1, keepdims=True)
        _check_peak(max(-float(vmin.min()), float(vmax.max())))
        codes, scale, zero = _round_rows(x, vmin, vmax, bits)
    dequant = np.subtract(codes, zero)
    dequant *= scale
    if x.ndim == 1:
        return dequant, codes, np.float64(scale), np.float64(zero)
    return dequant, codes, scale[..., 0], zero[..., 0]


def error_table(weights: np.ndarray, hc_diag: np.ndarray, t_max: int) -> np.ndarray:
    """Squared compensation error of every column at every width -> (d_col, t_max).

    Entry ``[j, t-1]`` is ``||w_j - quantize(w_j, t)||^2 / hc_diag[j]^2``,
    the squared norm of the compensation term the blockwise engine would
    emit if column j were quantized at t bits right now. The training loop
    calls this once per layer pass, on the engine's residuals.

    Each entry has the bits of :func:`quantize`'s error at that width. It
    sums one column alone, so the bits do not depend on the chunk size:
    columns are taken :data:`CHUNK_ELEMENTS` entries' worth at a time, and
    each chunk's extremes and magnitude check serve every width, so the
    temporaries stay a few chunks in size whatever the layer's shape. A
    column-major ``weights`` (the engine's residuals view) is read in place;
    any other layout is copied one chunk at a time.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {w.shape}")
    if w.shape[0] == 0:
        raise ValueError(f"weights must have at least one row, got shape {w.shape}")
    t_max = check_width("t_max", t_max)
    d_col = w.shape[1]
    hc_diag = np.asarray(hc_diag, dtype=np.float64)
    if hc_diag.shape != (d_col,):
        raise ValueError(f"hc_diag must have shape ({d_col},), got {hc_diag.shape}")
    if not (hc_diag > 0).all():
        raise ValueError("hc_diag entries must be positive")
    out = np.empty((d_col, t_max), dtype=np.float64)
    step = max(1, CHUNK_ELEMENTS // w.shape[0])
    for c in range(0, d_col, step):
        cols = np.ascontiguousarray(w[:, c : c + step].T)
        # 1 bit: (|x| - alpha)^2 is (+-alpha - x)^2 bit for bit, and 0 on an
        # all-zero column, whose alpha is 0
        diff = np.abs(cols)
        diff -= _mean_abs(diff)
        out[c : c + step, 0] = np.sum(np.square(diff, out=diff), axis=-1)
        vmin = cols.min(axis=-1, keepdims=True)  # within LIMIT: checked above
        vmax = cols.max(axis=-1, keepdims=True)
        for t in range(2, t_max + 1):
            scale, zero = _round_rows(cols, vmin, vmax, t, out=diff)[1:]
            diff -= zero
            diff *= scale
            diff -= cols
            out[c : c + step, t - 1] = np.sum(np.square(diff, out=diff), axis=-1)
    out /= (hc_diag**2)[:, None]
    return out

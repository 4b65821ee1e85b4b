"""Scalar quantization: one grid fit and rounding step, plus the error table.

A t-bit grid maps integer codes ``c in [0, 2^t - 1]`` to real values via

    dequant(c) = scale * (c - zero)

with a real-valued ``zero`` offset, so the minimum of the fitted data is
reproduced (up to 1 ulp) at code 0. :func:`quantize` fits one grid per
vector along the last axis, asymmetric min-max, so a weight matrix passed
as ``W.T`` gets one grid per column. The 1-bit case has its own quantizer:
``alpha * sign(x)`` with ``alpha = mean(|x|)`` and ``sign(0) = +1``, which
is the least-squares optimal two-level code for the sign pattern.

A 1-D input (the blockwise engine's one call per column) fits its grid on
Python floats, where a numpy call on a one-element array would cost more
than the arithmetic; only the rounding is vectorised. The 2-D path is the
reference: both give the same bits for the same vector.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["quantize", "error_table"]

#: Largest magnitude :func:`quantize` accepts. Within it the span
#: ``vmax - vmin``, the end levels of a min-max grid and the 1-bit scale
#: ``2 * alpha`` are all finite.
LIMIT = np.finfo(np.float64).max / 4

#: Smallest positive float: the scale of a grid whose ``span / cmax``
#: underflows to 0. Such a span is a few subnormal steps, every one of which
#: is a multiple of TINY, so the grid then reproduces each value exactly.
TINY = math.ulp(0.0)

#: Elements :func:`error_table` quantizes at once (512 KiB of float64), so
#: each temporary stays cache-sized: 256 columns of 256 rows, 32 of 2,048.
CHUNK_ELEMENTS = 1 << 16


def _exact_zero(vmin, scale):
    # zero = -vmin/scale up to rounding; where that misses, prefer the
    # representable neighbor above, then the one below, that reproduces vmin
    # exactly at code 0.
    nominal = zero = -vmin / scale
    for direction in (np.inf, -np.inf):
        miss = scale * (0.0 - zero) != vmin
        if not miss.any():
            break
        cand = np.nextafter(nominal, direction)
        zero = np.where(miss & (scale * (0.0 - cand) == vmin), cand, zero)
    return zero


def _exact_zero_1d(vmin: float, scale: float) -> float:
    # _exact_zero on Python floats.
    nominal = zero = -vmin / scale
    for direction in (math.inf, -math.inf):
        if scale * (0.0 - zero) == vmin:
            break
        cand = math.nextafter(nominal, direction)
        if scale * (0.0 - cand) == vmin:
            zero = cand
    return zero


def _covers(vmin, vmax, cmax: int, scale, zero):
    return (scale * (0.0 - zero) <= vmin) & (scale * (cmax - zero) >= vmax)


def _uncoverable(bits: int, vmin: float, vmax: float) -> ValueError:
    return ValueError(f"cannot fit a finite {bits}-bit grid covering [{vmin!r}, {vmax!r}]")


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
        z = _exact_zero_1d(vmin, s)
        for _ in range(64):
            if not s * (0.0 - z) > vmin:
                break
            z = math.nextafter(z, math.inf)
        if _covers(vmin, vmax, cmax, s, z):
            return s, z
        slack *= 2.0
    raise _uncoverable(bits, vmin, vmax)


def _check_peak(peak: float) -> None:
    if not peak <= LIMIT:  # also catches NaN
        what = f"magnitudes above {LIMIT:.4g}" if math.isfinite(peak) else "non-finite values"
        raise ValueError(f"cannot quantize {what}")


def _mean_abs(mag: np.ndarray):
    # mean(|x|) along the last axis (kept for 2-D input) from mag = |x|, bit
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


def _round(x: np.ndarray, scale, zero, cmax: int, clip: bool = True, out=None) -> np.ndarray:
    # Nearest level, ties away from zero in code space, into ``out`` if
    # given. In place: fresh temporaries cost more than the arithmetic here.
    codes = np.divide(x, scale, out=out)
    codes += zero
    codes += np.copysign(0.5, codes)
    np.trunc(codes, out=codes)
    if clip:
        np.clip(codes, 0.0, cmax, out=codes)
    return codes


def _grid_rows(vmin: np.ndarray, vmax: np.ndarray, bits: int):
    # The min-max grid of each row from its (rows, 1) extremes.
    cmax = (1 << bits) - 1
    span = vmax - vmin
    scale = np.where(span == 0.0, 1.0, np.maximum(span / cmax, TINY))
    zero = _exact_zero(vmin, scale)
    short = ~_covers(vmin, vmax, cmax, scale, zero)  # never a constant row
    for i in zip(*np.nonzero(short)):  # rare: widen one short row at a time
        scale[i], zero[i] = _fit_covering_1d(float(vmin[i]), float(vmax[i]), bits)
    return scale, zero


def _quantize_rows(x: np.ndarray, bits: int):
    # One grid per row of x; scale and zero are (rows, 1) arrays.
    if bits == 1:
        alpha = _mean_abs(np.abs(x))
        flat = alpha == 0.0
        scale, zero = np.where(flat, 1.0, 2.0 * alpha), np.where(flat, 1.0, 0.5)
        return (x >= 0).astype(np.float64), scale, zero
    vmin = x.min(axis=-1, keepdims=True)
    vmax = x.max(axis=-1, keepdims=True)
    _check_peak(max(-float(vmin.min()), float(vmax.max())))
    scale, zero = _grid_rows(vmin, vmax, bits)
    return _round(x, scale, zero, (1 << bits) - 1), scale, zero


def _quantize_vector(x: np.ndarray, bits: int):
    # _quantize_rows for a 1-D x, with scale and zero as Python floats.
    if bits == 1:
        alpha = float(_mean_abs(np.abs(x)))
        scale, zero = (1.0, 1.0) if alpha == 0.0 else (2.0 * alpha, 0.5)
        return (x >= 0).astype(np.float64), scale, zero
    cmax = (1 << bits) - 1
    vmin = float(x.min())
    vmax = float(x.max())
    _check_peak(max(-vmin, vmax))
    span = vmax - vmin
    scale = 1.0 if span == 0.0 else max(span / cmax, TINY)
    zero = _exact_zero_1d(vmin, scale)
    if not _covers(vmin, vmax, cmax, scale, zero):
        scale, zero = _fit_covering_1d(vmin, vmax, bits)
    # Rounding is monotone, so the codes of vmin and vmax bound every code;
    # np.clip, a third of the rounding's cost, runs only when one of them
    # falls outside [0, cmax] (it leaves values inside, -0.0 included, as
    # they are).
    lo = vmin / scale + zero
    hi = vmax / scale + zero
    clip = lo + math.copysign(0.5, lo) <= -1.0 or hi + math.copysign(0.5, hi) >= cmax + 1
    return _round(x, scale, zero, cmax, clip), scale, zero


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
        ValueError: for a width below 1, an empty input, a non-finite value
            or a magnitude above :data:`LIMIT`; at 1 bit also when
            ``mean(|x|)`` overflows; above 1 bit when no finite grid covers
            a vector's range.
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    x = np.ascontiguousarray(values, dtype=np.float64)
    if x.size == 0:
        raise ValueError("cannot quantize an empty vector")
    vector = x.ndim == 1
    codes, scale, zero = _quantize_vector(x, bits) if vector else _quantize_rows(x, bits)
    dequant = np.subtract(codes, zero)
    dequant *= scale
    if vector:
        return dequant, codes, np.float64(scale), np.float64(zero)
    return dequant, codes, scale[..., 0], zero[..., 0]


def error_table(weights: np.ndarray, hc_diag: np.ndarray, t_max: int) -> np.ndarray:
    """Squared compensation error of every column at every width -> (d_col, t_max).

    Entry ``[j, t-1]`` is ``||w_j - quantize(w_j, t)||^2 / hc_diag[j]^2``,
    the squared norm of the compensation term the blockwise engine would
    emit if column j were quantized at t bits right now. The training loop
    calls this once per layer pass, on the engine's residuals.

    Each entry has the bits of :func:`quantize`'s error at that width.
    Columns are taken :data:`CHUNK_ELEMENTS` entries' worth at a time, and
    each chunk's extremes and magnitude check serve every width, so the
    temporaries are a few chunks in size whatever the layer's shape.
    Each entry is a sum over one column alone, so the table's bits do not
    depend on the chunk size.
    A column-major ``weights`` (the engine's residuals view) is read in
    place; any other layout is copied one chunk at a time.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {w.shape}")
    d_col = w.shape[1]
    hc_diag = np.asarray(hc_diag, dtype=np.float64)
    if hc_diag.shape != (d_col,):
        raise ValueError(f"hc_diag must have shape ({d_col},), got {hc_diag.shape}")
    if not (hc_diag > 0).all():
        raise ValueError("hc_diag entries must be positive")
    out = np.empty((d_col, t_max), dtype=np.float64)
    step = max(1, CHUNK_ELEMENTS // max(1, w.shape[0]))
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
            cmax = (1 << t) - 1
            scale, zero = _grid_rows(vmin, vmax, t)
            # as in _quantize_vector, clip only if some row's end codes leave [0, cmax]
            lo = vmin / scale + zero
            hi = vmax / scale + zero
            clip = (lo + np.copysign(0.5, lo) <= -1.0).any() or (
                hi + np.copysign(0.5, hi) >= cmax + 1).any()
            _round(cols, scale, zero, cmax, clip, out=diff)
            diff -= zero
            diff *= scale
            diff -= cols
            out[c : c + step, t - 1] = np.sum(np.square(diff, out=diff), axis=-1)
    out /= (hc_diag**2)[:, None]
    return out

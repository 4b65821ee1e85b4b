"""Scalar quantization: one grid fit and rounding step, plus the error table.

A t-bit grid maps integer codes ``c in [0, 2^t - 1]`` to real values via

    dequant(c) = scale * (c - zero)

with a real-valued ``zero`` offset, so the minimum of the fitted data is
reproduced (up to 1 ulp) at code 0. :func:`quantize` fits one grid per
vector along the last axis, asymmetric min-max, so a weight matrix passed
as ``W.T`` gets one grid per column. The 1-bit case has its own quantizer:
``alpha * sign(x)`` with ``alpha = mean(|x|)`` and ``sign(0) = +1``, which
is the least-squares optimal two-level code for the sign pattern.
"""

from __future__ import annotations

import numpy as np

__all__ = ["quantize", "error_table"]

#: Largest magnitude :func:`quantize` accepts. Within it the span
#: ``vmax - vmin``, the end levels of a min-max grid and the 1-bit scale
#: ``2 * alpha`` are all finite.
LIMIT = np.finfo(np.float64).max / 4


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


def _covers(vmin, vmax, cmax: int, scale, zero):
    return (scale * (0.0 - zero) <= vmin) & (scale * (cmax - zero) >= vmax)


def _fit_covering(vmin: np.ndarray, vmax: np.ndarray, bits: int):
    # Rounding of scale/zero can leave the nominal grid short of the data
    # range. For those rows, widen the span by a slack proportional to the
    # endpoint magnitude (when the span is tiny relative to the values, the
    # window of admissible zeros is narrower than one representable step,
    # so ulp-nudging alone cannot land in it) and walk zero down until both
    # endpoints are covered. Each row keeps the first grid that covers it;
    # a row still uncovered after the last widening is an error.
    cmax = (1 << bits) - 1
    span = vmax - vmin
    slack = 4.0 * np.spacing(np.maximum(np.abs(vmin), np.abs(vmax)))
    scale = np.empty_like(span)
    zero = np.empty_like(span)
    done = np.zeros(span.shape, dtype=bool)
    for _ in range(60):
        s = (span + slack) / cmax
        z = _exact_zero(vmin, s)
        for _ in range(64):
            low = s * (0.0 - z) > vmin
            if not low.any():
                break
            z = np.where(low, np.nextafter(z, np.inf), z)
        scale[~done] = s[~done]
        zero[~done] = z[~done]
        done |= _covers(vmin, vmax, cmax, s, z)
        if done.all():
            return scale, zero
        slack *= 2.0
    row = int(np.argmin(done))
    raise ValueError(
        f"cannot fit a finite {bits}-bit grid covering "
        f"[{float(vmin.flat[row])!r}, {float(vmax.flat[row])!r}]"
    )


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
        and ``zero`` drop the last axis, and ``dequant`` equals
        ``scale[..., None] * (codes - zero[..., None])`` exactly, and
        every entry is finite.

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
    mag = np.abs(x)
    peak = mag.max()
    if not peak <= LIMIT:  # also catches NaN
        what = f"magnitudes above {LIMIT:.4g}" if np.isfinite(peak) else "non-finite values"
        raise ValueError(f"cannot quantize {what}")

    if bits == 1:
        alpha = np.mean(mag, axis=-1, keepdims=True)
        if not alpha.max() <= LIMIT:  # the sum inside the mean overflowed
            raise ValueError("cannot quantize at 1 bit: mean(|x|) overflows")
        flat = alpha == 0.0
        scale = np.where(flat, 1.0, 2.0 * alpha)
        zero = np.where(flat, 1.0, 0.5)
        codes = (x >= 0).astype(np.float64)
    else:
        cmax = (1 << bits) - 1
        vmin = x.min(axis=-1, keepdims=True)
        vmax = x.max(axis=-1, keepdims=True)
        span = vmax - vmin
        flat = span == 0.0
        scale = np.where(flat, 1.0, span / cmax)
        zero = _exact_zero(vmin, scale)
        short = ~_covers(vmin, vmax, cmax, scale, zero)  # never a flat row
        if short.any():
            scale[short], zero[short] = _fit_covering(vmin[short], vmax[short], bits)
        # In place: fresh temporaries cost more than the arithmetic here.
        raw = np.divide(x, scale)
        raw += zero
        codes = np.copysign(0.5, raw)
        codes += raw
        np.trunc(codes, out=codes)
        np.clip(codes, 0.0, cmax, out=codes)
    dequant = np.subtract(codes, zero)
    dequant *= scale
    return dequant, codes, scale[..., 0], zero[..., 0]


def error_table(weights: np.ndarray, hc_diag: np.ndarray, t_max: int) -> np.ndarray:
    """Squared compensation error of every column at every width -> (d_col, t_max).

    Entry ``[j, t-1]`` is ``||w_j - quantize(w_j, t)||^2 / hc_diag[j]^2``,
    the squared norm of the compensation term the blockwise engine would
    emit if column j were quantized at t bits right now. The training loop
    calls this once per layer pass, on the engine's residuals.
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
    cols = np.ascontiguousarray(w.T)
    out = np.empty((d_col, t_max), dtype=np.float64)
    for t in range(1, t_max + 1):
        diff = quantize(cols, t)[0]
        diff -= cols
        out[:, t - 1] = np.sum(np.square(diff, out=diff), axis=-1)
    out /= (hc_diag**2)[:, None]
    return out

"""Output checks. Each returns a list of problems; an empty list means the output passed.

Every check compares against a computation made here from the generated
inputs, or against a property the method must have; none compares against
a stored copy of earlier output.
"""

from __future__ import annotations

import numpy as np

import mgqt
from workloads import DAMP, Layer

GRAM_RTOL = 1e-9  # accumulation order differs from the program's 256-row chunks
INVERSE_ATOL = 1e-6
PROBES = 8
LOSS_RTOL = 1e-9  # the Gram-space loss sums in another order than the row path
BUDGET_TOL = 0.25


def _loss(layer: Layer, q: np.ndarray) -> float:
    """||(W - Q) X^T||_F^2 / m in float64, through the reference Gram 2 X^T X."""
    d = layer.w - q
    return float(np.sum((d @ layer.gram) * d)) / (2.0 * layer.rows)


def _rtn(w: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Per-column quantization at the given widths with no compensation:
    min-max round-to-nearest, and mean(|w|) * sign(w) at one bit."""
    cmax = (2.0 ** widths) - 1.0
    lo = w.min(axis=0)
    span = w.max(axis=0) - lo
    scale = np.where(span > 0, span / cmax, 1.0)
    codes = np.clip(np.rint((w - lo) / scale), 0.0, cmax)
    binary = np.where(w >= 0, 1.0, -1.0) * np.mean(np.abs(w), axis=0)
    return np.where(widths == 1, binary, lo + scale * codes)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def gram(layer: Layer, out, payload: dict) -> list[str]:
    s = mgqt.read(out)
    g = s["gram"]
    problems = []
    if g.shape != layer.gram.shape:
        return [f"gram shape {g.shape}, expected {layer.gram.shape}"]
    err = float(np.max(np.abs(g - layer.gram)))
    if err > GRAM_RTOL * float(np.max(np.abs(layer.gram))):
        problems.append(f"gram differs from 2 X^T X by {err:.3e}")
    if float(s["samples"][0]) != layer.rows or payload.get("samples") != layer.rows:
        problems.append(f"samples {s['samples'][0]} / {payload.get('samples')}, expected {layer.rows}")
    return problems


def hessian(layer: Layer, out, payload: dict) -> list[str]:
    hc = mgqt.read(out)["hessian_cholesky"]
    if hc.shape != layer.gram.shape:
        return [f"factor shape {hc.shape}, expected {layer.gram.shape}"]
    problems = []
    if np.any(np.tril(hc, -1) != 0):
        problems.append("factor is not upper triangular")
    if not np.all(np.diag(hc) > 0):
        problems.append("factor diagonal is not positive")
    # hc^T hc (G + lambda I) = I, tested on random probes: O(d^2) instead of O(d^3).
    g = layer.gram
    probes = np.random.default_rng(0).standard_normal((g.shape[0], PROBES))
    damped = g @ probes + DAMP * float(np.mean(np.diag(g))) * probes
    err = float(np.max(np.abs(hc.T @ (hc @ damped) - probes))) / float(np.max(np.abs(probes)))
    if err > INVERSE_ATOL:
        problems.append(f"hc^T hc (G + lambda I) differs from I by {err:.3e} on random probes")
    return problems


def train_log(text: str, n_layers: int, epochs: int, target_bits: float | None) -> list[str]:
    lines = text.splitlines()
    header = lines[0].split("\t") if lines else []
    if "hard_mean_bits" not in header:
        return ["training log has no header"]
    rows = [dict(zip(header, line.split("\t"))) for line in lines[1:]]
    order = [(int(r["epoch"]), int(r["layer"])) for r in rows]
    expected = [(e, i) for e in range(epochs) for i in range(n_layers)]
    if order != expected:
        return [f"training log has {len(rows)} rows, expected one per epoch and layer "
                f"({len(expected)})"]
    if target_bits is not None:
        final = np.mean([float(r["hard_mean_bits"]) for r in rows[-n_layers:]])
        if abs(final - target_bits) > BUDGET_TOL:
            return [f"final-epoch hard mean {final:.3f} bits is not within "
                    f"{BUDGET_TOL} of {target_bits}"]
    return []


def quantize(layer: Layer, out, payload: dict, report: dict, t_max: int) -> list[str]:
    s = mgqt.read(out)
    q, codes = s["quantized"], s["codes"]
    widths = s["widths"].astype(np.int64)
    if q.shape != layer.w.shape or codes.shape != q.shape or widths.shape != (q.shape[1],):
        return [f"output shapes {q.shape}, {codes.shape}, {widths.shape} do not match "
                f"{layer.w.shape}"]
    problems = []
    if widths.min() < 1 or widths.max() > t_max:
        problems.append(f"widths span {widths.min()}..{widths.max()}, outside 1..{t_max}")
    if np.any(codes >= (1 << widths)[None, :]):
        problems.append("a code does not fit its column's width")
    deq = (s["scales"][None, :] * (codes.astype(np.float64) - s["zeros"][None, :]))
    if not np.array_equal(deq.astype(q.dtype), q):
        problems.append("quantized differs from scale * (codes - zero)")
    entry = report["layers"][0]
    hist = np.bincount(widths, minlength=t_max + 1)[1 : t_max + 1].tolist()
    if entry["bit_histogram"] != hist:
        problems.append(f"report bit_histogram {entry['bit_histogram']}, stored widths give {hist}")
    mean = round(float(widths.mean()), 3)
    if entry["mean_bits"] != mean or payload.get("mean_bits") != mean:
        problems.append(f"mean_bits {entry['mean_bits']} / {payload.get('mean_bits')}, "
                        f"stored widths give {mean}")
    loss = _loss(layer, q.astype(np.float64))
    if not _close(payload.get("proxy_loss", np.nan), loss, LOSS_RTOL):
        problems.append(f"quantize proxy_loss {payload.get('proxy_loss')}, expected {loss}")
    return problems


def evaluate(layer: Layer, quant_path, payload: dict) -> tuple[list[str], dict]:
    """Check `eval` against the reference loss; also returns reference figures."""
    s = mgqt.read(quant_path)
    q = s["quantized"].astype(np.float64)
    widths = s["widths"].astype(np.int64)
    loss = _loss(layer, q)
    max_abs = float(np.max(np.abs(layer.w - q)))
    rtn = _loss(layer, _rtn(layer.w, widths))
    problems = []
    if not _close(payload.get("proxy_loss", np.nan), loss, LOSS_RTOL):
        problems.append(f"eval proxy_loss {payload.get('proxy_loss')}, expected {loss}")
    if payload.get("max_abs_error") != max_abs:
        problems.append(f"eval max_abs_error {payload.get('max_abs_error')}, expected {max_abs}")
    if not loss < rtn:
        problems.append(f"proxy loss {loss:.6g} is not below round-to-nearest's {rtn:.6g}")
    figures = {"mean_bits": float(widths.mean()), "proxy_loss": loss, "rtn_ratio": loss / rtn}
    return problems, figures

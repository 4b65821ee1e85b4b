"""Allocator training: expected-error loss, analytic backprop, AdamW.

The discrete quantizer is not differentiated through. Each layer pass
computes, per column j and candidate width t, the compensation error
``errs[j, t]`` the engine would emit (on the compensated residuals of the
pass's hard assignment), then treats those numbers as constants of a smooth
surrogate in the relaxed assignment P:

    l_quant = sum_j sum_t P[j, t] * errs[j, t]
    l_bit   = (mean_soft_bits - target_bits)^2
    total   = l_quant + alpha * l_bit

P comes from Gumbel-Softmax over the classifier logits; the hard assignment
fed to the engine is the argmax of the same sample (straight-through), so
compensation always sees realistic discrete widths while gradients flow
through the soft distribution. The forward pass is the inference one, its
activations kept; backprop through the softmax, classifier head and both
graph layers is written out by hand, from the layer's first-layer input
A0, propagated once per pass. Gradients accumulate by plain summation, in
one buffer per parameter, across ``accum_steps`` layer passes before one
AdamW step, at AdamW's default betas, eps and weight decay.

All randomness (parameter init, Gumbel noise) comes from the config seed,
and everything runs in float64, so a training run is bit-reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, get_type_hints

import numpy as np

from .allocator import (
    AllocatorParams,
    ffnn_logits,
    gcn_forward,
    gumbel_softmax,
    hessian_node_features,
    init_allocator_params,
    preprocess,
    sample_gumbel,
)
from .gptq import MAX_BITS, quantize_blockwise
from .linalg import ShapeMismatchError
from .quant import error_table

__all__ = [
    "TrainConfig",
    "load_run_config",
    "LossBreakdown",
    "TrainingLogRecord",
    "ForwardCache",
    "AdamW",
    "soft_losses",
    "forward_cached",
    "backward_from_cache",
    "train",
    "format_training_log",
    "LOG_HEADER",
]


@dataclass
class TrainConfig:
    """Allocator training hyperparameters and shapes; both graph layers are ``d_gnn`` wide."""

    epochs: int = 50
    lr: float = 1e-3
    accum_steps: int = 4
    alpha: float = 1.0
    tau: float = 1.0
    target_bits: float = 2.5
    seed: int = 0
    d_gnn: int = 512
    t_max: int = 4
    block_size: int = 128

    def validate(self) -> "TrainConfig":
        for name in ("lr", "alpha", "tau"):
            v = getattr(self, name)  # json.loads accepts NaN and Infinity
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.accum_steps < 1:
            raise ValueError(f"accum_steps must be >= 1, got {self.accum_steps}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not 2 <= self.t_max <= MAX_BITS:
            raise ValueError(f"t_max must be in [2, {MAX_BITS}], got {self.t_max}")
        if not 1 <= self.target_bits <= self.t_max:
            raise ValueError(f"target_bits must be in [1, {self.t_max}], got {self.target_bits}")
        if self.d_gnn < 1:
            raise ValueError(f"d_gnn must be >= 1, got {self.d_gnn}")
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        return self


def load_run_config(path: str | Path) -> TrainConfig:
    """Load and validate a JSON training config; unknown keys are an error."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    kinds = get_type_hints(TrainConfig)
    unknown = sorted(set(raw) - set(kinds))
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    for key, value in raw.items():
        kind = kinds[key]
        # bool is an int subclass, but a JSON true or false is not a number
        if isinstance(value, bool) or not isinstance(value, (int, kind)):
            what = "a number" if kind is float else "an integer"
            raise ValueError(f"config key {key!r} must be {what}, got {value!r}")
        raw[key] = kind(value)
    return TrainConfig(**raw).validate()


@dataclass(frozen=True)
class LossBreakdown:
    l_quant: float
    l_bit: float
    total: float
    mean_bits_soft: float


@dataclass(frozen=True)
class TrainingLogRecord:
    epoch: int
    layer: int
    l_quant: float
    l_bit: float
    total: float
    hard_mean_bits: float
    soft_mean_bits: float


LOG_HEADER = "epoch\tlayer\tl_quant\tl_bit\ttotal\thard_mean_bits\tsoft_mean_bits"


def format_training_log(records: Sequence[TrainingLogRecord]) -> str:
    """Tab-separated log, one line per layer pass, floats via repr (round-trip exact)."""
    lines = [LOG_HEADER]
    for r in records:
        lines.append(
            f"{r.epoch}\t{r.layer}\t{r.l_quant!r}\t{r.l_bit!r}\t{r.total!r}"
            f"\t{r.hard_mean_bits!r}\t{r.soft_mean_bits!r}"
        )
    return "\n".join(lines) + "\n"


def soft_losses(
    P: np.ndarray, errs: np.ndarray, target_bits: float, alpha: float
) -> LossBreakdown:
    """Expected compensation error plus the average-bit penalty.

    Args:
        P: (d_col, t_max) rows summing to 1 (each row a distribution over
            widths; column t corresponds to width t+1).
        errs: (d_col, t_max) non-negative error table.
    """
    P = np.asarray(P, dtype=np.float64)
    errs = np.asarray(errs, dtype=np.float64)
    if P.shape != errs.shape:
        raise ShapeMismatchError(f"P shape {P.shape} does not match errs {errs.shape}")
    row_sums = P.sum(axis=1)
    if np.max(np.abs(row_sums - 1.0)) > 1e-9:
        raise ValueError("rows of P must sum to 1 within 1e-9")
    if errs.size and errs.min() < 0:
        raise ValueError("error table entries must be >= 0")
    d_col, t_max = P.shape
    bits = np.arange(1, t_max + 1, dtype=np.float64)
    l_quant = float(np.sum(P * errs))
    mean_bits_soft = float(np.sum(P * bits) / d_col)
    l_bit = (mean_bits_soft - target_bits) ** 2
    total = l_quant + alpha * l_bit
    return LossBreakdown(l_quant=l_quant, l_bit=l_bit, total=total, mean_bits_soft=mean_bits_soft)


@dataclass
class ForwardCache:
    """Activations of one forward pass, kept for the hand-written backward.

    A ReLU output is positive exactly where its input is, so the outputs
    double as the masks.
    """

    x0: np.ndarray  # the first layer's propagated input A0
    x1: np.ndarray
    x2: np.ndarray
    logits: np.ndarray
    adj: np.ndarray | None  # None for the MLP ablation


def forward_cached(
    a0: np.ndarray,
    params: AllocatorParams,
    adj: np.ndarray | None = None,
) -> ForwardCache:
    """The inference forward pass in float64; ``adj=None`` runs the MLP variant."""
    a0 = np.asarray(a0, dtype=np.float64)
    if adj is not None:
        adj = np.asarray(adj, dtype=np.float64)
    x1, x2 = gcn_forward(adj, a0, params)
    return ForwardCache(x0=a0, x1=x1, x2=x2, logits=ffnn_logits(x2, params), adj=adj)


def backward_from_cache(
    cache: ForwardCache,
    params: AllocatorParams,
    P: np.ndarray,
    errs: np.ndarray,
    target_bits: float,
    alpha: float,
    tau: float,
    into: dict[str, np.ndarray],
) -> None:
    """Add the exact gradients of the surrogate loss to ``into``, in place.

    ``into`` maps every parameter name to an accumulator of its shape.
    ``errs`` is constant; the chain runs loss -> P -> Gumbel-softmax ->
    logits -> head -> two (graph) layers, with the adjacency transposed on
    the way back through the second: ``w0``'s gradient is ``A0^T dA1``,
    added to its first A0-width rows only; the rows past them get nothing,
    and AdamW only decays them.
    """
    P = np.asarray(P, dtype=np.float64)
    errs = np.asarray(errs, dtype=np.float64)
    d_col, t_max = P.shape
    bits = np.arange(1, t_max + 1, dtype=np.float64)

    mean_bits_soft = float(np.sum(P * bits) / d_col)
    dP = errs + (2.0 * alpha * (mean_bits_soft - target_bits) / d_col) * bits[None, :]
    # softmax jacobian, rows independent; tau scales the pre-softmax input
    inner = np.sum(dP * P, axis=1, keepdims=True)
    dZ = P * (dP - inner) / tau

    into["wc"] += cache.x2.T @ dZ
    into["bc"] += dZ.sum(axis=0)
    dX2 = dZ @ params.wc.T
    dA2 = dX2 * (cache.x2 > 0)
    if cache.adj is not None:
        dA2 = cache.adj.T @ dA2
    into["w1"] += cache.x1.T @ dA2

    dA1 = (dA2 @ params.w1.T) * (cache.x1 > 0)
    into["w0"][: cache.x0.shape[1]] += cache.x0.T @ dA1


class AdamW:
    """AdamW with decoupled weight decay applied before the moment update.

    ``step`` updates the parameter arrays and moments in place and leaves
    the gradients as they are. State (first/second moments, step count) is
    keyed by parameter name and created lazily.
    """

    def __init__(
        self,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ):
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ShapeMismatchError(
                    f"gradient for {name} has shape {g.shape}, expected {p.shape}"
                )
            if name not in self._m:
                self._m[name] = np.zeros_like(p)
                self._v[name] = np.zeros_like(p)
            m = self._m[name]
            v = self._v[name]
            # Two scratch arrays, each operation in the out-of-place formula's order
            a, b = np.empty_like(p), np.empty_like(p)
            if self.weight_decay:
                p -= np.multiply(self.lr * self.weight_decay, p, out=a)
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=a)
            v *= self.beta2
            v += np.multiply(1.0 - self.beta2, np.square(g, out=a), out=a)
            denom = np.sqrt(np.divide(v, bc2, out=a), out=a)
            denom += self.eps
            update = np.multiply(self.lr, np.divide(m, bc1, out=b), out=b)
            p -= np.divide(update, denom, out=b)


def _layer(layers: Sequence, i: int, dtype: type | None = np.float64) -> tuple[np.ndarray, ...]:
    """``layers[i]`` as arrays of ``dtype`` (None keeps theirs), shapes checked.
    An array already of ``dtype`` is not copied."""
    w, hc = layers[i]
    w = np.asarray(w, dtype=dtype)
    hc = np.asarray(hc, dtype=dtype)
    if w.ndim != 2 or hc.shape != (w.shape[1], w.shape[1]):
        raise ShapeMismatchError(
            f"layer {i}: weights {w.shape} incompatible with factor {hc.shape}"
        )
    if not w.size:
        raise ValueError(
            f"layer {i}: weights must have at least one row and one column, got shape {w.shape}"
        )
    return w, hc


def _layer_pass(
    w: np.ndarray, hc: np.ndarray, params: AllocatorParams, cfg: TrainConfig, arch: str,
    rng: np.random.Generator, into: dict[str, np.ndarray],
) -> tuple[LossBreakdown, float]:
    """One pass over one layer, its gradients added to ``into``.

    Returns the surrogate losses and the hard mean bits. Everything the pass
    builds from the layer is local, so it is freed on return.
    """
    if arch == "gcn":
        adj, a0 = hc, hc @ preprocess(w, cfg.d_gnn)
    else:
        adj, a0 = None, hessian_node_features(hc, cfg.d_gnn)
    cache = forward_cached(a0, params, adj=adj)
    noise = sample_gumbel(cache.logits.shape, rng)
    P = gumbel_softmax(cache.logits, cfg.tau, noise)
    hard = np.argmax(P, axis=1).astype(np.int64) + 1

    result = quantize_blockwise(w, hc, hard, block_size=min(cfg.block_size, w.shape[1]),
                                keep_residuals=True)
    errs = error_table(result.residuals, np.diag(hc), cfg.t_max)
    del result  # the engine's buffers go before backward allocates
    breakdown = soft_losses(P, errs, cfg.target_bits, cfg.alpha)
    backward_from_cache(cache, params, P, errs, cfg.target_bits, cfg.alpha, cfg.tau, into)
    return breakdown, float(np.mean(hard))


def train(
    layers: Sequence[tuple[np.ndarray, np.ndarray]],
    cfg: TrainConfig,
    arch: str = "gcn",
) -> tuple[AllocatorParams, list[TrainingLogRecord]]:
    """Train one shared allocator over all given (weights, hessian factor) layers.

    Per epoch and layer: forward, Gumbel-Softmax sample, straight-through
    hard assignment into the blockwise engine, error table on the
    compensated residuals, surrogate loss, backward; one AdamW step on the
    summed gradients every ``accum_steps`` passes (a partial window is
    flushed at the epoch boundary).

    ``layers`` needs ``len`` and ``[i]``. It is indexed once per layer
    before the first epoch, to check every shape (even at ``epochs`` 0),
    and then once per pass, and only the pass's layer is held: a sequence
    that loads on access keeps one layer in memory. Weights and factors
    already in float64 are used as given, not copied.

    Returns the trained parameters and one log record per (epoch, layer).
    """
    cfg.validate()
    if arch not in ("gcn", "mlp"):
        raise ValueError(f"arch must be 'gcn' or 'mlp', got {arch!r}")
    n_layers = len(layers)
    if not n_layers:
        raise ValueError("need at least one layer to train on")
    for i in range(n_layers):
        _layer(layers, i, dtype=None)

    rng = np.random.default_rng(cfg.seed)
    params = init_allocator_params(cfg.d_gnn, cfg.d_gnn, cfg.t_max, rng)
    opt = AdamW(lr=cfg.lr)
    param_arrays = params.as_dict()

    pending = {k: np.zeros_like(v) for k, v in param_arrays.items()}
    pending_count = 0
    records: list[TrainingLogRecord] = []

    for epoch in range(cfg.epochs):
        for li in range(n_layers):
            breakdown, hard_mean_bits = _layer_pass(
                *_layer(layers, li), params, cfg, arch, rng, pending
            )
            pending_count += 1
            records.append(
                TrainingLogRecord(
                    epoch=epoch,
                    layer=li,
                    l_quant=breakdown.l_quant,
                    l_bit=breakdown.l_bit,
                    total=breakdown.total,
                    hard_mean_bits=hard_mean_bits,
                    soft_mean_bits=breakdown.mean_bits_soft,
                )
            )
            if pending_count == cfg.accum_steps or li == n_layers - 1:
                opt.step(param_arrays, pending)
                for g in pending.values():
                    g.fill(0.0)
                pending_count = 0

    return params, records

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
graph layers is written out by hand, from each layer's first-layer input
A0, propagated once. Gradients accumulate by plain summation across
``accum_steps`` layer passes before one AdamW step.

All randomness (parameter init, Gumbel noise) comes from the config seed,
and everything runs in float64, so a training run is bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .allocator import (
    AllocatorParams,
    ffnn_logits,
    first_layer_input,
    gcn_forward,
    gumbel_softmax,
    hessian_node_features,
    init_allocator_params,
    preprocess,
    sample_gumbel,
)
from .gptq import quantize_blockwise
from .linalg import ShapeMismatchError
from .quant import error_table

__all__ = [
    "TrainConfig",
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
    """Hyperparameters for allocator training (and the shapes it needs)."""

    epochs: int = 50
    lr: float = 1e-3
    accum_steps: int = 4
    alpha: float = 1.0
    tau: float = 1.0
    target_bits: float = 2.5
    seed: int = 0
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    d_gnn: int = 512
    hidden: int | None = None
    t_max: int = 4
    block_size: int = 128

    @property
    def hidden_dim(self) -> int:
        return self.d_gnn if self.hidden is None else self.hidden

    def validate(self) -> "TrainConfig":
        for name in ("lr", "alpha", "tau", "weight_decay", "eps"):
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
        if not 2 <= self.t_max <= 8:
            # stored codes are one byte per value
            raise ValueError(f"t_max must be in [2, 8], got {self.t_max}")
        if not 1 <= self.target_bits <= self.t_max:
            raise ValueError(
                f"target_bits must be in [1, {self.t_max}], got {self.target_bits}"
            )
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        for name in ("beta1", "beta2"):
            v = getattr(self, name)
            if not 0 <= v < 1:
                raise ValueError(f"{name} must be in [0, 1), got {v}")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.d_gnn < 1 or self.hidden_dim < 1:
            raise ValueError("d_gnn and hidden must be >= 1")
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        return self


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
) -> dict[str, np.ndarray]:
    """Exact gradients of the surrogate loss w.r.t. every parameter.

    ``errs`` is constant; the chain runs loss -> P -> Gumbel-softmax ->
    logits -> head -> two (graph) layers, with the adjacency transposed on
    the way back through the second: ``w0``'s gradient is ``A0^T dA1``,
    exactly zero on the rows past A0's width, which AdamW only decays.
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

    grads: dict[str, np.ndarray] = {"wc": cache.x2.T @ dZ, "bc": dZ.sum(axis=0)}
    dX2 = dZ @ params.wc.T
    dA2 = dX2 * (cache.x2 > 0)
    if cache.adj is not None:
        dA2 = cache.adj.T @ dA2
    grads["w1"] = cache.x1.T @ dA2

    dA1 = (dA2 @ params.w1.T) * (cache.x1 > 0)
    grads["w0"] = np.zeros_like(params.w0)
    np.matmul(cache.x0.T, dA1, out=grads["w0"][: cache.x0.shape[1]])
    return grads


class AdamW:
    """AdamW with decoupled weight decay applied before the moment update.

    ``step`` mutates the parameter arrays in place. State (first/second
    moments, step count) is keyed by parameter name and created lazily.
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

    @classmethod
    def from_config(cls, cfg: TrainConfig) -> "AdamW":
        return cls(
            lr=cfg.lr, betas=(cfg.beta1, cfg.beta2), eps=cfg.eps,
            weight_decay=cfg.weight_decay,
        )

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
            if self.weight_decay:
                p -= self.lr * self.weight_decay * p
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            denom = np.sqrt(v / bc2)
            denom += self.eps
            p -= self.lr * (m / bc1) / denom


def _zero_like(params: AllocatorParams) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.as_dict().items()}


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

    Weights and factors already in float64 are used as given, not copied;
    at most one pass's engine result and activations are alive at a time.

    Returns the trained parameters and one log record per (epoch, layer).
    """
    cfg.validate()
    if arch not in ("gcn", "mlp"):
        raise ValueError(f"arch must be 'gcn' or 'mlp', got {arch!r}")
    if not layers:
        raise ValueError("need at least one layer to train on")

    prepared = []
    for i, (w, hc) in enumerate(layers):
        w = np.asarray(w, dtype=np.float64)
        hc = np.asarray(hc, dtype=np.float64)
        if w.ndim != 2 or hc.shape != (w.shape[1], w.shape[1]):
            raise ShapeMismatchError(
                f"layer {i}: weights {w.shape} incompatible with factor {hc.shape}"
            )
        if arch == "gcn":
            x0, adj, rows = preprocess(w, cfg.d_gnn), hc, len(w)
        else:
            x0, adj, rows = hessian_node_features(hc, cfg.d_gnn), None, len(hc)
        prepared.append((w, hc, adj, first_layer_input(adj, x0, rows)))

    rng = np.random.default_rng(cfg.seed)
    params = init_allocator_params(cfg.d_gnn, cfg.hidden_dim, cfg.t_max, rng)
    opt = AdamW.from_config(cfg)
    param_arrays = params.as_dict()

    pending = _zero_like(params)
    pending_count = 0
    records: list[TrainingLogRecord] = []

    for epoch in range(cfg.epochs):
        for li, (w, hc, adj, a0) in enumerate(prepared):
            cache = forward_cached(a0, params, adj=adj)
            noise = sample_gumbel(cache.logits.shape, rng)
            P = gumbel_softmax(cache.logits, cfg.tau, noise)
            hard = np.argmax(P, axis=1).astype(np.int64) + 1

            result = quantize_blockwise(
                w, hc, hard,
                block_size=min(cfg.block_size, w.shape[1]),
                keep_residuals=True,
            )
            errs = error_table(result.residuals, np.diag(hc), cfg.t_max)
            breakdown = soft_losses(P, errs, cfg.target_bits, cfg.alpha)
            grads = backward_from_cache(
                cache, params, P, errs, cfg.target_bits, cfg.alpha, cfg.tau
            )
            for k in pending:
                pending[k] += grads[k]
            pending_count += 1
            records.append(
                TrainingLogRecord(
                    epoch=epoch,
                    layer=li,
                    l_quant=breakdown.l_quant,
                    l_bit=breakdown.l_bit,
                    total=breakdown.total,
                    hard_mean_bits=float(np.mean(hard)),
                    soft_mean_bits=breakdown.mean_bits_soft,
                )
            )
            if pending_count == cfg.accum_steps:
                opt.step(param_arrays, pending)
                pending = _zero_like(params)
                pending_count = 0
            # Free this pass's engine buffers and activations before the
            # next pass allocates its own. The smaller temporaries stay, so
            # the allocator keeps reusing their pages.
            del result, cache
        if pending_count:
            opt.step(param_arrays, pending)
            pending = _zero_like(params)
            pending_count = 0

    return params, records

"""Graph perceptual module and bit-width allocator.

Each weight column is a graph node. Its features (``preprocess``) are the
column itself when it has at most ``d_gnn`` entries, and otherwise the
column zero-padded up to a multiple of ``d_gnn`` and chunk-averaged: the
features F are ``(d_col, min(d_row, d_gnn))``. The weighted adjacency is
the upper triangle of the Hessian-Cholesky factor, as given (no
symmetrization or degree normalization): every product with it goes through
:func:`mgquant.linalg.triu_matmul`, which reads nothing below the diagonal
and skips the zero half's flops. It drives a 2-layer graph convolution:

    X1 = relu(A0 @ W0[:width])      A0 = adj @ F
    X2 = relu(adj @ X1 @ W1)

The caller propagates the features once into A0; with no adjacency
(``A0 = F``) the layers are plain dense ones: the MLP ablation. A
classifier head maps X2 to per-node logits over widths 1..t_max; class c
means c+1 bits. ``gcn_forward`` and ``ffnn_logits`` are the only code for
the layers and the head, for inference and training alike. Inference takes
the argmax (ties resolve to the lower width); training replaces argmax with
Gumbel-Softmax sampling, implemented here as a pure function of explicit
noise so the training loop owns all randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .linalg import ShapeMismatchError, transposed_copy, triu_matmul
from .quant import check_width

__all__ = [
    "AllocatorParams",
    "init_allocator_params",
    "preprocess",
    "hessian_node_features",
    "gcn_forward",
    "ffnn_logits",
    "allocate",
    "gumbel_softmax",
    "sample_gumbel",
    "softmax",
]


@dataclass
class AllocatorParams:
    """Trainable parameters: two graph layers plus the affine classifier head."""

    w0: np.ndarray  # (d_gnn, hidden)
    w1: np.ndarray  # (hidden, hidden)
    wc: np.ndarray  # (hidden, t_max)
    bc: np.ndarray  # (t_max,)

    def __post_init__(self):
        for name, arr in self.as_dict().items():
            ndim = 1 if name == "bc" else 2
            if arr.ndim != ndim:
                raise ShapeMismatchError(f"{name} must be {ndim}-D, got shape {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"parameter {name} contains NaN/Inf")
        hidden = self.hidden
        if self.w1.shape != (hidden, hidden):
            raise ShapeMismatchError(f"w1 must be ({hidden}, {hidden}), got {self.w1.shape}")
        if self.wc.shape[0] != hidden:
            raise ShapeMismatchError(f"wc must have {hidden} rows, got {self.wc.shape}")
        if self.bc.shape != (self.wc.shape[1],):
            raise ShapeMismatchError(f"bc must match wc columns, got {self.bc.shape}")
        check_width("t_max", self.t_max, low=2)

    @property
    def d_gnn(self) -> int:
        return self.w0.shape[0]

    @property
    def hidden(self) -> int:
        return self.w0.shape[1]

    @property
    def t_max(self) -> int:
        return self.wc.shape[1]

    def as_dict(self) -> dict[str, np.ndarray]:
        """Name -> array views, in field order (shared with the optimizer)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _xavier_uniform(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    fan_in, fan_out = shape
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_allocator_params(
    d_gnn: int,
    hidden: int,
    t_max: int,
    rng: np.random.Generator,
) -> AllocatorParams:
    """Seeded init: uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases.

    Zero biases keep the initial logits small, so early Gumbel noise
    dominates and the sampler explores all widths.
    """
    w0 = _xavier_uniform(rng, (d_gnn, hidden))
    w1 = _xavier_uniform(rng, (hidden, hidden))
    wc = _xavier_uniform(rng, (hidden, t_max))
    bc = np.zeros(t_max, dtype=np.float64)
    return AllocatorParams(w0=w0, w1=w1, wc=wc, bc=bc)


def preprocess(w: np.ndarray, d_gnn: int) -> np.ndarray:
    """Node features from a weight matrix: ``(d_col, min(d_row, d_gnn))``.

    With ``d_row <= d_gnn`` each node's features are its column: a new
    row-major copy of ``w.T``. Otherwise transpose to (d_col, d_row),
    zero-pad the row axis up to k*d_gnn with k = ceil(d_row / d_gnn), view
    each node's row as k chunks of d_gnn and average them. In the input
    dtype; exactly linear in ``w``.
    """
    w = np.asarray(w)
    if w.ndim != 2:
        raise ShapeMismatchError(f"weights must be 2-D, got shape {w.shape}")
    if d_gnn < 1:
        raise ValueError(f"d_gnn must be >= 1, got {d_gnn}")
    d_row, d_col = w.shape
    if d_row <= d_gnn:
        return transposed_copy(w)
    k = -(-d_row // d_gnn)
    wt = w.T
    pad = k * d_gnn - d_row
    if pad:
        wt = np.pad(wt, ((0, 0), (0, pad)))
    chunks = wt.reshape(d_col, k, d_gnn)
    return chunks.sum(axis=1) / np.asarray(k, dtype=w.dtype)


def hessian_node_features(hc: np.ndarray, d_gnn: int) -> np.ndarray:
    """Node features for the MLP ablation: row j of the factor, chunk-pooled."""
    hc = np.asarray(hc)
    if hc.ndim != 2 or hc.shape[0] != hc.shape[1]:
        raise ShapeMismatchError(f"hessian factor must be square, got {hc.shape}")
    return preprocess(hc.T, d_gnn)


def gcn_forward(
    hc: np.ndarray | None, a0: np.ndarray, params: AllocatorParams
) -> tuple[np.ndarray, np.ndarray]:
    """Two graph-convolution layers over the factor-as-adjacency.

    ``a0`` is the first layer's propagated input ``triu(hc) @ F`` (``F`` for
    the MLP ablation, ``hc=None``) and meets ``w0``'s first ``a0.shape[1]``
    rows. Returns ``(x1, x2)``, both layers' activations, in ``a0``'s
    dtype, the factor and weights cast to it.
    """
    a0 = np.asarray(a0)
    if a0.ndim != 2 or a0.shape[1] > params.d_gnn:
        raise ShapeMismatchError(
            f"first-layer input shape {a0.shape} does not fit d_gnn {params.d_gnn}"
        )
    dtype = a0.dtype
    adj = None if hc is None else np.asarray(hc).astype(dtype, copy=False)
    if adj is not None and adj.shape != (len(a0), len(a0)):
        raise ShapeMismatchError(f"adjacency {adj.shape} does not match features {a0.shape}")

    x1 = a0 @ params.w0[: a0.shape[1]].astype(dtype, copy=False)
    np.maximum(x1, 0, out=x1)
    x2 = x1 @ params.w1.astype(dtype, copy=False)
    if adj is not None:
        x2 = triu_matmul(adj, x2)
    return x1, np.maximum(x2, 0, out=x2)


def ffnn_logits(x2: np.ndarray, params: AllocatorParams) -> np.ndarray:
    """Classifier head: the logits ``x2 @ wc + bc`` (d_col x t_max)."""
    x2 = np.asarray(x2)
    if x2.ndim != 2 or x2.shape[1] != params.hidden:
        raise ShapeMismatchError(
            f"features shape {x2.shape} does not match hidden {params.hidden}"
        )
    dtype = x2.dtype
    return x2 @ params.wc.astype(dtype, copy=False) + params.bc.astype(dtype, copy=False)


def allocate(x2: np.ndarray, params: AllocatorParams) -> np.ndarray:
    """Hard per-column widths: argmax of the head logits, +1.

    Softmax is order-preserving, so the argmax is taken on raw logits.
    Ties resolve to the lower width (numpy argmax returns the first max).
    """
    return np.argmax(ffnn_logits(x2, params), axis=1).astype(np.int64) + 1


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def sample_gumbel(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Standard Gumbel noise ``-log(-log(u))``, u ~ Uniform(0,1), seeded by rng."""
    u = rng.random(shape)
    u = np.clip(u, 1e-300, 1.0 - 1e-16)
    return -np.log(-np.log(u))


def gumbel_softmax(logits: np.ndarray, tau: float, noise: np.ndarray) -> np.ndarray:
    """Relaxed categorical sample: ``softmax((logits + noise) / tau)``.

    Works on a single logit vector or row-wise on a matrix. High tau
    flattens toward uniform; tau -> 0 approaches one-hot at
    argmax(logits + noise).
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    logits = np.asarray(logits, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != logits.shape:
        raise ShapeMismatchError(
            f"noise shape {noise.shape} does not match logits {logits.shape}"
        )
    return softmax((logits + noise) / tau, axis=-1)

"""Graph perceptual module and bit-width allocator.

Each weight column is a graph node. Node features are built by transposing
the weight matrix, zero-padding the row dimension up to a multiple of the
feature width, and chunk-averaging (``preprocess``). The upper-triangular
Hessian-Cholesky factor is used as the weighted adjacency exactly as given
(no symmetrization or degree normalization), through a 2-layer graph
convolution:

    X1 = relu(adj @ X0 @ W0)
    X2 = relu(adj @ X1 @ W1)

With no adjacency (``hc=None``) the layers are plain dense ones: the MLP
ablation. A classifier head maps X2 to per-node logits over widths
1..t_max; class c means c+1 bits. ``gcn_forward`` and ``ffnn_logits`` are
the only code for the layers and the head, for inference and training
alike. Inference takes the argmax (ties resolve to the lower width);
training replaces argmax with Gumbel-Softmax sampling, implemented here as
a pure function of explicit noise so the training loop owns all
randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import ShapeMismatchError

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
    """Trainable parameters: two graph layers plus the classifier head.

    ``wf``/``bf`` are the optional hidden classifier layer; when absent the
    head is a single affine map.
    """

    w0: np.ndarray  # (d_gnn, hidden)
    w1: np.ndarray  # (hidden, hidden)
    wc: np.ndarray  # (hidden, t_max)
    bc: np.ndarray  # (t_max,)
    wf: np.ndarray | None = None  # (hidden, hidden)
    bf: np.ndarray | None = None  # (hidden,)

    def __post_init__(self):
        d_gnn, hidden = self.w0.shape
        if self.w1.shape != (hidden, hidden):
            raise ShapeMismatchError(f"w1 must be ({hidden}, {hidden}), got {self.w1.shape}")
        if self.wc.shape[0] != hidden:
            raise ShapeMismatchError(f"wc must have {hidden} rows, got {self.wc.shape}")
        if self.bc.shape != (self.wc.shape[1],):
            raise ShapeMismatchError(f"bc must match wc columns, got {self.bc.shape}")
        if (self.wf is None) != (self.bf is None):
            raise ValueError("wf and bf must be provided together")
        if self.wf is not None and self.wf.shape != (hidden, hidden):
            raise ShapeMismatchError(f"wf must be ({hidden}, {hidden}), got {self.wf.shape}")
        if self.t_max < 2:
            raise ValueError(f"t_max must be >= 2, got {self.t_max}")
        for name, arr in self.as_dict().items():
            if not np.isfinite(arr).all():
                raise ValueError(f"parameter {name} contains NaN/Inf")

    @property
    def d_gnn(self) -> int:
        return self.w0.shape[0]

    @property
    def hidden(self) -> int:
        return self.w0.shape[1]

    @property
    def t_max(self) -> int:
        return self.wc.shape[1]

    @property
    def has_hidden_head(self) -> bool:
        return self.wf is not None

    def as_dict(self) -> dict[str, np.ndarray]:
        """Name -> array views, in a fixed order (shared with the optimizer)."""
        out = {"w0": self.w0, "w1": self.w1, "wc": self.wc, "bc": self.bc}
        if self.wf is not None:
            out["wf"] = self.wf
            out["bf"] = self.bf
        return out


def _xavier_uniform(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    fan_in, fan_out = shape
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_allocator_params(
    d_gnn: int,
    hidden: int,
    t_max: int,
    rng: np.random.Generator,
    ffnn_hidden: bool = False,
) -> AllocatorParams:
    """Seeded init: uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases.

    Zero biases keep the initial logits small, so early Gumbel noise
    dominates and the sampler explores all widths.
    """
    w0 = _xavier_uniform(rng, (d_gnn, hidden))
    w1 = _xavier_uniform(rng, (hidden, hidden))
    wf = bf = None
    if ffnn_hidden:
        wf = _xavier_uniform(rng, (hidden, hidden))
        bf = np.zeros(hidden, dtype=np.float64)
    wc = _xavier_uniform(rng, (hidden, t_max))
    bc = np.zeros(t_max, dtype=np.float64)
    return AllocatorParams(w0=w0, w1=w1, wc=wc, bc=bc, wf=wf, bf=bf)


def preprocess(w: np.ndarray, d_gnn: int) -> np.ndarray:
    """Node features from a weight matrix.

    Transpose to (d_col, d_row), zero-pad the row axis up to k*d_gnn with
    k = ceil(d_row / d_gnn), view each node's row as k chunks of d_gnn and
    average them. Returns (d_col, d_gnn) in the input dtype. Exactly linear
    in ``w``.
    """
    w = np.asarray(w)
    if w.ndim != 2:
        raise ShapeMismatchError(f"weights must be 2-D, got shape {w.shape}")
    if d_gnn < 1:
        raise ValueError(f"d_gnn must be >= 1, got {d_gnn}")
    d_row, d_col = w.shape
    k = max(1, -(-d_row // d_gnn))
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
    return preprocess(np.ascontiguousarray(hc.T), d_gnn)


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def gcn_forward(
    hc: np.ndarray | None, x0: np.ndarray, params: AllocatorParams
) -> tuple[np.ndarray, np.ndarray]:
    """Two graph-convolution layers over the factor-as-adjacency.

    Returns ``(x1, x2)``, both layers' activations, in ``x0``'s dtype; the
    factor and weights are cast to it. ``hc=None`` drops the propagation,
    which is the MLP ablation.
    """
    x0 = np.asarray(x0)
    if x0.ndim != 2 or x0.shape[1] != params.d_gnn:
        raise ShapeMismatchError(
            f"features shape {x0.shape} does not match d_gnn {params.d_gnn}"
        )
    dtype = x0.dtype
    adj = None if hc is None else np.asarray(hc).astype(dtype, copy=False)
    if adj is not None and adj.shape != (len(x0), len(x0)):
        raise ShapeMismatchError(f"adjacency {adj.shape} does not match features {x0.shape}")

    def layer(x: np.ndarray, w: np.ndarray) -> np.ndarray:
        x = x @ w.astype(dtype, copy=False)
        return _relu(x if adj is None else adj @ x)

    x1 = layer(x0, params.w0)
    return x1, layer(x1, params.w1)


def ffnn_logits(x2: np.ndarray, params: AllocatorParams) -> tuple[np.ndarray, np.ndarray]:
    """Classifier head: returns ``(head, logits)``, logits (d_col x t_max).

    ``head`` is the input of the final affine map: ``x2`` itself, or the
    optional hidden layer's activation.
    """
    x2 = np.asarray(x2)
    if x2.ndim != 2 or x2.shape[1] != params.hidden:
        raise ShapeMismatchError(
            f"features shape {x2.shape} does not match hidden {params.hidden}"
        )
    dtype = x2.dtype
    h = x2
    if params.has_hidden_head:
        h = _relu(x2 @ params.wf.astype(dtype, copy=False) + params.bf.astype(dtype, copy=False))
    return h, h @ params.wc.astype(dtype, copy=False) + params.bc.astype(dtype, copy=False)


def allocate(x2: np.ndarray, params: AllocatorParams) -> np.ndarray:
    """Hard per-column widths: argmax of the head logits, +1.

    Softmax is order-preserving, so the argmax is taken on raw logits.
    Ties resolve to the lower width (numpy argmax returns the first max).
    """
    _, logits = ffnn_logits(x2, params)
    return np.argmax(logits, axis=1).astype(np.int64) + 1


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

"""Shared test utilities: finite-difference gradient checking."""

import numpy as np

from mgquant.allocator import (
    first_layer_input,
    gumbel_softmax,
    init_allocator_params,
    preprocess,
    sample_gumbel,
)
from mgquant.training import backward_from_cache, forward_cached, soft_losses


def gradient_check_config(
    seed: int,
    arch: str = "gcn",
    tau: float = 1.0,
    alpha: float = 1.0,
    step: float = 1e-5,
    short_rows: bool = False,
) -> float:
    """Worst per-parameter relative error between analytic and central FD grads.

    Seeded configs with d_col <= 16, feature width <= 8. Biases are nudged
    off zero so no pre-activation sits exactly on a ReLU kink (where the
    analytic subgradient convention and a symmetric difference legitimately
    disagree). The first layer's input is random, or with ``short_rows``
    (graph only) propagated from the pooled features of a weight matrix with
    fewer rows than the feature width, so some rows of ``w0`` meet only
    padding.
    """
    rng = np.random.default_rng(seed)
    d_col = int(rng.integers(4, 17))
    d_gnn = int(rng.integers(2, 9))
    hidden = int(rng.integers(2, 9))
    t_max = 4
    params = init_allocator_params(d_gnn, hidden, t_max, rng)
    params.bc += 0.05 * rng.standard_normal(t_max)

    x0 = rng.standard_normal((d_col, d_gnn))
    adj = None
    if arch == "gcn":
        adj = np.triu(rng.standard_normal((d_col, d_col)))
        np.fill_diagonal(adj, np.abs(np.diag(adj)) + 0.5)
    if short_rows:
        d_row = int(rng.integers(1, d_gnn))
        x0 = first_layer_input(adj, preprocess(rng.standard_normal((d_row, d_col)), d_gnn), d_row)
    noise = sample_gumbel((d_col, t_max), rng)
    errs = np.abs(rng.standard_normal((d_col, t_max)))
    target = 2.5

    def loss() -> float:
        cache = forward_cached(x0, params, adj=adj)
        P = gumbel_softmax(cache.logits, tau, noise)
        return soft_losses(P, errs, target, alpha).total

    cache = forward_cached(x0, params, adj=adj)
    P = gumbel_softmax(cache.logits, tau, noise)
    grads = {k: np.zeros_like(v) for k, v in params.as_dict().items()}
    backward_from_cache(cache, params, P, errs, target, alpha, tau, grads)

    worst = 0.0
    for name, arr in params.as_dict().items():
        g = grads[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            up = loss()
            arr[idx] = orig - step
            down = loss()
            arr[idx] = orig
            fd = (up - down) / (2.0 * step)
            rel = abs(g[idx] - fd) / max(1e-8, abs(g[idx]), abs(fd))
            worst = max(worst, rel)
    return worst

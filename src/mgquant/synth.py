"""Synthetic desk-scale instances for tests, benchmarks and demos.

Real checkpoint layers are out of reach here, so evaluation runs on
generated layers whose two knobs matter:

* *column salience*: per-column weight scales are log-spaced over a given
  number of decades and shuffled, so some columns hurt much more than
  others when quantized coarsely;
* *correlated calibration*: activation rows are drawn as ``Z @ M`` with a
  random mixing matrix, giving the Gram the off-diagonal structure that
  makes error compensation matter.

The absolute weight/activation scales are chosen so the per-column error
tables land in a range where the expected-error term and the average-bit
penalty are both active at alpha = 1 (huge error tables would steamroll
the budget penalty; vanishing ones would make allocation pointless).
"""

from __future__ import annotations

import numpy as np

from .calibration import GramAccumulator, build_hessian_cholesky

__all__ = [
    "correlated_calibration",
    "salient_weights",
    "make_layer",
    "regression_fixture",
    "salience_instance",
]

#: Default scales; see module docstring for why they are not 1.0.
WEIGHT_SCALE = 0.05
CALIB_SCALE = 1.0


def correlated_calibration(
    rng: np.random.Generator, rows: int, d_col: int, scale: float = CALIB_SCALE
) -> np.ndarray:
    """Activation rows with a random cross-feature mixing (rows x d_col)."""
    z = rng.standard_normal((rows, d_col))
    mix = rng.standard_normal((d_col, d_col)) / np.sqrt(d_col)
    return scale * (z @ mix)


def salient_weights(
    rng: np.random.Generator,
    d_row: int,
    d_col: int,
    decades: float = 2.0,
    scale: float = WEIGHT_SCALE,
) -> np.ndarray:
    """Gaussian weights with shuffled log-spaced per-column scales."""
    w = rng.standard_normal((d_row, d_col))
    col_scale = np.logspace(-decades / 2.0, decades / 2.0, d_col)
    rng.shuffle(col_scale)
    return scale * w * col_scale


def make_layer(
    rng: np.random.Generator,
    d_row: int,
    d_col: int,
    calib_rows: int,
    decades: float = 0.0,
    weight_scale: float = WEIGHT_SCALE,
    calib_scale: float = CALIB_SCALE,
    damp_frac: float = 0.01,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """One synthetic layer: weights, hessian factor, calibration batches ``[x]``."""
    if decades > 0:
        w = salient_weights(rng, d_row, d_col, decades=decades, scale=weight_scale)
    else:
        w = weight_scale * rng.standard_normal((d_row, d_col))
    x = correlated_calibration(rng, calib_rows, d_col, scale=calib_scale)
    hc = build_hessian_cholesky(GramAccumulator(d_col=d_col).accumulate(x).gram, damp_frac)
    return w, hc, [x]


def regression_fixture(
    seed: int = 7, n_layers: int = 8, d_row: int = 256, d_col: int = 256
) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[list[np.ndarray]]]:
    """The 8-layer 256x256 training fixture used by the acceptance suite.

    Mild (one-decade) salience spread: enough heterogeneity for the expected
    error to fall during training, small enough that the bit budget stays
    pinned under the default penalty weight. Scales were calibrated so the
    error-table entries sit where the budget penalty is an active force at
    the default penalty weight (weight 0.004 / activations 0.05 gives final
    hard means 2.59..2.62 over ten training seeds at the package defaults).
    """
    rng = np.random.default_rng(seed)
    layers = []
    calibs = []
    for _ in range(n_layers):
        w, hc, calib = make_layer(
            rng, d_row, d_col, calib_rows=512, decades=1.0,
            weight_scale=0.004, calib_scale=0.05,
        )
        layers.append((w, hc))
        calibs.append(calib)
    return layers, calibs


def salience_instance(
    seed: int, d_row: int = 64, d_col: int = 64, calib_rows: int = 256
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """A single strongly heterogeneous layer (two decades of column scales)."""
    rng = np.random.default_rng(seed)
    return make_layer(
        rng, d_row, d_col, calib_rows=calib_rows, decades=2.0,
        weight_scale=0.01, calib_scale=0.05,
    )

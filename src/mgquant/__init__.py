"""Mixed-precision post-training weight quantization.

A graph-network allocator reads each weight column as a node (adjacency:
the Cholesky factor of the damped inverse calibration Gram), assigns it a
bit-width under an average-bit budget, and a blockwise engine quantizes the
columns with output-error compensation.
"""

from .allocator import (
    AllocatorParams,
    allocate,
    gcn_forward,
    gumbel_softmax,
    hessian_node_features,
    init_allocator_params,
    preprocess,
    sample_gumbel,
)
from .baselines import BaselineSpec, run_baseline
from .calibration import CalibrationSet, GramAccumulator, build_hessian_cholesky
from .gptq import QuantResult, proxy_loss, quantize_blockwise
from .linalg import NotPositiveDefiniteError, ShapeMismatchError, cholesky, spd_inverse
from .pipeline import AllocatorTimings, quantize_with_allocator, widths_for
from .quant import error_table, quantize
from .tensorfile import TensorFileError, read_tensor_file, write_tensor_file
from .training import (
    AdamW,
    LossBreakdown,
    TrainConfig,
    TrainingLogRecord,
    soft_losses,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "AllocatorParams",
    "AllocatorTimings",
    "BaselineSpec",
    "CalibrationSet",
    "GramAccumulator",
    "LossBreakdown",
    "NotPositiveDefiniteError",
    "QuantResult",
    "ShapeMismatchError",
    "TensorFileError",
    "TrainConfig",
    "TrainingLogRecord",
    "allocate",
    "build_hessian_cholesky",
    "cholesky",
    "error_table",
    "gcn_forward",
    "gumbel_softmax",
    "hessian_node_features",
    "init_allocator_params",
    "preprocess",
    "proxy_loss",
    "quantize",
    "quantize_blockwise",
    "quantize_with_allocator",
    "read_tensor_file",
    "run_baseline",
    "sample_gumbel",
    "soft_losses",
    "spd_inverse",
    "train",
    "widths_for",
    "write_tensor_file",
]

"""Mixed-precision post-training weight quantization.

A graph-network allocator reads each weight column as a node (adjacency:
the Cholesky factor of the damped inverse calibration Gram), assigns it a
bit-width under an average-bit budget, and a blockwise engine quantizes the
columns with output-error compensation.

Every name in ``__all__`` is loaded from its module on first access, so
``import mgquant`` (and each CLI command) loads only the modules it uses.
"""

import importlib

_EXPORTS = {
    "allocator": ("AllocatorParams", "allocate", "gcn_forward", "gumbel_softmax",
                  "hessian_node_features", "init_allocator_params", "preprocess",
                  "sample_gumbel"),
    "baselines": ("BaselineSpec", "run_baseline"),
    "calibration": ("GramAccumulator", "build_hessian_cholesky", "proxy_loss"),
    "gptq": ("QuantResult", "quantize_blockwise"),
    "linalg": ("NotPositiveDefiniteError", "ShapeMismatchError", "cholesky", "spd_inverse"),
    "pipeline": ("quantize_with_allocator", "widths_for"),
    "quant": ("error_table", "quantize"),
    "tensorfile": ("TensorFileError", "read_tensor_file", "write_tensor_file"),
    "training": ("AdamW", "LossBreakdown", "TrainConfig", "TrainingLogRecord", "soft_losses",
                 "train"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

"""Run configuration: JSON files validated strictly (unknown keys rejected)."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .training import TrainConfig

__all__ = ["RunConfig", "load_run_config"]

_PATH_FIELDS = (
    "weights_dir",
    "hessians_dir",
    "calib_paths",
    "out_path",
    "report_path",
    "log_path",
)


@dataclass
class RunConfig(TrainConfig):
    """Training hyperparameters plus pipeline-level settings and file paths.

    Paths are optional defaults; command-line flags override them.
    """

    damp_frac: float = 0.01
    precision: str = "f32"
    weights_dir: str | None = None
    hessians_dir: str | None = None
    calib_paths: list[str] | None = None
    out_path: str | None = None
    report_path: str | None = None
    log_path: str | None = None

    def validate(self) -> "RunConfig":
        super().validate()
        if not 0 <= self.damp_frac < float("inf"):  # json.loads accepts NaN/Infinity
            raise ValueError(f"damp_frac must be finite and >= 0, got {self.damp_frac}")
        if self.precision not in ("f32", "f64"):
            raise ValueError(f"precision must be 'f32' or 'f64', got {self.precision!r}")
        if self.calib_paths is not None and not all(
            isinstance(p, str) for p in self.calib_paths
        ):
            raise ValueError("calib_paths must be a list of strings")
        return self

    @property
    def dtype(self):
        import numpy as np

        return np.float32 if self.precision == "f32" else np.float64

    def train_config(self) -> TrainConfig:
        fields = {f.name for f in dataclasses.fields(TrainConfig)}
        return TrainConfig(**{k: getattr(self, k) for k in fields})

    def echo(self) -> dict:
        """JSON-safe dict of every field, for embedding in reports."""
        return dataclasses.asdict(self)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_BOOL_FIELDS = {"tau_anneal", "ffnn_hidden", "symmetrize_adjacency", "intra_block"}
_INT_FIELDS = {"epochs", "accum_steps", "seed", "d_gnn", "hidden", "t_max", "block_size"}
_FLOAT_FIELDS = {
    "lr", "alpha", "tau", "target_bits", "weight_decay",
    "beta1", "beta2", "eps", "damp_frac",
}


def _check_type(key: str, value):
    if key in _BOOL_FIELDS:
        if not isinstance(value, bool):
            raise ValueError(f"config key {key!r} must be a boolean, got {value!r}")
    elif key in _INT_FIELDS:
        if isinstance(value, bool) or not isinstance(value, int):
            if not (key == "hidden" and value is None):
                raise ValueError(f"config key {key!r} must be an integer, got {value!r}")
    elif key in _FLOAT_FIELDS:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"config key {key!r} must be a number, got {value!r}")
    elif key == "precision":
        if not isinstance(value, str):
            raise ValueError(f"config key {key!r} must be a string, got {value!r}")
    elif key == "calib_paths":
        if value is not None and not isinstance(value, list):
            raise ValueError(f"config key {key!r} must be a list, got {value!r}")
    elif key in _PATH_FIELDS:
        if value is not None and not isinstance(value, str):
            raise ValueError(f"config key {key!r} must be a string, got {value!r}")


def load_run_config(path: str | Path) -> RunConfig:
    """Load and validate a JSON run config; unknown keys are an error."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(raw) - set(_FIELD_TYPES))
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    for key, value in raw.items():
        _check_type(key, value)
    for key in _FLOAT_FIELDS:
        if key in raw:
            raw[key] = float(raw[key])
    cfg = RunConfig(**raw)
    return cfg.validate()

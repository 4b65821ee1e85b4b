"""Run configuration: JSON files validated strictly (unknown keys rejected)."""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from dataclasses import dataclass
from pathlib import Path

from .training import TrainConfig

__all__ = ["RunConfig", "load_run_config"]


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


def _kind(hint) -> tuple[object, bool]:
    """(type, optional) of a field annotation; ``X | None`` is X, optional."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType) and type(None) in args:
        return next(a for a in args if a is not type(None)), True
    return hint, False


_FIELD_KINDS = {key: _kind(hint) for key, hint in typing.get_type_hints(RunConfig).items()}
_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               list[str]: "a list of strings"}


def _check_type(key: str, value):
    kind, optional = _FIELD_KINDS[key]
    if value is None and optional:
        return
    if kind is bool or isinstance(value, bool):
        ok = kind is bool and isinstance(value, bool)
    elif kind == list[str]:
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    else:
        ok = isinstance(value, (int, float) if kind is float else kind)
    if not ok:
        raise ValueError(f"config key {key!r} must be {_KIND_NAMES[kind]}, got {value!r}")


def load_run_config(path: str | Path) -> RunConfig:
    """Load and validate a JSON run config; unknown keys are an error."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(raw) - set(_FIELD_KINDS))
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    for key, value in raw.items():
        _check_type(key, value)
        if _FIELD_KINDS[key][0] is float and value is not None:
            raw[key] = float(value)
    cfg = RunConfig(**raw)
    return cfg.validate()

"""Run configuration: JSON files validated strictly (unknown keys rejected)."""

from __future__ import annotations

import json
import types
import typing
from pathlib import Path

from .training import TrainConfig

__all__ = ["load_run_config"]


def _kind(hint) -> tuple[object, bool]:
    """(type, optional) of a field annotation; ``X | None`` is X, optional."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType) and type(None) in args:
        return next(a for a in args if a is not type(None)), True
    return hint, False


_FIELD_KINDS = {key: _kind(hint) for key, hint in typing.get_type_hints(TrainConfig).items()}
_KIND_NAMES = {int: "an integer", float: "a number"}


def _check_type(key: str, value):
    kind, optional = _FIELD_KINDS[key]
    if value is None and optional:
        return
    # bool is an int subclass, but a JSON true or false is not a number
    ok = isinstance(value, (int, float) if kind is float else kind)
    if isinstance(value, bool) or not ok:
        raise ValueError(f"config key {key!r} must be {_KIND_NAMES[kind]}, got {value!r}")


def load_run_config(path: str | Path) -> TrainConfig:
    """Load and validate a JSON training config; unknown keys are an error."""
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
    return TrainConfig(**raw).validate()

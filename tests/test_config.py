import dataclasses
import json
import re
import types
import typing
from pathlib import Path

import numpy as np
import pytest

from mgquant.allocator import init_allocator_params
from mgquant.config import load_run_config
from mgquant.pipeline import params_from_sections, params_to_sections
from mgquant.training import TrainConfig

README = Path(__file__).resolve().parents[1] / "README.md"

# Values of the wrong kind for each annotated field type; ``{}`` is wrong for all.
WRONG_VALUES = {
    int: [True, 2.5, "3"],
    float: [False, "0.5"],
}


def field_cases():
    """(key, wrong value) for every TrainConfig field, plus None where not optional.

    Each id names the key and the value, ``{}`` by its type, so adding or
    removing a field renames no other case.
    """
    cases = []
    for key, hint in typing.get_type_hints(TrainConfig).items():
        optional = isinstance(hint, types.UnionType) and type(None) in typing.get_args(hint)
        if optional:
            (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
        else:
            cases.append((key, None))
        cases += [(key, v) for v in [{}] + WRONG_VALUES[hint]]
    return [pytest.param(key, v, id=f"{key}-{'dict' if v == {} else v}") for key, v in cases]


def write(tmp_path, payload):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(payload))
    return p


class TestLoadRunConfig:
    def test_defaults(self, tmp_path):
        cfg = load_run_config(write(tmp_path, {}))
        assert cfg == TrainConfig()
        assert cfg.epochs == 50
        assert cfg.lr == 1e-3
        assert cfg.accum_steps == 4
        assert cfg.alpha == 1.0
        assert cfg.t_max == 4
        assert cfg.d_gnn == 512
        assert cfg.hidden_dim == 512
        assert cfg.block_size == 128

    def test_overrides(self, tmp_path):
        cfg = load_run_config(
            write(tmp_path, {"epochs": 3, "d_gnn": 16, "hidden": 8, "target_bits": 2.0,
                             "seed": 9, "alpha": 2})
        )
        assert type(cfg.alpha) is float and cfg.alpha == 2.0  # JSON int cast for a float field
        assert cfg.epochs == 3
        assert cfg.hidden_dim == 8
        assert cfg.seed == 9

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown config keys: learning_rate"):
            load_run_config(write(tmp_path, {"learning_rate": 0.1}))

    def test_bad_types_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="epochs"):
            load_run_config(write(tmp_path, {"epochs": "fifty"}))
        with pytest.raises(ValueError, match="config key 'tau' must be a number"):
            load_run_config(write(tmp_path, {"tau": True}))

    @pytest.mark.parametrize("key,value", field_cases())
    def test_every_field_type_checked(self, tmp_path, key, value):
        with pytest.raises(ValueError, match=f"config key '{key}' must be"):
            load_run_config(write(tmp_path, {key: value}))

    def test_invariants_enforced(self, tmp_path):
        with pytest.raises(ValueError, match="target_bits"):
            load_run_config(write(tmp_path, {"target_bits": 7.0}))
        with pytest.raises(ValueError, match="lr"):
            load_run_config(write(tmp_path, {"lr": 0}))
        with pytest.raises(ValueError, match="accum_steps"):
            load_run_config(write(tmp_path, {"accum_steps": 0}))

    def test_not_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("epochs: 3")
        with pytest.raises(ValueError, match="JSON"):
            load_run_config(p)

    def test_not_object(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("[1, 2]")
        with pytest.raises(ValueError, match="object"):
            load_run_config(p)


def readme_config_keys() -> set[str]:
    """Backticked names in the bullet list of README's Configuration section."""
    section = README.read_text().split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- .*(?:\n  .*)*", section, flags=re.M)
    return {name for b in bullets for name in re.findall(r"`([a-z_0-9]+)`", b)}


def test_readme_documents_exactly_the_config_keys():
    assert readme_config_keys() == {f.name for f in dataclasses.fields(TrainConfig)}


def test_readme_documents_exactly_the_params_sections():
    row = next(line for line in README.read_text().splitlines()
               if line.startswith("| allocator params "))
    documented = {name for group in re.findall(r"`([^`]+)`", row) for name in group.split()}
    written = params_to_sections(init_allocator_params(4, 4, 4, np.random.default_rng(0)))
    assert documented == set(written)
    params_from_sections(written)
    for name in written:
        with pytest.raises(ValueError, match=f"'{name}'"):
            params_from_sections({k: v for k, v in written.items() if k != name})
    with pytest.raises(ValueError, match="'extra'"):
        params_from_sections({**written, "extra": np.zeros(1)})

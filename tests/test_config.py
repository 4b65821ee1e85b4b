import json
import types
import typing

import pytest

from mgquant.config import RunConfig, load_run_config

# Values of the wrong kind for each annotated field type; ``{}`` is wrong for all.
WRONG_VALUES = {
    bool: [1, "yes"],
    int: [True, 2.5, "3"],
    float: [False, "0.5"],
    str: [1, ["f32"]],
    list[str]: ["calib.mgqt", [1]],
}


def field_cases():
    """(key, wrong value) for every RunConfig field, plus None where not optional."""
    cases = []
    for key, hint in typing.get_type_hints(RunConfig).items():
        optional = isinstance(hint, types.UnionType) and type(None) in typing.get_args(hint)
        if optional:
            (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
        else:
            cases.append((key, None))
        cases += [(key, v) for v in [{}] + WRONG_VALUES[hint]]
    return cases


def write(tmp_path, payload):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(payload))
    return p


class TestLoadRunConfig:
    def test_defaults(self, tmp_path):
        cfg = load_run_config(write(tmp_path, {}))
        assert cfg.epochs == 50
        assert cfg.lr == 1e-3
        assert cfg.accum_steps == 4
        assert cfg.alpha == 1.0
        assert cfg.t_max == 4
        assert cfg.d_gnn == 512
        assert cfg.hidden_dim == 512
        assert cfg.block_size == 128
        assert cfg.damp_frac == 0.01
        assert cfg.precision == "f32"

    def test_overrides(self, tmp_path):
        cfg = load_run_config(
            write(tmp_path, {"epochs": 3, "d_gnn": 16, "hidden": 8, "target_bits": 2.0,
                             "precision": "f64", "seed": 9, "alpha": 2})
        )
        assert type(cfg.alpha) is float and cfg.alpha == 2.0  # JSON int cast for a float field
        assert cfg.epochs == 3
        assert cfg.hidden_dim == 8
        assert cfg.precision == "f64"
        assert cfg.train_config().seed == 9

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown config keys: learning_rate"):
            load_run_config(write(tmp_path, {"learning_rate": 0.1}))

    def test_bad_types_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="epochs"):
            load_run_config(write(tmp_path, {"epochs": "fifty"}))
        with pytest.raises(ValueError, match="intra_block"):
            load_run_config(write(tmp_path, {"intra_block": "yes"}))

    @pytest.mark.parametrize("key,value", field_cases())
    def test_every_field_type_checked(self, tmp_path, key, value):
        with pytest.raises(ValueError, match=f"config key '{key}' must be"):
            load_run_config(write(tmp_path, {key: value}))

    def test_invariants_enforced(self, tmp_path):
        with pytest.raises(ValueError, match="target_bits"):
            load_run_config(write(tmp_path, {"target_bits": 7.0}))
        with pytest.raises(ValueError, match="lr"):
            load_run_config(write(tmp_path, {"lr": 0}))
        with pytest.raises(ValueError, match="precision"):
            load_run_config(write(tmp_path, {"precision": "f16"}))
        with pytest.raises(ValueError, match="accum_steps"):
            load_run_config(write(tmp_path, {"accum_steps": 0}))

    def test_nonfinite_damp_rejected(self, tmp_path):
        # json.loads accepts the NaN/Infinity tokens json.dumps writes
        for damp in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="damp_frac"):
                load_run_config(write(tmp_path, {"damp_frac": damp}))

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

    def test_echo_is_json_safe(self, tmp_path):
        cfg = load_run_config(write(tmp_path, {"epochs": 2}))
        echo = cfg.echo()
        json.dumps(echo)
        assert echo["epochs"] == 2

    def test_train_config_projection(self):
        cfg = RunConfig(epochs=5, d_gnn=16, damp_frac=0.05)
        tc = cfg.train_config()
        assert tc.epochs == 5
        assert tc.d_gnn == 16
        assert not hasattr(tc, "damp_frac")

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import re
import stat
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mgquant
from mgquant import training
from mgquant.allocator import init_allocator_params
from mgquant.calibration import CHUNK_ROWS, GramAccumulator, build_hessian_cholesky, gram_break_even
from mgquant.cli import build_parser, main
from mgquant.pipeline import params_to_sections
from mgquant.tensorfile import MAGIC, VERSION, read_tensor_file, write_tensor_file


def make_instance(tmp_path, seed=0, d_row=24, d_col=16, rows=96, n_layers=2):
    """Layer weight files, per-layer calib files, and a run config on disk."""
    rng = np.random.default_rng(seed)
    wdir = tmp_path / "weights"
    hdir = tmp_path / "hessians"
    wdir.mkdir()
    hdir.mkdir()
    calib_paths = []
    for i in range(n_layers):
        w = (0.01 * rng.standard_normal((d_row, d_col))).astype(np.float32)
        write_tensor_file(wdir / f"L{i}.mgqt", {"weights": w})
        x = (0.05 * rng.standard_normal((rows, d_col))).astype(np.float32)
        cpath = tmp_path / f"calib{i}.mgqt"
        write_tensor_file(cpath, {"batch0": x[: rows // 2], "batch1": x[rows // 2:]})
        calib_paths.append(cpath)
        gram = tmp_path / f"gram{i}.mgqt"
        assert main(["gram", "--calib", str(cpath), "--out", str(gram)]) == 0
        assert main(["hessian", "--gram", str(gram), "--damp", "0.01",
                     "--out", str(hdir / f"L{i}.mgqt")]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "epochs": 2, "lr": 0.01, "accum_steps": 2, "d_gnn": 8,
        "block_size": 8, "seed": 5, "target_bits": 2.5,
    }))
    return wdir, hdir, calib_paths, cfg


def src_env(**extra) -> dict:
    """Environment for a fresh interpreter that imports this checkout's package."""
    src = str(Path(mgquant.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return env


def refuse_payload_reads(monkeypatch, paths):
    """Make ``cli``'s payload reader raise on ``paths``; other files read as usual."""
    from mgquant import cli

    read = cli.read_tensor_file
    banned = {str(p) for p in paths}

    def guarded(path):
        if str(path) in banned:
            raise AssertionError(f"payload of {path} read")
        return read(path)

    monkeypatch.setattr(cli, "read_tensor_file", guarded)


def last_json_line(capsys):
    out = capsys.readouterr().out.strip().split("\n")
    return json.loads(out[-1])


class TestGram:
    def test_identity_batch(self, tmp_path, capsys):
        calib = tmp_path / "c.mgqt"
        write_tensor_file(calib, {"batch0": np.eye(2, dtype=np.float64)})
        out = tmp_path / "g.mgqt"
        assert main(["gram", "--calib", str(calib), "--out", str(out)]) == 0
        sections = read_tensor_file(out)
        assert np.array_equal(sections["gram"], 2.0 * np.eye(2))
        assert sections["samples"][0] == 2.0
        payload = last_json_line(capsys)
        assert payload["d_col"] == 2 and payload["samples"] == 2

    def test_two_files_vs_concatenated_byte_identical(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((300, 6))
        a, b, whole = (tmp_path / n for n in ("a.mgqt", "b.mgqt", "w.mgqt"))
        write_tensor_file(a, {"x": x[:137]})
        write_tensor_file(b, {"x": x[137:]})
        write_tensor_file(whole, {"x": x})
        g1, g2 = tmp_path / "g1.mgqt", tmp_path / "g2.mgqt"
        assert main(["gram", "--calib", str(a), str(b), "--out", str(g1)]) == 0
        assert main(["gram", "--calib", str(whole), "--out", str(g2)]) == 0
        assert g1.read_bytes() == g2.read_bytes()

    def test_shape_mismatch_exit_2_names_file(self, tmp_path, capsys, monkeypatch):
        # refused from the headers, before any calibration payload is read
        a, b = tmp_path / "a.mgqt", tmp_path / "b.mgqt"
        write_tensor_file(a, {"x": np.zeros((3, 4))})
        write_tensor_file(b, {"x": np.zeros((3, 5))})
        refuse_payload_reads(monkeypatch, [a, b])
        rc = main(["gram", "--calib", str(a), str(b), "--out", str(tmp_path / "g.mgqt")])
        assert rc == 2
        assert "b.mgqt" in capsys.readouterr().err

    def test_no_files_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gram", "--calib", "--out", str(tmp_path / "g.mgqt")])
        assert exc.value.code == 2

    def test_malformed_file_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.mgqt"
        bad.write_bytes(b"JUNKJUNKJUNK")
        rc = main(["gram", "--calib", str(bad), "--out", str(tmp_path / "g.mgqt")])
        assert rc == 3


class TestHessian:
    def test_wraps_builder(self, tmp_path):
        calib = tmp_path / "c.mgqt"
        write_tensor_file(calib, {"x": np.eye(2)})
        gram = tmp_path / "g.mgqt"
        main(["gram", "--calib", str(calib), "--out", str(gram)])
        out = tmp_path / "h.mgqt"
        assert main(["hessian", "--gram", str(gram), "--damp", "0.0", "--out", str(out)]) == 0
        hc = read_tensor_file(out)["hessian_cholesky"]
        assert np.allclose(hc, 0.70710678 * np.eye(2), atol=1e-8)

    def test_diagonal_gram_file_level(self, tmp_path):
        gram = tmp_path / "g.mgqt"
        write_tensor_file(gram, {"gram": np.diag([2.0, 8.0]), "samples": np.array([4.0])})
        out = tmp_path / "h.mgqt"
        assert main(["hessian", "--gram", str(gram), "--damp", "0.0", "--out", str(out)]) == 0
        hc = read_tensor_file(out)["hessian_cholesky"]
        assert np.allclose(np.diag(hc), [1 / np.sqrt(2.0), 1 / np.sqrt(8.0)])

    def test_indefinite_gram_exit_4(self, tmp_path, capsys):
        gram = tmp_path / "g.mgqt"
        write_tensor_file(gram, {"gram": np.diag([1.0, -4.0]), "samples": np.array([2.0])})
        rc = main(["hessian", "--gram", str(gram), "--damp", "0.0",
                   "--out", str(tmp_path / "h.mgqt")])
        assert rc == 4
        assert "damp_frac" in capsys.readouterr().err

    def test_nonfinite_damp_exit_2(self, tmp_path, capsys):
        calib = tmp_path / "c.mgqt"
        write_tensor_file(calib, {"x": np.eye(2)})
        gram = tmp_path / "g.mgqt"
        assert main(["gram", "--calib", str(calib), "--out", str(gram)]) == 0
        capsys.readouterr()
        out = tmp_path / "h.mgqt"
        for damp in ("nan", "inf", "-inf"):
            rc = main(["hessian", "--gram", str(gram), f"--damp={damp}", "--out", str(out)])
            assert rc == 2, damp
            captured = capsys.readouterr()
            assert captured.out == ""
            err = captured.err.strip().split("\n")
            assert len(err) == 1 and "damp_frac" in err[0], damp
            assert not out.exists()

    def test_missing_section_exit_2(self, tmp_path, capsys):
        # every file kind a command reads: weights, hessian, gram and quantized
        other = tmp_path / "other.mgqt"
        write_tensor_file(other, {"x": np.eye(2)})
        good = {"weights": {"weights": np.eye(2)}, "hessian": {"hessian_cholesky": np.eye(2)},
                "quant": {"quantized": np.eye(2)}}
        for kind, sections in good.items():
            write_tensor_file(tmp_path / f"{kind}.mgqt", sections)
        w, h, q = (str(tmp_path / f"{k}.mgqt") for k in good)
        params = tmp_path / "p.mgqt"
        write_tensor_file(params, {"w0": np.zeros((8, 8)), "w1": np.zeros((8, 8)),
                                   "wc": np.zeros((8, 4)), "bc": np.zeros(4)})
        out = str(tmp_path / "out.mgqt")
        cases = [
            (["hessian", "--gram", "{}", "--out", out], {"gram": np.eye(2)}, "samples"),
            (["hessian", "--gram", "{}", "--out", out], {"samples": np.array([2.0])}, "gram"),
            (["quantize", "--weights", "{}", "--hessian", h, "--params", str(params),
              "--out", out], None, "weights"),
            (["quantize", "--weights", w, "--hessian", "{}", "--params", str(params),
              "--out", out], None, "hessian_cholesky"),
            (["baseline", "--method", "rtn", "--weights", w, "--hessian", "{}",
              "--out", out], None, "hessian_cholesky"),
            (["eval", "--orig", "{}", "--quant", q, "--calib", str(other)], None, "weights"),
            (["eval", "--orig", w, "--quant", "{}", "--calib", str(other)], None, "quantized"),
        ]
        for i, (argv, sections, section) in enumerate(cases):
            bad = tmp_path / f"bad{i}.mgqt"
            write_tensor_file(bad, sections or {"x": np.eye(2)})
            rc = main([str(bad) if a == "{}" else a for a in argv])
            assert rc == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            err = captured.err.strip().splitlines()
            assert len(err) == 1 and f"bad{i}.mgqt" in err[0] and f"'{section}'" in err[0], err
            assert not Path(out).exists()

    @pytest.mark.parametrize("samples", [np.zeros(0), np.array([2.0, 2.0]), np.array([2.5]),
                                         np.array([-2.0]), np.array([0.0])],
                             ids=["empty", "two", "fraction", "negative", "zero"])
    def test_bad_samples_exit_2(self, tmp_path, capsys, samples):
        gram = tmp_path / "g.mgqt"
        write_tensor_file(gram, {"gram": np.eye(2), "samples": samples})
        out = tmp_path / "h.mgqt"
        assert main(["hessian", "--gram", str(gram), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and "g.mgqt" in err[0] and "'samples'" in err[0], err
        assert not out.exists()


class TestTrainCli:
    def test_end_to_end_and_determinism(self, tmp_path, capsys):
        wdir, hdir, calibs, cfg = make_instance(tmp_path)
        p1, p2 = tmp_path / "p1.mgqt", tmp_path / "p2.mgqt"
        rc = main(["train", "--weights", str(wdir), "--hessians", str(hdir),
                   "--config", str(cfg), "--out", str(p1)])
        assert rc == 0
        payload = last_json_line(capsys)
        assert {"l_quant", "l_bit", "total", "hard_mean_bits", "soft_mean_bits"} <= set(payload)
        rc = main(["train", "--weights", str(wdir), "--hessians", str(hdir),
                   "--config", str(cfg), "--out", str(p2)])
        assert rc == 0
        assert p1.read_bytes() == p2.read_bytes()
        log1 = (tmp_path / "p1.mgqt.log").read_text()
        log2 = (tmp_path / "p2.mgqt.log").read_text()
        assert log1 == log2
        assert log1.startswith("epoch\tlayer\t")
        sections = read_tensor_file(p1)
        assert set(sections) == {"w0", "w1", "wc", "bc"}

    # Keys that earlier versions accepted, each with a value of the type it took.
    REMOVED_KEYS = {"damp_frac": 0.1, "precision": "f64", "weights_dir": "w",
                    "hessians_dir": "h", "calib_paths": ["c.mgqt"], "out_path": "p.mgqt",
                    "report_path": "r.json", "log_path": "t.log", "intra_block": False,
                    "symmetrize_adjacency": True, "ffnn_hidden": False, "tau_anneal": True,
                    "hidden": 8, "weight_decay": 0.01, "beta1": 0.9, "beta2": 0.999,
                    "eps": 1e-8}

    @pytest.mark.parametrize("key", sorted(REMOVED_KEYS))
    def test_removed_key_exit_2(self, tmp_path, capsys, key):
        wdir, hdir, _, _ = make_instance(tmp_path, n_layers=1)
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"epochs": 1, "d_gnn": 8,
                                   key: self.REMOVED_KEYS[key]}))
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        rc = main(["train", "--weights", str(wdir), "--hessians", str(hdir),
                   "--config", str(cfg), "--out", str(tmp_path / "p.mgqt")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and f"unknown config keys: {key}" in err[0]
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("flag", ["--weights", "--hessians", "--out"])
    def test_missing_required_flag_usage_error(self, tmp_path, flag):
        wdir, hdir, _, _ = make_instance(tmp_path, n_layers=1)
        flags = {"--weights": str(wdir), "--hessians": str(hdir),
                 "--out": str(tmp_path / "p.mgqt")}
        del flags[flag]
        with pytest.raises(SystemExit) as exc:
            main(["train", *(x for kv in flags.items() for x in kv)])
        assert exc.value.code == 2
        assert not (tmp_path / "p.mgqt").exists()

    def test_epochs_zero_writes_initialized_params(self, tmp_path, capsys):
        wdir, hdir, calibs, _ = make_instance(tmp_path, seed=2)
        cfg = tmp_path / "cfg0.json"
        cfg.write_text(json.dumps({"epochs": 0, "d_gnn": 8, "block_size": 8}))
        out = tmp_path / "p.mgqt"
        assert main(["train", "--weights", str(wdir), "--hessians", str(hdir),
                     "--config", str(cfg), "--out", str(out)]) == 0
        payload = last_json_line(capsys)
        assert payload["l_quant"] is None
        log = (tmp_path / "p.mgqt.log").read_text()
        assert log.strip() == "epoch\tlayer\tl_quant\tl_bit\ttotal\thard_mean_bits\tsoft_mean_bits"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    @pytest.mark.parametrize("key", ["lr", "alpha", "tau"])
    def test_nonfinite_hyperparameter_exit_2(self, tmp_path, capsys, key, value):
        # json.dumps writes the NaN/Infinity tokens json.loads accepts
        wdir, hdir, _, _ = make_instance(tmp_path, n_layers=1)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"epochs": 1, "d_gnn": 8, key: value}))
        out = tmp_path / "p.mgqt"
        rc = main(["train", "--weights", str(wdir), "--hessians", str(hdir),
                   "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and key in err[0]
        assert not out.exists() and not (tmp_path / "p.mgqt.log").exists()

    @pytest.mark.parametrize("epochs", [2, 0])
    @pytest.mark.parametrize("defect", ["1-D weights", "factor below the diagonal"])
    def test_malformed_last_pair_exit_2_before_any_pass(self, tmp_path, capsys, monkeypatch,
                                                        defect, epochs):
        # train reads a pair when it reaches it, so every pair is checked up front
        wdir, hdir, _, _ = make_instance(tmp_path, seed=9, n_layers=3)
        if defect == "1-D weights":
            bad, message = wdir / "L2.mgqt", "'weights' must be 2-D"
            write_tensor_file(bad, {"weights": np.zeros(16, np.float32)})
        else:
            bad, message = hdir / "L2.mgqt", "non-zero entries below the diagonal"
            hc = read_tensor_file(bad)["hessian_cholesky"]
            hc[3, 1] = 0.5
            write_tensor_file(bad, {"hessian_cholesky": hc})
        cfg = tmp_path / "early.json"
        cfg.write_text(json.dumps({"epochs": epochs, "d_gnn": 8, "block_size": 8}))
        passes = []
        forward = training.forward_cached
        monkeypatch.setattr(training, "forward_cached",
                            lambda *a, **k: passes.append(1) or forward(*a, **k))
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        rc = main(["train", "--weights", str(wdir), "--hessians", str(hdir),
                   "--config", str(cfg), "--out", str(tmp_path / "p.mgqt")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and str(bad) in err[0] and message in err[0], err
        assert sorted(tmp_path.rglob("*")) == before
        assert passes == []

    def test_unpaired_files_exit_2(self, tmp_path, capsys):
        wdir, hdir, _, cfg = make_instance(tmp_path, seed=3)
        (hdir / "L1.mgqt").unlink()
        rc = main(["train", "--weights", str(wdir), "--hessians", str(hdir),
                   "--config", str(cfg), "--out", str(tmp_path / "p.mgqt")])
        assert rc == 2
        assert "unpaired" in capsys.readouterr().err


class TestQuantizeCli:
    def make_trained(self, tmp_path, capsys):
        wdir, hdir, calibs, cfg = make_instance(tmp_path)
        params = tmp_path / "params.mgqt"
        assert main(["train", "--weights", str(wdir), "--hessians", str(hdir),
                     "--config", str(cfg), "--out", str(params)]) == 0
        capsys.readouterr()
        return wdir, hdir, calibs, params

    def test_quantize_outputs_and_determinism(self, tmp_path, capsys):
        wdir, hdir, calibs, params = self.make_trained(tmp_path, capsys)
        outs, reports = [], []
        for i in (1, 2):
            out = tmp_path / f"q{i}.mgqt"
            rep = tmp_path / f"r{i}.json"
            rc = main(["quantize", "--weights", str(wdir / "L0.mgqt"),
                       "--hessian", str(hdir / "L0.mgqt"), "--params", str(params),
                       "--block", "8", "--calib", str(calibs[0]),
                       "--out", str(out), "--report", str(rep)])
            assert rc == 0
            outs.append(out.read_bytes())
            r = json.loads(rep.read_text())
            r.pop("timing")
            reports.append(r)
        assert outs[0] == outs[1]
        assert reports[0] == reports[1]

        sections = read_tensor_file(tmp_path / "q1.mgqt")
        assert {"quantized", "codes", "scales", "zeros", "widths"} <= set(sections)
        assert sections["codes"].dtype == np.uint8
        assert sections["widths"].dtype == np.uint8
        # dequantized section lies exactly on the stored grids
        deq = sections["scales"][None, :] * (
            sections["codes"].astype(np.float64) - sections["zeros"][None, :]
        )
        assert np.allclose(sections["quantized"], deq, atol=1e-6)
        payload = last_json_line(capsys)
        assert payload["proxy_loss"] is not None

    def test_report_does_not_depend_on_working_directory(self, tmp_path, capsys, monkeypatch):
        # the report echoes the parameter file's name, not the path as typed
        wdir, hdir, calibs, params = self.make_trained(tmp_path, capsys)
        (tmp_path / "sub").mkdir()
        reports = []
        for cwd, typed in ((tmp_path, "params.mgqt"), (tmp_path / "sub", "../params.mgqt")):
            monkeypatch.chdir(cwd)
            rep = cwd / "r.json"
            assert main(["quantize", "--weights", str(wdir / "L0.mgqt"),
                         "--hessian", str(hdir / "L0.mgqt"), "--params", typed,
                         "--block", "8", "--calib", str(calibs[0]),
                         "--out", str(cwd / "q.mgqt"), "--report", str(rep)]) == 0
            r = json.loads(rep.read_text())
            r.pop("timing")
            reports.append(r)
        assert reports[0] == reports[1]
        assert reports[0]["config"]["params"] == "params.mgqt"

    def quantize_with_params(self, tmp_path, capsys, sections):
        """Exit code, stdout, stderr lines and output path of ``quantize`` with these params."""
        tmp_path.mkdir(exist_ok=True)
        wdir, hdir, _, _ = make_instance(tmp_path)
        capsys.readouterr()
        ppath = tmp_path / "odd_params.mgqt"
        write_tensor_file(ppath, sections)
        out = tmp_path / "q.mgqt"
        rc = main(["quantize", "--weights", str(wdir / "L0.mgqt"),
                   "--hessian", str(hdir / "L0.mgqt"), "--params", str(ppath),
                   "--block", "8", "--out", str(out)])
        captured = capsys.readouterr()
        return rc, captured.out, captured.err.strip().splitlines(), out

    def test_params_missing_section_names_file(self, tmp_path, capsys):
        rc, out, err, q = self.quantize_with_params(tmp_path, capsys, {"w0": np.zeros((8, 8))})
        assert rc == 2 and out == "" and not q.exists()
        assert len(err) == 1 and "odd_params.mgqt" in err[0] and "'w1'" in err[0], err

    def test_old_params_flags_section(self, tmp_path, capsys):
        # files from before the flags or the wf/bf sections were dropped are
        # refused, flags 0 or not; so are sections of the wrong rank or not
        # float, and a head over more widths than a one-byte code holds
        params = params_to_sections(init_allocator_params(8, 8, 4, np.random.default_rng(0)))
        assert self.quantize_with_params(tmp_path / "new", capsys, params)[0] == 0
        cases = [
            ("flags", {"flags": np.array([0], np.uint8)}),
            ("wf", {"wf": np.zeros((8, 8)), "bf": np.zeros(8)}),
            ("wc", {"wc": params["wc"][:, 0]}),
            ("w0", {"w0": params["w0"][0]}),
            ("w0", {"w0": params["w0"][None]}),
            ("bc", {"bc": params["bc"][:, None]}),
            ("t_max", {"wc": np.zeros((8, 9)), "bc": np.zeros(9)}),
            ("uint8", {k: v.astype(np.uint8) for k, v in params.items()}),
        ]
        for i, (section, change) in enumerate(cases):
            rc, out, err, q = self.quantize_with_params(
                tmp_path / f"old{i}", capsys, {**params, **change}
            )
            assert rc == 2 and out == "" and not q.exists()
            assert len(err) == 1 and err[0].count("odd_params.mgqt") == 1, err
            assert section in err[0], err

    def test_representable_fixture_zero_proxy_and_identity_oracle(self, tmp_path, capsys):
        # allocator parameters pinned so every column gets 3 bits; weights
        # constructed exactly on 3-bit grids; identity hessian
        from mgquant.quant import quantize

        rng = np.random.default_rng(6)
        d_row, d_col = 16, 10
        codes = rng.integers(0, 8, size=(d_row, d_col))
        codes[0, :] = 0
        codes[1, :] = 7
        w = (0.25 * codes).astype(np.float64)
        wpath, hpath, cpath, ppath = (
            tmp_path / n for n in ("w.mgqt", "h.mgqt", "c.mgqt", "p.mgqt")
        )
        write_tensor_file(wpath, {"weights": w})
        write_tensor_file(hpath, {"hessian_cholesky": np.eye(d_col)})
        write_tensor_file(cpath, {"x": np.eye(d_col)})
        write_tensor_file(ppath, {
            "w0": np.zeros((8, 8)), "w1": np.zeros((8, 8)),
            "wc": np.zeros((8, 4)), "bc": np.array([0.0, 0.0, 10.0, 0.0]),
        })
        rep = tmp_path / "rep.json"
        out = tmp_path / "q.mgqt"
        rc = main(["quantize", "--weights", str(wpath), "--hessian", str(hpath),
                   "--params", str(ppath), "--block", "4", "--precision", "f64",
                   "--calib", str(cpath), "--out", str(out), "--report", str(rep)])
        assert rc == 0
        report = json.loads(rep.read_text())
        assert report["layers"][0]["proxy_loss"] == 0.0
        assert report["layers"][0]["bit_histogram"] == [0, 0, d_col, 0]
        sections = read_tensor_file(out)
        assert np.array_equal(sections["quantized"], w)
        # identity hessian: output equals the per-column quantization oracle
        for j in range(d_col):
            oracle = quantize(w[:, j], 3)[0]
            assert np.array_equal(sections["quantized"][:, j], oracle)

    @pytest.mark.parametrize("command", ["quantize", "rtn", "gptq-uniform", "mlp-ptq", "train"])
    def test_factor_size_mismatch_exit_2_names_both_files(self, tmp_path, capsys, monkeypatch,
                                                          command):
        def ran(*args, **kwargs):
            raise AssertionError("the engine or training ran")

        # `train` checks its pairs inside training.train, before the first pass
        patched = [("pipeline", "quantize_blockwise"), ("baselines", "quantize_blockwise"),
                   ("baselines", "quantize_rtn_matrix"), ("training", "quantize_blockwise")]
        if command != "train":
            patched += [("baselines", "train"), ("training", "train")]
        for module, name in patched:
            monkeypatch.setattr(importlib.import_module(f"mgquant.{module}"), name, ran)
        wdir, hdir = tmp_path / "weights", tmp_path / "hessians"
        wdir.mkdir()
        hdir.mkdir()
        weights, factor, params, calib = (
            wdir / "L0.mgqt", hdir / "L0.mgqt", tmp_path / "p.mgqt", tmp_path / "c.mgqt"
        )
        write_tensor_file(weights, {"weights": np.ones((24, 12), np.float32)})
        write_tensor_file(factor, {"hessian_cholesky": np.eye(16)})
        write_tensor_file(params, params_to_sections(
            init_allocator_params(8, 8, 4, np.random.default_rng(0))))
        write_tensor_file(calib, {"x": np.ones((4, 12))})
        layer = ["--weights", weights, "--hessian", factor, "--calib", calib,
                 "--out", tmp_path / "q.mgqt", "--report", tmp_path / "r.json"]
        if command == "quantize":
            argv = ["quantize", "--params", params, *layer]
        elif command == "train":
            argv = ["train", "--weights", wdir, "--hessians", hdir, "--out", tmp_path / "q.mgqt"]
        else:
            argv = ["baseline", "--method", command, *layer]
        err = refused(capsys, tmp_path, argv)
        assert f"{factor}: factor (16, 16) does not match the 12 columns of {weights}" in err, err

    def test_report_has_both_timings(self, tmp_path, capsys):
        wdir, hdir, calibs, params = self.make_trained(tmp_path, capsys)
        rep = tmp_path / "r.json"
        assert main(["quantize", "--weights", str(wdir / "L0.mgqt"),
                     "--hessian", str(hdir / "L0.mgqt"), "--params", str(params),
                     "--block", "8", "--out", str(tmp_path / "q.mgqt"),
                     "--report", str(rep)]) == 0
        timing = json.loads(rep.read_text())["timing"]["layers"][0]
        assert "allocator_time" in timing and "engine_time" in timing

    def test_seed_flag_usage_error(self, tmp_path, capsys):
        # the report's seed is fixed at 0; quantize is deterministic without one
        wdir, hdir, calibs, params = self.make_trained(tmp_path, capsys)
        out = tmp_path / "q.mgqt"
        with pytest.raises(SystemExit) as exc:
            main(["quantize", "--weights", str(wdir / "L0.mgqt"), "--hessian",
                  str(hdir / "L0.mgqt"), "--params", str(params), "--seed", "3",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_quantize_and_baseline_share_one_output_path(self, tmp_path, capsys):
        wdir, hdir, calibs, params = self.make_trained(tmp_path, capsys)
        layer = ["--weights", str(wdir / "L0.mgqt"), "--hessian", str(hdir / "L0.mgqt"),
                 "--calib", str(calibs[0])]
        runs = {
            "quantize": ["quantize", *layer, "--params", str(params), "--block", "8"],
            "baseline": ["baseline", "--method", "gptq-uniform", *layer],
        }
        reports, payloads = {}, {}
        for name, argv in runs.items():
            rep = tmp_path / f"{name}.json"
            assert main([*argv, "--out", str(tmp_path / f"{name}.mgqt"),
                         "--report", str(rep)]) == 0
            payloads[name] = last_json_line(capsys)
            reports[name] = json.loads(rep.read_text())
        q, b = reports["quantize"], reports["baseline"]
        assert set(q) == set(b)
        assert set(q["layers"][0]) == set(b["layers"][0])
        assert set(q["timing"]) == set(b["timing"]) == {"layers", "total_wall_time"}
        assert set(q["timing"]["layers"][0]) == set(b["timing"]["layers"][0]) == {
            "name", "allocator_time", "engine_time", "wall_time"}
        assert set(payloads["quantize"]) == {"out", "report", "mean_bits", "proxy_loss"}
        assert set(payloads["baseline"]) == set(payloads["quantize"]) | {"method"}
        for name in runs:
            assert payloads[name]["mean_bits"] == reports[name]["layers"][0]["mean_bits"]
            assert payloads[name]["proxy_loss"] == reports[name]["layers"][0]["proxy_loss"]


class TestOneLossPerCommand:
    """`quantize` and `baseline` print exactly the proxy loss that `eval` prints
    for the file each wrote, in row order (m <= m*) and through the Gram."""

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("rows", [40, 4000])
    def test_quantize_and_baseline_match_eval(self, tmp_path, capsys, rows, precision):
        d_row, d_col = 64, 48
        assert (rows > gram_break_even(d_row, d_col)) == (rows == 4000)
        rng = np.random.default_rng(rows)
        dtype = np.float32 if precision == "f32" else np.float64
        files = {n: str(tmp_path / f"{n}.mgqt") for n in ("w", "c0", "c1", "g", "h", "p")}
        write_tensor_file(files["w"], {"weights": (0.01 * rng.standard_normal((d_row, d_col)))
                                       .astype(dtype)})
        x = 0.05 * rng.standard_normal((rows, d_col))
        write_tensor_file(files["c0"], {"a": x[:7], "b": x[7:rows // 2]})
        write_tensor_file(files["c1"], {"a": x[rows // 2:]})
        calib = ["--calib", files["c0"], files["c1"]]
        assert main(["gram", *calib, "--out", files["g"]]) == 0
        assert main(["hessian", "--gram", files["g"], "--out", files["h"]]) == 0
        write_tensor_file(files["p"], params_to_sections(init_allocator_params(8, 8, 4, rng)))
        layer = ["--weights", files["w"], "--hessian", files["h"], *calib]
        runs = {
            "quantize": ["quantize", *layer, "--params", files["p"], "--block", "16",
                         "--precision", precision],
            "baseline": ["baseline", "--method", "gptq-uniform", *layer],
        }
        for name, argv in runs.items():
            out = str(tmp_path / f"{name}_q.mgqt")
            capsys.readouterr()
            assert main([*argv, "--out", out]) == 0
            printed = last_json_line(capsys)["proxy_loss"]
            assert main(["eval", "--orig", files["w"], "--quant", out, *calib]) == 0
            assert printed > 0 and printed == last_json_line(capsys)["proxy_loss"], name

    def test_quantize_f32_on_float64_weights_matches_eval(self, tmp_path, capsys):
        # the engine runs on the f32-rounded weights; the loss is taken
        # against the stored float64 ones, as eval takes it
        rng = np.random.default_rng(400)
        files = {n: str(tmp_path / f"{n}.mgqt") for n in ("w", "c", "g", "h", "p", "q")}
        write_tensor_file(files["w"], {"weights": 0.01 * rng.standard_normal((64, 48))})
        write_tensor_file(files["c"], {"x": 0.05 * rng.standard_normal((400, 48))})
        calib = ["--calib", files["c"]]
        assert main(["gram", *calib, "--out", files["g"]]) == 0
        assert main(["hessian", "--gram", files["g"], "--out", files["h"]]) == 0
        write_tensor_file(files["p"], params_to_sections(init_allocator_params(8, 8, 4, rng)))
        capsys.readouterr()
        assert main(["quantize", "--weights", files["w"], "--hessian", files["h"], *calib,
                     "--params", files["p"], "--block", "16", "--precision", "f32",
                     "--out", files["q"]]) == 0
        printed = last_json_line(capsys)["proxy_loss"]
        assert read_tensor_file(files["q"])["quantized"].dtype == np.float32
        assert main(["eval", "--orig", files["w"], "--quant", files["q"], *calib]) == 0
        assert printed > 0 and printed == last_json_line(capsys)["proxy_loss"]


class TestEmptyWeights:
    @pytest.mark.parametrize("shape", [(0, 8), (4, 0)], ids=["0x8", "4x0"])
    @pytest.mark.parametrize("command", ["quantize", "baseline", "eval", "train"])
    def test_zero_dimension_exit_2_names_file(self, tmp_path, capsys, monkeypatch,
                                              command, shape):
        # refused as the file loads: no pass, no output, one line naming it
        wdir, hdir = tmp_path / "weights", tmp_path / "hessians"
        wdir.mkdir()
        hdir.mkdir()
        weights, factor = wdir / "L0.mgqt", hdir / "L0.mgqt"
        write_tensor_file(weights, {"weights": np.zeros(shape, np.float32)})
        write_tensor_file(factor, {"hessian_cholesky": np.eye(shape[1])})
        calib, params, quant = tmp_path / "c.mgqt", tmp_path / "p.mgqt", tmp_path / "q.mgqt"
        write_tensor_file(calib, {"x": np.ones((4, shape[1]))})
        write_tensor_file(params, params_to_sections(
            init_allocator_params(8, 8, 4, np.random.default_rng(0))))
        write_tensor_file(quant, {"quantized": np.zeros(shape)})
        out, rep = tmp_path / "out.mgqt", tmp_path / "r.json"
        layer = ["--weights", str(weights), "--hessian", str(factor), "--calib", str(calib),
                 "--out", str(out), "--report", str(rep)]
        argv = {
            "quantize": ["quantize", "--params", str(params), *layer],
            "baseline": ["baseline", "--method", "rtn", *layer],
            "eval": ["eval", "--orig", str(weights), "--quant", str(quant),
                     "--calib", str(calib), "--report", str(rep)],
            "train": ["train", "--weights", str(wdir), "--hessians", str(hdir),
                      "--out", str(out)],
        }[command]
        passes = []
        forward = training.forward_cached
        monkeypatch.setattr(training, "forward_cached",
                            lambda *a, **k: passes.append(1) or forward(*a, **k))
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and str(weights) in err[0], err
        assert "at least one row and one column" in err[0], err
        assert sorted(tmp_path.rglob("*")) == before
        assert passes == []


class TestLowerFactorRejected:
    def test_transposed_factor_exit_2(self, tmp_path, capsys):
        wdir, hdir, calibs, cfg = make_instance(tmp_path, seed=8)
        capsys.readouterr()
        for hpath in hdir.glob("*.mgqt"):
            hc = read_tensor_file(hpath)["hessian_cholesky"]
            write_tensor_file(hpath, {"hessian_cholesky": hc.T.copy()})
        params = tmp_path / "p.mgqt"
        write_tensor_file(params, {
            "w0": np.zeros((8, 8)), "w1": np.zeros((8, 8)),
            "wc": np.zeros((8, 4)), "bc": np.zeros(4),
        })
        layer = ["--weights", str(wdir / "L0.mgqt"), "--hessian", str(hdir / "L0.mgqt")]
        runs = {
            "train": ["train", "--weights", str(wdir), "--hessians", str(hdir),
                      "--config", str(cfg), "--out", str(tmp_path / "t.mgqt")],
            "quantize": ["quantize", *layer, "--params", str(params),
                         "--out", str(tmp_path / "q.mgqt")],
            "baseline": ["baseline", "--method", "gptq-uniform", *layer,
                         "--config", str(cfg), "--out", str(tmp_path / "b.mgqt")],
        }
        for name, argv in runs.items():
            assert main(argv) == 2, name
            captured = capsys.readouterr()
            assert captured.out == ""
            err = captured.err.strip().split("\n")
            assert len(err) == 1 and "below the diagonal" in err[0], name
            assert not (tmp_path / f"{name[0]}.mgqt").exists()

    @pytest.mark.parametrize("entry", [(1, 0), (128, 127), (129, 128), (200, 3), (299, 298), None])
    def test_one_entry_below_the_diagonal_exit_2(self, tmp_path, capsys, entry):
        # the check reads 128 rows at a time: entries in each block and across an edge
        hc = np.eye(300)
        hc[0, 299] = 0.5
        if entry:
            hc[entry] = 1e-300
        write_tensor_file(tmp_path / "h.mgqt", {"hessian_cholesky": hc})
        write_tensor_file(tmp_path / "w.mgqt", {"weights": np.zeros((4, 300))})
        rc = main(["quantize", "--weights", str(tmp_path / "w.mgqt"), "--hessian",
                   str(tmp_path / "h.mgqt"), "--params", str(tmp_path / "missing.mgqt"),
                   "--out", str(tmp_path / "q.mgqt")])
        err = capsys.readouterr().err
        assert rc == 2
        assert ("below the diagonal" in err) == (entry is not None), err


def refused(capsys, tmp_path, argv, code=2) -> str:
    """Run ``argv``, check it exits ``code`` with one stderr line, no stdout and
    no file written under ``tmp_path``, and return that line."""
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main([str(a) for a in argv]) == code, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1, err
    assert sorted(tmp_path.rglob("*")) == before
    return err[0]


class TestFactorDiagonal:
    @pytest.mark.parametrize("value", [0.0, -0.5], ids=["zero", "negative"])
    @pytest.mark.parametrize("command", ["quantize", "baseline", "train"])
    def test_non_positive_entry_exit_2_names_file(self, tmp_path, capsys, command, value):
        wdir, hdir, calibs, cfg = make_instance(tmp_path, seed=10, n_layers=1)
        factor = hdir / "L0.mgqt"
        hc = read_tensor_file(factor)["hessian_cholesky"]
        hc[2, 2] = value
        write_tensor_file(factor, {"hessian_cholesky": hc})
        params = tmp_path / "p.mgqt"
        write_tensor_file(params, params_to_sections(
            init_allocator_params(8, 8, 4, np.random.default_rng(0))))
        layer = ["--weights", wdir / "L0.mgqt", "--hessian", factor, "--calib", calibs[0],
                 "--out", tmp_path / "out.mgqt", "--report", tmp_path / "r.json"]
        argv = {
            "quantize": ["quantize", "--params", params, *layer],
            "baseline": ["baseline", "--method", "gptq-uniform", "--config", cfg, *layer],
            "train": ["train", "--weights", wdir, "--hessians", hdir, "--config", cfg,
                      "--out", tmp_path / "out.mgqt"],
        }[command]
        err = refused(capsys, tmp_path, argv)
        assert f"{factor}: 'hessian_cholesky' diagonal must be positive (entry 2)" in err, err


class TestFloatSections:
    @pytest.mark.parametrize("command", ["quantize", "baseline", "eval", "eval-quantized",
                                         "train"])
    def test_u8_section_exit_2_names_file_and_dtype(self, tmp_path, capsys, command):
        wdir, hdir, calibs, cfg = make_instance(tmp_path, seed=11, n_layers=1)
        weights, factor = wdir / "L0.mgqt", hdir / "L0.mgqt"
        w = read_tensor_file(weights)["weights"]
        quant = tmp_path / "q.mgqt"
        write_tensor_file(quant, {"quantized": w})
        bad, name = (quant, "quantized") if command == "eval-quantized" else (weights, "weights")
        write_tensor_file(bad, {name: np.arange(w.size, dtype=np.uint8).reshape(w.shape)})
        params = tmp_path / "p.mgqt"
        write_tensor_file(params, params_to_sections(
            init_allocator_params(8, 8, 4, np.random.default_rng(0))))
        layer = ["--weights", weights, "--hessian", factor, "--calib", calibs[0],
                 "--out", tmp_path / "out.mgqt", "--report", tmp_path / "r.json"]
        argv = {
            "quantize": ["quantize", "--params", params, *layer],
            "baseline": ["baseline", "--method", "rtn", *layer],
            "eval": ["eval", "--orig", weights, "--quant", quant, "--calib", calibs[0],
                     "--report", tmp_path / "r.json"],
            "train": ["train", "--weights", wdir, "--hessians", hdir, "--config", cfg,
                      "--out", tmp_path / "out.mgqt"],
        }[command.split("-")[0]]
        err = refused(capsys, tmp_path, argv)
        assert f"{bad}: '{name}' must be float32 or float64, got uint8" in err, err


class TestContentsNameTheirFile:
    """A bad ``--calib`` section, or a Gram whose contents cannot be factored,
    is refused with a message that names its file."""

    @pytest.mark.parametrize("command, fault", [
        ("gram", "u8"), ("quantize", "u8"), ("baseline", "u8"), ("eval", "u8"),
        ("quantize", "columns"), ("baseline", "columns"), ("eval", "columns"),
        ("gram", "no rows"), ("quantize", "no rows"), ("baseline", "no rows"),
        ("eval", "no rows"), ("gram", "no columns"), ("quantize", "no columns"),
        ("baseline", "no columns"), ("eval", "no columns"),
    ])
    def test_bad_calibration_section_exit_2(self, tmp_path, capsys, command, fault):
        wdir, hdir, _, _ = make_instance(tmp_path, seed=13, d_col=3, n_layers=1)
        weights = wdir / "L0.mgqt"
        quant = tmp_path / "q.mgqt"
        write_tensor_file(quant, {"quantized": read_tensor_file(weights)["weights"]})
        params = tmp_path / "p.mgqt"
        write_tensor_file(params, params_to_sections(
            init_allocator_params(8, 8, 4, np.random.default_rng(0))))
        calib = tmp_path / "bad_calib.mgqt"
        if fault == "u8":
            write_tensor_file(calib, {"x": np.arange(15, dtype=np.uint8).reshape(5, 3)})
            expected = f"{calib}: section 'x' must be float32 or float64, got uint8"
        elif fault == "columns":
            write_tensor_file(calib, {"x": np.ones((5, 4))})
            expected = f"{calib}: section 'x' has 4 columns, expected 3"
        elif fault == "no columns":
            write_tensor_file(calib, {"x": np.ones((5, 0))})
            expected = f"{calib}: section 'x' has no columns, got (5, 0)"
        else:
            write_tensor_file(calib, {"x": np.ones((0, 3)), "y": np.ones((0, 3))})
            expected = f"{calib}: calibration files hold no rows"
        layer = ["--weights", weights, "--hessian", hdir / "L0.mgqt", "--calib", calib,
                 "--out", tmp_path / "out.mgqt", "--report", tmp_path / "r.json"]
        argv = {
            "gram": ["gram", "--calib", calib, "--out", tmp_path / "g.mgqt"],
            "quantize": ["quantize", "--params", params, *layer],
            "baseline": ["baseline", "--method", "rtn", *layer],
            "eval": ["eval", "--orig", weights, "--quant", quant, "--calib", calib,
                     "--report", tmp_path / "r.json"],
        }[command]
        assert refused(capsys, tmp_path, argv).endswith(expected)

    @pytest.mark.parametrize("fault", ["u8", "1-D", "columns", "missing", "no rows"])
    @pytest.mark.parametrize("command", ["quantize", "rtn", "mlp-ptq"])
    def test_bad_calibration_file_refused_before_the_engine(self, tmp_path, capsys, monkeypatch,
                                                            command, fault):
        def engine(*args, **kwargs):
            raise AssertionError("the engine ran")

        for module in ("pipeline", "baselines", "training"):
            monkeypatch.setattr(importlib.import_module(f"mgquant.{module}"),
                                "quantize_blockwise", engine)
        wdir, hdir, _, cfg = make_instance(tmp_path, seed=14, d_col=3, n_layers=1)
        params = tmp_path / "p.mgqt"
        write_tensor_file(params, params_to_sections(
            init_allocator_params(8, 8, 4, np.random.default_rng(0))))
        calib = tmp_path / "bad_calib.mgqt"
        good = {"a": np.ones((5, 3), dtype=np.float32)}
        expected = {
            "u8": "section 'x' must be float32 or float64, got uint8",
            "1-D": "section 'x' must be 2-D, got (15,)",
            "columns": "section 'x' has 4 columns, expected 3",
            "missing": "No such file or directory",
            "no rows": "calibration files hold no rows",
        }[fault]
        bad = {"u8": np.ones((5, 3), dtype=np.uint8), "1-D": np.ones(15),
               "columns": np.ones((5, 4))}.get(fault)
        if bad is not None:
            write_tensor_file(calib, {**good, "x": bad})
        elif fault == "no rows":
            write_tensor_file(calib, {"a": np.ones((0, 3), dtype=np.float32)})
        layer = ["--weights", wdir / "L0.mgqt", "--hessian", hdir / "L0.mgqt",
                 "--calib", calib, "--out", tmp_path / "out.mgqt", "--report", tmp_path / "r.json"]
        if command == "quantize":
            argv = ["quantize", "--params", params, *layer]
        else:
            argv = ["baseline", "--method", command, "--config", cfg, *layer]
        err = refused(capsys, tmp_path, argv)
        assert expected in err and str(calib) in err, err

    @pytest.mark.parametrize("gram, code, expected", [
        (np.ones((3, 4)), 2, "gram must be square and non-empty, got shape (3, 4)"),
        (np.array([[2.0, 1.0], [0.0, 2.0]]), 2, "matrix is not symmetric"),
        (np.diag([1.0, -4.0]), 4, "damped Gram is not positive definite at pivot 1"),
    ], ids=["not-square", "not-symmetric", "not-positive-definite"])
    def test_bad_gram_names_file(self, tmp_path, capsys, gram, code, expected):
        path = tmp_path / "g.mgqt"
        write_tensor_file(path, {"gram": gram, "samples": np.array([2.0])})
        err = refused(capsys, tmp_path, ["hessian", "--gram", path, "--damp", "0.0",
                                         "--out", tmp_path / "h.mgqt"], code)
        assert f"{path}: {expected}" in err, err


def raw_tensor_file(path, arr: np.ndarray, name: str = "x") -> None:
    """Write ``arr`` as a one-section container, with none of the writer's checks."""
    code = {np.dtype("<f4"): 0, np.dtype("<f8"): 1, np.dtype("u1"): 2}[arr.dtype]
    header = MAGIC + struct.pack("<BHB", VERSION, 1, len(name)) + name.encode()
    dims = struct.pack(f"<BB{arr.ndim}Q", code, arr.ndim, *arr.shape)
    Path(path).write_bytes(header + dims + arr.tobytes())


# Each turns a valid (rows, cols) float64 calibration section into the array
# stored, or (for "truncate") into None; only the two float casts stay valid.
CALIB_MUTATIONS = {
    "float32": lambda x: x.astype(np.float32),
    "float64": lambda x: x,
    "uint8": lambda x: np.abs(x).astype(np.uint8),
    "0 rows": lambda x: x[:0],
    "0 columns": lambda x: x[:, :0],
    "1-D": lambda x: x.reshape(-1),
    "3-D": lambda x: x.reshape(1, *x.shape),
    "truncate": lambda x: None,
    "NaN": lambda x: np.where(np.arange(x.size).reshape(x.shape) == x.size // 2, np.nan, x),
    "Inf": lambda x: np.where(np.arange(x.size).reshape(x.shape) == 0, -np.inf, x),
}


@settings(max_examples=100, deadline=None)
@given(x=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5)),
                elements=st.floats(-4.0, 4.0)),
       mutation=st.sampled_from(sorted(CALIB_MUTATIONS)),
       cut=st.floats(0.0, 1.0, exclude_max=True))
def test_gram_calib_boundary(tmp_path_factory, x, mutation, cut):
    """``gram --calib`` on one mutated file: exit 0 with one JSON line, or exit
    2, 3 or 4 with one stderr line naming the file, no stdout and no output."""
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
        calib, out = Path(tmp) / "calib.mgqt", Path(tmp) / "gram.mgqt"
        stored = CALIB_MUTATIONS[mutation](x)
        if stored is None:
            raw_tensor_file(calib, x)
            blob = calib.read_bytes()
            calib.write_bytes(blob[: int(cut * len(blob))])
        else:
            raw_tensor_file(calib, stored)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(["gram", "--calib", str(calib), "--out", str(out)])
        if rc == 0:
            assert stderr.getvalue() == "" and out.is_file()
            (line,) = stdout.getvalue().splitlines()
            assert json.loads(line)["samples"] == x.shape[0]
        else:
            assert rc in (2, 3, 4)
            assert stdout.getvalue() == "" and not out.exists()
            (line,) = stderr.getvalue().splitlines()
            assert str(calib) in line, line
        assert (rc == 0) == (mutation in ("float32", "float64")), (mutation, rc)


class TestFileMode:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_written_files_take_the_umask(self, tmp_path, capsys, umask, mode):
        wdir, hdir, calibs, cfg = make_instance(tmp_path, seed=12, n_layers=1)
        params, quant, report = (tmp_path / n for n in ("p.mgqt", "q.mgqt", "r.json"))
        previous = os.umask(umask)
        try:
            assert main(["train", "--weights", str(wdir), "--hessians", str(hdir),
                         "--config", str(cfg), "--out", str(params)]) == 0
            assert main(["quantize", "--weights", str(wdir / "L0.mgqt"),
                         "--hessian", str(hdir / "L0.mgqt"), "--params", str(params),
                         "--out", str(quant), "--report", str(report)]) == 0
        finally:
            os.umask(previous)
        for path in (params, Path(f"{params}.log"), quant, report):
            assert stat.S_IMODE(path.stat().st_mode) == mode, path


class TestBlasThreadCount:
    def test_train_and_quantize_bytes_independent_of_threads(self, tmp_path):
        rng = np.random.default_rng(21)
        d = 256
        wdir, hdir = tmp_path / "weights", tmp_path / "hessians"
        wdir.mkdir()
        hdir.mkdir()
        w = (0.01 * rng.standard_normal((d, d))).astype(np.float32)
        write_tensor_file(wdir / "L0.mgqt", {"weights": w})
        x = 0.05 * rng.standard_normal((2 * d, d))
        hc = build_hessian_cholesky(GramAccumulator(d_col=d).accumulate(x).gram, 0.01)
        write_tensor_file(hdir / "L0.mgqt", {"hessian_cholesky": hc})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "epochs": 2, "d_gnn": 8, "block_size": 64, "seed": 3,
            "target_bits": 2.5,
        }))
        outputs = []
        for threads in ("1", "2"):
            env = src_env(OPENBLAS_NUM_THREADS=threads)
            params, quant = tmp_path / f"p{threads}.mgqt", tmp_path / f"q{threads}.mgqt"
            for argv in (
                ["train", "--weights", str(wdir), "--hessians", str(hdir),
                 "--config", str(cfg), "--out", str(params)],
                ["quantize", "--weights", str(wdir / "L0.mgqt"),
                 "--hessian", str(hdir / "L0.mgqt"), "--params", str(params),
                 "--out", str(quant)],
            ):
                proc = subprocess.run([sys.executable, "-m", "mgquant", *argv], env=env,
                                      capture_output=True, text=True, timeout=300)
                assert proc.returncode == 0, proc.stderr
            outputs.append([p.read_bytes() for p in
                            (params, Path(str(params) + ".log"), quant)])
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
        assert outputs[0][2] == outputs[1][2]

    def test_gram_and_hessian_bytes_independent_of_threads(self, tmp_path):
        rng = np.random.default_rng(22)
        calib = tmp_path / "calib.mgqt"
        write_tensor_file(calib, {"x": 0.05 * rng.standard_normal((512, 256))})
        outputs = []
        for threads in ("1", "2"):
            env = src_env(OPENBLAS_NUM_THREADS=threads)
            gram, factor = tmp_path / f"g{threads}.mgqt", tmp_path / f"h{threads}.mgqt"
            for argv in (
                ["gram", "--calib", str(calib), "--out", str(gram)],
                ["hessian", "--gram", str(gram), "--damp", "0.01", "--out", str(factor)],
            ):
                proc = subprocess.run([sys.executable, "-m", "mgquant", *argv], env=env,
                                      capture_output=True, text=True, timeout=300)
                assert proc.returncode == 0, proc.stderr
            outputs.append([gram.read_bytes(), factor.read_bytes()])
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]

    def test_gram_and_hessian_bytes_independent_of_threads_past_full_chunks(self, tmp_path):
        # more than two full Gram chunks plus a remainder, on a factor that recurses
        assert 4133 > 2 * CHUNK_ROWS
        rng = np.random.default_rng(23)
        calib = tmp_path / "calib.mgqt"
        write_tensor_file(calib, {"x": 0.05 * rng.standard_normal((4133, 192))})
        outputs = []
        for threads in ("1", "2"):
            env = src_env(OPENBLAS_NUM_THREADS=threads)
            gram, factor = tmp_path / f"g{threads}.mgqt", tmp_path / f"h{threads}.mgqt"
            for argv in (
                ["gram", "--calib", str(calib), "--out", str(gram)],
                ["hessian", "--gram", str(gram), "--damp", "0.01", "--out", str(factor)],
            ):
                proc = subprocess.run([sys.executable, "-m", "mgquant", *argv], env=env,
                                      capture_output=True, text=True, timeout=300)
                assert proc.returncode == 0, proc.stderr
            outputs.append([gram.read_bytes(), factor.read_bytes()])
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]


class TestBaselineCli:
    def test_rtn_and_uniform(self, tmp_path, capsys):
        # widths past the config's t_max (4) are counted in the histogram too
        wdir, hdir, calibs, cfg = make_instance(tmp_path, seed=4)
        for method in ("rtn", "gptq-uniform"):
            for bits in (2, 5, 8):
                rep = tmp_path / f"{method}{bits}.json"
                rc = main(["baseline", "--method", method, "--bits", str(bits),
                           "--weights", str(wdir / "L0.mgqt"), "--hessian", str(hdir / "L0.mgqt"),
                           "--calib", str(calibs[0]), "--config", str(cfg),
                           "--out", str(tmp_path / f"{method}{bits}.mgqt"), "--report", str(rep)])
                assert rc == 0
                payload = last_json_line(capsys)
                assert payload["method"] == method
                assert payload["mean_bits"] == bits
                report = json.loads(rep.read_text())
                assert report["config"]["method"] == method
                (layer,) = report["layers"]
                hist = [0] * max(4, bits)
                hist[bits - 1] = layer["cols"]
                assert layer["bit_histogram"] == hist

    def test_overflowing_column_exit_2(self, tmp_path, capsys):
        weights, hessian = tmp_path / "w.mgqt", tmp_path / "h.mgqt"
        w = np.array([[0.1, 1e308], [0.2, -1e308], [0.3, 0.0]])
        write_tensor_file(weights, {"weights": w})
        write_tensor_file(hessian, {"hessian_cholesky": np.eye(2)})
        out = tmp_path / "b.mgqt"
        rc = main(["baseline", "--method", "rtn", "--bits", "2", "--weights", str(weights),
                   "--hessian", str(hessian), "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error: cannot quantize")
        assert not out.exists()

    def test_unknown_method_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["baseline", "--method", "awq", "--weights", "w", "--hessian", "h"])
        assert exc.value.code == 2


class TestEvalCli:
    def test_hand_computed_proxy(self, tmp_path, capsys):
        orig, quant, calib = (tmp_path / n for n in ("o.mgqt", "q.mgqt", "c.mgqt"))
        write_tensor_file(orig, {"weights": np.array([[1.0, 2.0], [3.0, 4.0]])})
        write_tensor_file(quant, {"quantized": np.array([[0.5, 2.0], [3.0, 4.0]])})
        write_tensor_file(calib, {"x": np.eye(2)})
        rc = main(["eval", "--orig", str(orig), "--quant", str(quant),
                   "--calib", str(calib), "--report", str(tmp_path / "r.json")])
        assert rc == 0
        payload = last_json_line(capsys)
        assert payload["proxy_loss"] == pytest.approx(0.125, abs=1e-12)
        assert payload["max_abs_error"] == pytest.approx(0.5)

    def test_identical_files_zero_loss(self, tmp_path, capsys):
        orig, quant, calib = (tmp_path / n for n in ("o.mgqt", "q.mgqt", "c.mgqt"))
        w = np.random.default_rng(0).standard_normal((3, 4))
        write_tensor_file(orig, {"weights": w})
        write_tensor_file(quant, {"quantized": w})
        write_tensor_file(calib, {"x": np.eye(4)})
        assert main(["eval", "--orig", str(orig), "--quant", str(quant),
                     "--calib", str(calib)]) == 0
        assert last_json_line(capsys)["proxy_loss"] == 0.0

    def test_missing_calib_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--orig", "a", "--quant", "b"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("shape", [(6,), (2, 3)], ids=["1-D", "2-D"])
    def test_prints_loss_and_paths_only(self, tmp_path, capsys, shape):
        # the width summary lives in the quantize report, sized by t_max
        orig, quant, calib = (tmp_path / n for n in ("o.mgqt", "q.mgqt", "c.mgqt"))
        w = np.random.default_rng(3).standard_normal((4, 6))
        widths = np.array([1, 3, 3, 1, 3, 3], dtype=np.uint8).reshape(shape)
        write_tensor_file(orig, {"weights": w})
        write_tensor_file(quant, {"quantized": np.round(w), "widths": widths})
        write_tensor_file(calib, {"x": np.eye(6)})
        rep = tmp_path / "r.json"
        assert main(["eval", "--orig", str(orig), "--quant", str(quant),
                     "--calib", str(calib), "--report", str(rep)]) == 0
        payload = last_json_line(capsys)
        assert set(payload) == {"proxy_loss", "max_abs_error", "orig", "quant"}
        assert json.loads(rep.read_text())["metrics"] == payload

    def test_calibration_files_are_held_one_at_a_time(self, tmp_path, capsys):
        # eval over 8 one-section files peaks below two files' payload plus
        # the layer's own arrays (weights, their difference, the Gram and the
        # fold's row chunk), so no path holds every file at once
        rng = np.random.default_rng(9)
        d, rows, n_files = 32, 8192, 8
        w = rng.standard_normal((d, d))
        orig, quant = tmp_path / "o.mgqt", tmp_path / "q.mgqt"
        write_tensor_file(orig, {"weights": w})
        write_tensor_file(quant, {"quantized": w + 0.01 * rng.standard_normal((d, d))})
        paths = []
        for i in range(n_files):
            paths.append(str(tmp_path / f"c{i}.mgqt"))
            write_tensor_file(paths[-1], {"x": rng.standard_normal((rows, d))})
        file_payload = rows * d * 8
        layer = 8 * (12 * d * d + CHUNK_ROWS * d)
        tracemalloc.start()
        try:
            rc = main(["eval", "--orig", str(orig), "--quant", str(quant), "--calib", *paths])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert last_json_line(capsys)["proxy_loss"] > 0
        assert peak < 2 * file_payload + layer, (peak, file_payload)

    def test_calibration_column_mismatch_exit_2_names_file(self, tmp_path, capsys, monkeypatch):
        # refused from the headers, before any calibration payload is read
        orig, quant, a, b = (tmp_path / n for n in ("o.mgqt", "q.mgqt", "a.mgqt", "b.mgqt"))
        write_tensor_file(orig, {"weights": np.zeros((2, 3))})
        write_tensor_file(quant, {"quantized": np.zeros((2, 3))})
        write_tensor_file(a, {"x": np.eye(3)})
        write_tensor_file(b, {"x": np.eye(3), "y": np.ones((2, 4))})
        refuse_payload_reads(monkeypatch, [a, b])
        rc = main(["eval", "--orig", str(orig), "--quant", str(quant), "--calib", str(a), str(b)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "b.mgqt" in err[0] and "'y'" in err[0]

    def test_shape_mismatch_exit_2(self, tmp_path, capsys):
        orig, quant, calib = (tmp_path / n for n in ("o.mgqt", "q.mgqt", "c.mgqt"))
        write_tensor_file(orig, {"weights": np.zeros((2, 3))})
        write_tensor_file(quant, {"quantized": np.zeros((2, 4))})
        write_tensor_file(calib, {"x": np.eye(3)})
        rc = main(["eval", "--orig", str(orig), "--quant", str(quant), "--calib", str(calib)])
        assert rc == 2


# Runs one CLI command through mgquant.cli.main in a fresh interpreter and
# appends a JSON line with its exit code, how many scipy modules it loaded
# and which mgquant modules it loaded.
_PROBE = """
import json, sys
from mgquant.cli import main
rc = main(sys.argv[1:])
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
package = sorted(m for m in sys.modules if m.split(".")[0] == "mgquant")
print(json.dumps({"rc": rc, "scipy_modules": len(loaded), "mgquant_modules": package}))
"""

# The modules of a command that only reads, folds and writes tensor files.
LIGHT_MODULES = ["mgquant", "mgquant.calibration", "mgquant.cli", "mgquant.linalg",
                 "mgquant.tensorfile"]


class TestStartupImports:
    """The package runs on numpy alone: no command loads scipy."""

    def probe(self, *argv) -> dict:
        proc = subprocess.run([sys.executable, "-c", _PROBE, *map(str, argv)], env=src_env(),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        assert result["rc"] == 0, (argv[0], proc.stderr)
        return result

    def test_no_command_loads_scipy(self, tmp_path):
        rng = np.random.default_rng(31)
        wdir, hdir = tmp_path / "weights", tmp_path / "hessians"
        wdir.mkdir()
        hdir.mkdir()
        weights, factor = wdir / "L0.mgqt", hdir / "L0.mgqt"
        write_tensor_file(weights, {"weights": 0.01 * rng.standard_normal((24, 16))})
        calib, gram = tmp_path / "c.mgqt", tmp_path / "g.mgqt"
        x = 0.05 * rng.standard_normal((96, 16))
        write_tensor_file(calib, {"x": x})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "d_gnn": 8, "block_size": 8}))
        params, quant = tmp_path / "p.mgqt", tmp_path / "q.mgqt"

        assert self.probe("gram", "--calib", calib, "--out", gram)["scipy_modules"] == 0
        assert self.probe("hessian", "--gram", gram, "--damp", "0.01",
                          "--out", factor)["scipy_modules"] == 0
        hc = read_tensor_file(factor)["hessian_cholesky"]
        g = 2.0 * x.T @ x
        damped = g + 0.01 * np.mean(np.diag(g)) * np.eye(16)
        assert np.array_equal(hc, np.triu(hc)) and (np.diag(hc) > 0).all()
        assert np.allclose(hc.T @ hc @ damped, np.eye(16), atol=1e-9)

        layer = ["--weights", weights, "--hessian", factor]
        for argv in (
            ["train", "--weights", wdir, "--hessians", hdir, "--config", cfg, "--out", params],
            ["quantize", *layer, "--params", params, "--calib", calib, "--out", quant],
            ["baseline", "--method", "gptq-uniform", *layer, "--config", cfg,
             "--out", tmp_path / "b.mgqt"],
            ["eval", "--orig", weights, "--quant", quant, "--calib", calib],
        ):
            assert self.probe(*argv)["scipy_modules"] == 0, argv[0]

    def test_gram_hessian_and_eval_load_only_their_modules(self, tmp_path):
        rng = np.random.default_rng(32)
        weights, calib = tmp_path / "w.mgqt", tmp_path / "c.mgqt"
        gram, factor, quant = tmp_path / "g.mgqt", tmp_path / "h.mgqt", tmp_path / "q.mgqt"
        write_tensor_file(weights, {"weights": rng.standard_normal((24, 16))})
        write_tensor_file(calib, {"x": rng.standard_normal((96, 16))})
        write_tensor_file(quant, {"quantized": np.zeros((24, 16))})
        for argv in (
            ["gram", "--calib", calib, "--out", gram],
            ["hessian", "--gram", gram, "--damp", "0.01", "--out", factor],
            ["eval", "--orig", weights, "--quant", quant, "--calib", calib],
        ):
            assert self.probe(*argv)["mgquant_modules"] == LIGHT_MODULES, argv[0]

    def test_package_import_loads_no_submodule(self):
        code = ("import json, sys, mgquant; "
                "print(json.dumps(sorted(m for m in sys.modules if m.startswith('mgquant'))))")
        proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ["mgquant"]

    def test_package_exports_resolve_to_their_modules(self):
        for name in mgquant.__all__:
            obj = getattr(mgquant, name)
            assert obj.__module__.startswith("mgquant."), name
            assert getattr(importlib.import_module(obj.__module__), name) is obj, name
        assert set(mgquant.__all__) <= set(dir(mgquant))
        with pytest.raises(AttributeError, match="no_such_name"):
            mgquant.no_such_name


class TestProcessExit:
    """`python -m mgquant` exits right after flushing; its streams stay whole."""

    def run(self, *argv, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
        env = src_env()
        env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as by default
        return subprocess.run([sys.executable, "-m", "mgquant", *map(str, argv)],
                              env=env, stdout=stdout, stderr=subprocess.PIPE,
                              text=True, timeout=300)

    def test_success_prints_one_json_line_to_a_pipe_and_to_a_file(self, tmp_path):
        calib, gram = tmp_path / "c.mgqt", tmp_path / "g.mgqt"
        write_tensor_file(calib, {"x": np.random.default_rng(33).standard_normal((40, 6))})
        piped = self.run("gram", "--calib", calib, "--out", gram)
        assert piped.returncode == 0 and piped.stderr == ""
        sink = tmp_path / "stdout.txt"
        with open(sink, "w") as fh:
            filed = self.run("gram", "--calib", calib, "--out", gram, stdout=fh)
        assert filed.returncode == 0 and filed.stderr == ""
        for text in (piped.stdout, sink.read_text()):
            assert text.endswith("\n") and text.count("\n") == 1
            assert json.loads(text) == {"out": str(gram), "d_col": 6, "samples": 40}
        assert read_tensor_file(gram)["samples"].tolist() == [40.0]

    def test_each_error_exit_prints_one_stderr_line(self, tmp_path):
        calib, gram, bad = tmp_path / "c.mgqt", tmp_path / "g.mgqt", tmp_path / "bad.mgqt"
        write_tensor_file(calib, {"x": np.eye(3)})
        bad.write_bytes(b"JUNKJUNKJUNK")
        indefinite = tmp_path / "indefinite.mgqt"
        write_tensor_file(indefinite, {"gram": np.diag([1.0, -4.0]), "samples": np.array([2.0])})
        assert self.run("gram", "--calib", calib, "--out", gram).returncode == 0
        out = tmp_path / "h.mgqt"
        for code, argv in (
            (2, ["hessian", "--gram", gram, "--damp=nan", "--out", out]),
            (3, ["gram", "--calib", bad, "--out", out]),
            (4, ["hessian", "--gram", indefinite, "--damp", "0.0", "--out", out]),
        ):
            proc = self.run(*argv)
            assert proc.returncode == code, (argv, proc.stderr)
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
            assert not out.exists()


# Allocates and frees eight 512 KiB arrays per round, after pinning the heap
# policy when asked to, and prints each round's minor page faults.
_HEAP_PROBE = """
import json, resource, sys
import numpy as np
from mgquant import cli
if sys.argv[1] == "pin":
    cli.keep_freed_heap()
faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(1 << 16) for _ in range(8)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


class TestHeapPolicy:
    """A CLI process keeps its freed heap for reuse; in-process callers keep
    glibc's defaults."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap policy is set through glibc's mallopt")
    def test_pinned_process_reuses_freed_blocks(self):
        env = {k: v for k, v in src_env().items()
               if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
        pages = 8 * (512 << 10) // os.sysconf("SC_PAGE_SIZE")
        faults = {}
        for mode in ("pin", "default"):
            proc = subprocess.run([sys.executable, "-c", _HEAP_PROBE, mode], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            faults[mode] = json.loads(proc.stdout)
        assert all(n < pages // 4 for n in faults["pin"][1:]), faults
        # glibc's own policy hands the freed blocks back and faults them in again
        assert all(n > pages // 2 for n in faults["default"][1:]), faults

    def test_no_mallopt_is_a_silent_no_op(self, capsys):
        from mgquant.cli import keep_freed_heap
        assert keep_freed_heap(object()) is None
        assert capsys.readouterr() == ("", "")

    def test_main_leaves_the_heap_policy_alone(self, tmp_path, capsys, monkeypatch):
        from mgquant import cli

        def pinned(*args):
            raise AssertionError("main pinned the heap policy")

        monkeypatch.setattr(cli, "keep_freed_heap", pinned)
        calib = tmp_path / "c.mgqt"
        write_tensor_file(calib, {"x": np.eye(3)})
        assert main(["gram", "--calib", str(calib), "--out", str(tmp_path / "g.mgqt")]) == 0

    def test_console_main_pins_before_the_command_runs(self, monkeypatch):
        from mgquant import cli

        calls = []
        monkeypatch.setattr(cli, "keep_freed_heap", lambda: calls.append("pin"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 0)
        monkeypatch.setattr(cli.os, "_exit", lambda code: calls.append(f"exit {code}"))
        cli.console_main()
        assert calls == ["pin", "main", "exit 0"]


class TestReadmeCli:
    """README's CLI block shows every flag each subcommand defines, and no other."""

    def readme_flags(self) -> dict[str, set[str]]:
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text().split("\n## CLI\n", 1)[1]
        block = section.split("```bash\n", 1)[1].split("```", 1)[0]
        flags: dict[str, set[str]] = {}
        for line in block.replace("\\\n", " ").splitlines():
            words = line.split()
            if words[:1] == ["mgquant"]:
                flags[words[1]] = set(re.findall(r"--[a-z][a-z-]*", line))
        return flags

    def test_readme_flags_match_parser(self):
        parser = build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        defined = {
            name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
            for name, sub in subparsers.choices.items()
        }
        assert self.readme_flags() == defined

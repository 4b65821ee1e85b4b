"""Every command against the file-role table of `mgquant.cli`.

A fault that a file's headers show (a missing or renamed section, a section
that is not float, a wrong rank, shapes that disagree, two files swapped
between roles) is refused before any payload is read; a fault in the
payloads' contents is refused after; valid files pass. The oracle is the
CLI's: exit 0 with one JSON line, or exit 2, 3 or 4 with one stderr line
naming an input file, nothing on stdout and no output file.
"""

import argparse
import contextlib
import io
import json
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mgquant import cli
from mgquant.allocator import init_allocator_params
from mgquant.calibration import GramAccumulator, build_hessian_cholesky
from mgquant.cli import INPUTS, METHODS, ROLES, build_parser, main
from mgquant.pipeline import params_to_sections
from mgquant.tensorfile import MAGIC, VERSION

README = Path(__file__).resolve().parents[1] / "README.md"

# Where each role's file goes; `train` reads the weights and factor files
# through their directories.
ROLE_PATHS = {"weights": "weights/L0.mgqt", "factor": "hessians/L0.mgqt", "calib": "calib.mgqt",
              "gram": "gram.mgqt", "params": "params.mgqt", "quantized": "quant.mgqt"}
TRAIN_DIRS = {"weights": "weights", "hessians": "hessians"}
CONFIG = {"epochs": 1, "accum_steps": 1, "d_gnn": 4, "block_size": 4}

# Each turns a valid section into the array stored.
SECTION_MUTATIONS = {
    "float32": lambda x: x.astype(np.float32),
    "float64": lambda x: x,
    "uint8": lambda x: np.abs(x).astype(np.uint8),
    "0 rows": lambda x: x[:0],
    "0 columns": lambda x: x[..., :0],
    "one more column": lambda x: np.concatenate([x, x[..., :1]], axis=-1),
    "rank + 1": lambda x: x[None],
    "rank - 1": lambda x: x.reshape(-1) if x.ndim > 1 else np.asarray(x.reshape(-1)[0]),
    "NaN": lambda x: np.where(np.arange(x.size).reshape(x.shape) == x.size // 2, np.nan, x),
    "Inf": lambda x: np.where(np.arange(x.size).reshape(x.shape) == 0, -np.inf, x),
}
FILE_MUTATIONS = ["drop", "rename", "extra section", "truncate", "swap"]
FACTOR_MUTATIONS = ["zero diagonal", "negative diagonal", "below the diagonal"]


def layer_sections(seed: int, rows: int, cols: int) -> dict[str, dict[str, np.ndarray]]:
    """One valid file per role, as sections, for one layer of ``rows`` x ``cols``."""
    rng = np.random.default_rng(seed)
    w = 0.1 * rng.standard_normal((rows, cols))
    x = rng.standard_normal((2 * cols + 2, cols))
    gram = GramAccumulator(d_col=cols).accumulate(x).gram
    return {
        "weights": {"weights": w},
        "calib": {"a": x[: cols + 1], "b": x[cols + 1:]},
        "gram": {"gram": gram, "samples": np.array([float(len(x))])},
        "factor": {"hessian_cholesky": build_hessian_cholesky(gram, 0.01)},
        "params": params_to_sections(init_allocator_params(4, 4, 4, rng)),
        "quantized": {"quantized": np.round(w, 1)},
    }


def write_raw(path: Path, sections: dict[str, np.ndarray]) -> None:
    """Write ``sections`` as a container with none of the writer's checks."""
    blob = MAGIC + struct.pack("<BH", VERSION, len(sections))
    for name, arr in sections.items():
        code = {np.dtype("<f4"): 0, np.dtype("<f8"): 1, np.dtype("u1"): 2}[arr.dtype]
        blob += struct.pack("<B", len(name)) + name.encode()
        blob += struct.pack(f"<BB{arr.ndim}Q", code, arr.ndim, *arr.shape) + arr.tobytes()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)


def roles_of(command: str) -> list[str]:
    return list(dict.fromkeys(INPUTS[command].values()))


def argv_of(command: str, d: Path, method: str) -> list[str]:
    """The command's argv, its inputs taken from :data:`INPUTS` and its outputs under ``d/out``."""
    argv = [command]
    for flag, role in INPUTS[command].items():
        argv += [f"--{flag}", str(d / (TRAIN_DIRS[flag] if command == "train" else ROLE_PATHS[role]))]
    config = ["--config", str(d / "cfg.json")]
    out, report = ["--out", str(d / "out" / "o.mgqt")], ["--report", str(d / "out" / "r.json")]
    return argv + {
        "gram": out, "hessian": out, "train": config + out,
        "quantize": ["--block", "4", *out, *report],
        "baseline": ["--method", method, *config, *out, *report], "eval": report,
    }[command]


def expected(role: str, section: str, mutation: str) -> str:
    """``ok``, ``header`` (refused before any payload is read) or ``content``."""
    if mutation in ("float32", "float64"):
        return "ok"
    if mutation in ("NaN", "Inf", *FACTOR_MUTATIONS):
        return "content"
    if role == "calib" and mutation in ("0 rows", "drop", "rename"):
        return "ok"  # the file's other section still holds rows
    if mutation == "extra section" and role != "params":
        return "ok"  # a copy of a section: one more batch, or one the role does not read
    return "header"


@contextlib.contextmanager
def payloads_refused(paths):
    """Make ``cli``'s payload reader fail the test on ``paths``."""
    read, banned = cli.read_tensor_file, {str(p) for p in paths}

    def guarded(path):
        assert str(path) not in banned, f"payload of {path} read"
        return read(path)

    with mock.patch.object(cli, "read_tensor_file", guarded):
        yield


def run_mutated(d: Path, command: str, role: str, section: str, mutation: str, *, seed=0,
                rows=5, cols=4, method="rtn", other=None, entry=0, cut=0.5) -> None:
    """Write a valid layer under ``d``, apply ``mutation`` to ``section`` of the
    ``role`` file, run ``command`` in process and check the oracle."""
    files = layer_sections(seed, rows, cols)
    sections = files[role]
    if mutation in SECTION_MUTATIONS:
        sections[section] = np.asarray(SECTION_MUTATIONS[mutation](sections[section]))
    elif mutation == "drop":
        del sections[section]
    elif mutation == "rename":
        sections[f"{section}_old"] = sections.pop(section)
    elif mutation == "extra section":
        sections["extra"] = sections[section].copy()
    elif mutation in FACTOR_MUTATIONS:
        hc = sections[section]
        if mutation == "below the diagonal":
            i = entry % (len(hc) - 1)
            hc[i + 1, i] = 0.5
        else:
            i = entry % len(hc)
            hc[i, i] = 0.0 if mutation == "zero diagonal" else -hc[i, i]
    paths = {r: d / ROLE_PATHS[r] for r in files}
    for r, s in files.items():
        write_raw(paths[r], s)  # a file whose one section was dropped counts none
    if mutation == "truncate":
        blob = paths[role].read_bytes()
        paths[role].write_bytes(blob[: int(cut * len(blob))])
    elif mutation == "swap":
        a, b = paths[role].read_bytes(), paths[other].read_bytes()
        paths[role].write_bytes(b)
        paths[other].write_bytes(a)
    (d / "cfg.json").write_text(json.dumps(CONFIG))

    inputs = [paths[r] for r in roles_of(command)]
    kind = "header" if mutation == "swap" else expected(role, section, mutation)
    guard = payloads_refused(inputs) if kind == "header" else contextlib.nullcontext()
    stdout, stderr = io.StringIO(), io.StringIO()
    with guard, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(argv_of(command, d, method))
    outputs = sorted((d / "out").rglob("*")) if (d / "out").exists() else []
    case = (command, role, section, mutation, rc, stderr.getvalue())
    if rc == 0:
        assert kind == "ok", case
        assert stderr.getvalue() == "" and outputs, case
        (line,) = stdout.getvalue().splitlines()
        json.loads(line)
    else:
        assert kind != "ok", case
        assert rc in ((2, 3) if kind == "header" else (2, 3, 4)), case
        assert stdout.getvalue() == "" and outputs == [], case
        (line,) = stderr.getvalue().splitlines()
        assert any(str(p) in line for p in inputs), case


@pytest.mark.parametrize("command", sorted(INPUTS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_command_boundary(tmp_path_factory, command, data):
    """Each command on a valid layer with one file mutated, drawn from the role table."""
    role = data.draw(st.sampled_from(roles_of(command)), label="role")
    section = data.draw(st.sampled_from(sorted(layer_sections(0, 1, 1)[role])), label="section")
    mutations = [*SECTION_MUTATIONS, *FILE_MUTATIONS, *(FACTOR_MUTATIONS if role == "factor" else [])]
    mutation = data.draw(st.sampled_from(mutations), label="mutation")
    cols = data.draw(st.integers(1, 5), label="cols")
    assume(mutation != "below the diagonal" or cols > 1)
    others = [r for r in roles_of(command) if r != role] or ["params"]  # none: a foreign file
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
        run_mutated(Path(tmp), command, role, section, mutation,
                    seed=data.draw(st.integers(0, 2**16), label="seed"),
                    rows=data.draw(st.integers(1, 6), label="rows"), cols=cols,
                    method=data.draw(st.sampled_from(METHODS), label="method"),
                    other=data.draw(st.sampled_from(others), label="other"),
                    entry=data.draw(st.integers(0, 4), label="entry"),
                    cut=data.draw(st.floats(0.0, 1.0, exclude_max=True), label="cut"))


HEADER_FAULTS = ["drop", "rename", "extra section", "uint8", "rank + 1", "rank - 1", "0 columns",
                 "one more column", "truncate", "swap"]


@pytest.mark.parametrize("command, role, fault", [
    (command, role, fault) for command in sorted(INPUTS) for role in roles_of(command)
    for fault in HEADER_FAULTS
    if fault == "swap" or expected(role, next(iter(layer_sections(0, 1, 1)[role])), fault) == "header"
])
def test_header_fault_refused_before_any_payload(tmp_path, command, role, fault):
    """For every command and role: each header-level fault, in the role's first
    section, exits 2 or 3 with no payload of any input read."""
    section = next(iter(layer_sections(0, 1, 1)[role]))
    other = next((r for r in roles_of(command) if r != role), "params")
    run_mutated(tmp_path, command, role, section, fault, method="mlp-ptq", other=other)


FLAG_CASES = [
    (["quantize", "--block", "0"], "block_size must be >= 1, got 0"),
    (["quantize", "--block", "-3"], "block_size must be >= 1, got -3"),
    *[(["baseline", "--method", method, "--bits", bits], f"bits must be in [1, 8], got {bits}")
      for method in METHODS for bits in ("0", "9")],
    (["baseline", "--method", "mlp-ptq", "--bits", "5"], "target_bits must be in [1, 4], got 5.0"),
    (["baseline", "--method", "mlp-ptq", "--target-bits", "0.5"],
     "target_bits must be in [1, 4], got 0.5"),
]


@pytest.mark.parametrize("argv, message", FLAG_CASES, ids=[" ".join(a) for a, _ in FLAG_CASES])
def test_bad_flag_refused_before_any_payload(tmp_path, capsys, monkeypatch, argv, message):
    """A flag out of range exits 2 before any input's payload is read or any work runs."""
    import mgquant.baselines

    def work(*args, **kwargs):
        raise AssertionError("the allocator or a baseline ran")

    monkeypatch.setattr(cli, "quantize_with_allocator", work)
    monkeypatch.setattr(mgquant.baselines, "run_baseline", work)
    for role, sections in layer_sections(0, 5, 4).items():
        write_raw(tmp_path / ROLE_PATHS[role], sections)
    (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
    command, *flags = argv
    with payloads_refused([tmp_path / ROLE_PATHS[r] for r in roles_of(command)]):
        # the last of a repeated flag counts
        assert main([*argv_of(command, tmp_path, "rtn"), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp_path / "out").exists()
    assert captured.err.splitlines() == [f"error: {message}"]


# Options that name no file a command reads: what it writes, and its JSON config.
NOT_READ = {"--out", "--report", "--log", "--config"}


def test_every_input_flag_has_a_role():
    """Each subcommand's file-valued options are exactly its inputs in the role table."""
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(INPUTS)
    for name, sub in subparsers.choices.items():
        paths = {a.option_strings[0] for a in sub._actions if a.option_strings
                 and a.type is None and a.choices is None and a.nargs != 0} - NOT_READ
        assert paths == {f"--{flag}" for flag in INPUTS[name]}, name
    assert {role for flags in INPUTS.values() for role in flags.values()} == set(ROLES)


def test_readme_file_roles_match_the_table():
    """README's "File roles" table gives each role's sections and shapes as the code does."""
    section = README.read_text().split("\n## File roles\n", 1)[1].split("\n## ", 1)[0]
    rows = [[c.strip() for c in line.strip("|").split("|")] for line in section.splitlines()
            if line.startswith("| ") and not line.startswith("| role ")]
    documented = {row[0].split()[-1]: (row[2], row[3]) for row in rows}
    code = {}
    for role, spec in ROLES.items():
        names = [f"`{name}`" for name in spec.sections if name != "*"]
        sections = ", ".join(names) + (", and no other" if spec.only else "") if names \
            else "every section"
        shapes = ", ".join(" × ".join(d or "any" for d in dims) for dims in spec.sections.values())
        code[role] = (sections, shapes)
    assert documented == code

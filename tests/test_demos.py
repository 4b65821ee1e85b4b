"""Every demo and every ```python block of README runs to completion against
this checkout and leaves no files behind: each runs in a fresh interpreter
whose temporary directory and working directory are an empty pytest
directory, which must be empty again afterwards. A demo or README block that
imports a removed name or passes a removed argument fails here too.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mgquant

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.M | re.S)


def run_in_empty_dir(tmp_path, argv):
    src = str(Path(mgquant.__file__).resolve().parents[1])
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_and_cleans_up(tmp_path, demo):
    run_in_empty_dir(tmp_path, [str(demo)])


def test_readme_python_blocks_found():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs_and_cleans_up(tmp_path, block):
    run_in_empty_dir(tmp_path, ["-c", block])

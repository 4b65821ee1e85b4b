"""Every demo runs to completion against this checkout and leaves no files
behind: each runs in a fresh interpreter whose temporary directory and
working directory are an empty pytest directory, which must be empty again
afterwards. A demo that imports a removed name fails here too.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mgquant

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_and_cleans_up(tmp_path, demo):
    src = str(Path(mgquant.__file__).resolve().parents[1])
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == []

"""Each demo script runs to completion on its checked-in input files.

The demos write their outputs next to themselves, so each runs from a copy
of ``demos/`` in a temporary directory.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((REPO / "demos").glob("0*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_demo_runs(tmp_path, script):
    demos = tmp_path / "demos"
    shutil.copytree(REPO / "demos", demos)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(demos / script.name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

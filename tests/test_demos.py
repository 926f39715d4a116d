"""Every script under demos/ and every python code block of README.md runs
to completion against the package under test."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import boltzxml

# directory holding the package under test, for subprocess runs
SRC = Path(boltzxml.__file__).resolve().parent.parent
ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
README_BLOCKS = [
    pytest.param(m.group(1), id="line-%d" % (README.count("\n", 0, m.start()) + 1))
    for m in re.finditer(r"^```python\n(.*?)^```$", README, re.M | re.S)
]


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_demos_are_found():
    assert len(DEMOS) >= 8


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    run_python([str(demo)], tmp_path)


def test_readme_blocks_are_found():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("block", README_BLOCKS)
def test_readme_block_runs(block, tmp_path):
    run_python(["-c", block], tmp_path)

"""Every narrative demo, and the README quick start, runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def _run(args, cwd):
    """Run python with args on the checkout's src, RuntimeWarnings as errors
    (as pyproject.toml sets them for the tests)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    proc = _run([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_quick_start_prints_pass(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    proc = _run(["-c", block], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "pass\n"

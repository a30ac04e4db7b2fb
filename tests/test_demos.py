"""Smoke test: every script in demos/ and the README library quickstart run
to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import robust_recon

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert [p.name for p in DEMOS] == ["background_selection.py", "forward_model.py",
                                       "method_comparison.py", "regularization_sweep.py"]


def run_python(args, cwd):
    src = Path(robust_recon.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable] + args, cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    assert run_python([str(script)], tmp_path).strip()


def test_readme_library_quickstart_runs(tmp_path):
    blocks = (ROOT / "README.md").read_text().split("```python\n")[1:]
    assert len(blocks) == 1
    out = run_python(["-c", blocks[0].split("```", 1)[0]], tmp_path)
    assert out.startswith("eps PSNR ")

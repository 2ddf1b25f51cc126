"""Every demo script, and the README's library example, runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("## Library", 1)[1]
    example = library.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})

"""Every demo runs as a script and exits 0, as in CI's Demos step.

Each runs in its own process with src on PYTHONPATH, from the root of
the repository. Together they take a few seconds; select them apart
with -m slow, or leave them out with -m "not slow"."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.slow
@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_the_demo_exits_0(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=path), timeout=600)
    assert result.returncode == 0, result.stderr

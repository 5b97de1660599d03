"""The benchmark's smoke run passes, as in CI's "Benchmark smoke run" step.

perfbench/run.py --smoke runs every workload at a tiny size, traced and
untraced, and checks its outputs; the traced runs read the results of
the functions they wrap. It takes a few seconds in a process of its own,
so it is marked slow: select it apart with -m slow, or leave it out with
-m "not slow"."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_the_benchmark_smoke_run_passes():
    result = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
                            cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    assert result.stdout.count(": ok, ") == 8  # 4 workloads, traced and untraced

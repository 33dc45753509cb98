"""The benchmark's own smoke check passes against the current source, so an
edit that breaks the tracer's layer names or a suite's expected summary fails
here and not only when the benchmark runs."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    result = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "smoke: ok", result.stdout

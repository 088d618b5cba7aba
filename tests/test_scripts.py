import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cost_performance_fit_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cost_performance_fit.py"), "--n", "8", "10"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    header, *lines = result.stdout.splitlines()
    assert header.split() == ["n", "measure", "fitted", "predicted", "rel", "err"]
    assert [line.split()[:2] for line in lines] == [
        ["8", "relative-entropy"],
        ["8", "l1"],
        ["10", "relative-entropy"],
        ["10", "l1"],
    ]

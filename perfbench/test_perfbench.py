"""Self-test of the benchmark: its checker must catch bad outputs.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _run_cli(op: workloads.Op, out: Path) -> None:
    from groverlab.cli import main

    with pytest.raises(SystemExit) as exc:
        main(op.argv + ["--out", str(out)], prog_name="groverlab")
    assert exc.value.code == 0


@pytest.fixture(scope="module")
def ga_output(tmp_path_factory):
    op = workloads.ga_op(6, (1, 2), r_max=4)
    out = tmp_path_factory.mktemp("ga") / "sweep.csv"
    _run_cli(op, out)
    return op, out.read_text()


def _check(op, text, tmp_path):
    path = tmp_path / "out.csv"
    path.write_text(text)
    return checks.check({"kind": op.kind, "params": op.params}, path, np.random.default_rng(0))


def test_clean_output_passes(ga_output, tmp_path):
    op, text = ga_output
    failures, rows = _check(op, text, tmp_path)
    assert failures == []
    assert rows == 10


def _corrupt(text: str, row: int, column: str, value: str) -> str:
    lines = text.split("\n")
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    index = lines[header_at].split(",").index(column)
    fields = lines[header_at + 1 + row].split(",")
    fields[index] = value
    lines[header_at + 1 + row] = ",".join(fields)
    return "\n".join(lines)


@pytest.mark.parametrize(
    "column, value",
    [("p", "0.123456789012"), ("cr", "NA"), ("e2", "1.5"), ("r", "7")],
)
def test_corrupted_csv_row_fails(ga_output, tmp_path, column, value):
    op, text = ga_output
    failures, _ = _check(op, _corrupt(text, 2, column, value), tmp_path)
    assert failures


def test_corrupted_sampled_value_fails(ga_output, tmp_path):
    # Every sampled row is compared with the oracle, so a small in-range
    # change to one of them is caught.
    op, text = ga_output
    rows = np.random.default_rng(0).choice(5, size=checks.SAMPLE_ROWS_PER_J, replace=False)
    failures, _ = _check(op, _corrupt(text, int(rows[0]), "en", "0.5"), tmp_path)
    assert any("oracle" in f for f in failures)


def test_non_converged_optimizer_result_fails():
    from groverlab.discord import pairwise_discord_ga
    from groverlab.grover import GroverConfig
    from groverlab.optimizers import OptimizerConfig

    result = pairwise_discord_ga(GroverConfig(n=6, j=1), 2, OptimizerConfig(refine_maxiter=1))
    assert not result.converged
    assert checks.check_optimizer_result("d2", result, result.value, 0.0)
    good = SimpleNamespace(value=result.value, converged=True, optimizer_evals=1)
    assert checks.check_optimizer_result("d2", good, result.value, 0.0) == []


def test_tolerances_are_the_packages():
    from groverlab import bruteforce

    stated = getattr(bruteforce, "_IDENTITY_TOLERANCES", {})
    for name, tol in checks.IDENTITY_TOLERANCES.items():
        if name in stated:
            assert stated[name] <= tol, f"{name} loosened in the package"


def test_self_time_subtracts_children():
    spans = {
        "names": ["report.ga_sweep", "grover.state_at"],
        "fn": np.array([0, 1, 1], dtype=np.int32),
        "parent": np.array([-1, 0, 0], dtype=np.int32),
        "op": np.zeros(3, dtype=np.int32),
        "t0": np.array([0.0, 1.0, 4.0]),
        "t1": np.array([10.0, 3.0, 5.0]),
        "counters": {name: 0 for name in tracer.COUNTERS},
    }
    metrics = tracer.derive(spans, passes=1)
    assert metrics["report.self_s"] == pytest.approx(7.0)
    assert metrics["grover.self_s"] == pytest.approx(3.0)
    assert metrics["grover.calls"] == 2


def test_inputs_follow_the_seed(tmp_path):
    for name in "abc":
        (tmp_path / name).mkdir()
    a = workloads.build("gga", 3, tmp_path / "a")
    b = workloads.build("gga", 3, tmp_path / "b")
    c = workloads.build("gga", 4, tmp_path / "c")
    assert [op.label for op in a] == [op.label for op in b]
    assert (tmp_path / "a" / "start_real.json").read_text() == (tmp_path / "b" / "start_real.json").read_text()
    assert (tmp_path / "a" / "start_real.json").read_text() != (tmp_path / "c" / "start_real.json").read_text()
    assert sorted(op.label for op in a) == sorted(op.label for op in c)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke", "--trace", str(trace)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(workloads.WORKLOADS)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == wanted

"""groverlab benchmark: closed-loop CLI workloads with checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another
    python3 perfbench/run.py --workload all --smoke --trace 1   # seconds-long check

One client runs the workload's ops in sequence, in one fresh interpreter, for
at least --seconds and at least three passes over the op list (one pass when
traced). With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics of BENCHMARK.json; with --trace 1 it holds the per-layer
metrics of a separate traced run. Lines before it give each metric with its unit, per-op medians
and quartiles, and every failure. Exit status is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(SRC))  # the checker recomputes optimizer rows with the package

import checks  # noqa: E402
import tracer  # noqa: E402
from probe import REFERENCE_S, probe  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 170


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure_setup(count: int) -> list:
    """Seconds from spawning a fresh interpreter until `groverlab.cli` is imported.

    Each time is scaled by the machine-speed probes taken just before and
    just after that spawn.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import groverlab.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    times = []
    probe()  # warm-up: the first call pays one-time costs
    speed = probe()
    for _ in range(count):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line != b"ready\n":
            raise RuntimeError(f"import probe exited {proc.returncode}")
        after = probe()
        times.append((elapsed, 2.0 * REFERENCE_S / (speed + after)))
        speed = after
    return times


def attach_factors(result: dict) -> None:
    """Give each op record the speed factor from the probes on either side of it."""
    records = result["records"]
    probes = [r["probe"] for r in records] + [result["final_probe"]]
    for i, r in enumerate(records):
        r["factor"] = 2.0 * REFERENCE_S / (probes[i] + probes[i + 1])


def run_worker(workdir: Path, ops: list, seconds: float, min_passes: int, trace: bool) -> dict:
    plan = {
        "src": str(SRC),
        "workdir": str(workdir),
        "ops": [{"label": op.label, "argv": op.argv} for op in ops],
        "seconds": seconds,
        "min_passes": min_passes,
        "trace": trace,
    }
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    with open(workdir / "worker.log", "w") as log:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path)],
            stdout=log,
            stderr=subprocess.STDOUT,
            cwd=ROOT,
            timeout=WORKER_TIMEOUT_S,
        )
    if proc.returncode != 0:
        tail = (workdir / "worker.log").read_text()[-2000:]
        raise RuntimeError(f"worker exited {proc.returncode}:\n{tail}")
    return json.loads((workdir / "worker.json").read_text())


def judge(ops: list, result: dict, seed: int) -> tuple:
    """Check every output; return per-op verdicts and the count of wrong outputs."""
    verdicts = []
    wrong = 0
    for index, op in enumerate(ops):
        records = [r for r in result["records"] if r["op"] == index]
        kept = result["kept"].get(str(index))
        rng = np.random.default_rng([seed, 101, index])
        failures, rows, sha = [], 0, None
        if kept is not None:
            failures, rows = checks.check({"kind": op.kind, "params": op.params}, Path(kept), rng)
            sha = next(r["sha256"] for r in records if r["exit"] == 0 and "sha256" in r)
        failed = 0
        for r in records:
            if r["exit"] != 0:
                failed += 1
            elif sha is None or r.get("sha256") != sha:
                failed += 1
                wrong += 1
                failures.append(f"pass {r['pass']}: output differs from the first run of this op")
            elif failures:
                failed += 1
                wrong += 1
        errors = sorted({r["error"] or f"exit {r['exit']}" for r in records if r["exit"] != 0})
        verdicts.append(
            {
                "op": op,
                "records": records,
                "rows": rows if not failures and not errors else 0,
                "failed": failed,
                "failures": failures,
                "errors": errors,
            }
        )
    return verdicts, wrong


def end_to_end(verdicts: list, result: dict, setup: list) -> tuple:
    """Timings are scaled to the probe's reference speed (see probe.py)."""
    lines = []
    wall = raw_wall = 0.0
    rows = 0
    for v in verdicts:
        untraced = [r for r in v["records"] if not r["traced"]]
        times = [r["seconds"] * r["factor"] for r in untraced]
        median = statistics.median(times)
        q1, q3 = _quartiles(times)
        wall += median
        raw_wall += statistics.median(r["seconds"] for r in untraced)
        rows += v["rows"]
        status = "ok" if not v["failed"] else f"FAILED {v['failed']}/{len(v['records'])}"
        lines.append(
            f"  op {v['op'].label}: median {median:.4f} s, q1 {q1:.4f}, q3 {q3:.4f}, n={len(times)}, "
            f"rows {v['rows']}, {status}"
        )
    passes = result["passes"]
    pass_times = [
        sum(r["seconds"] * r["factor"] for v in verdicts for r in v["records"] if r["pass"] == p and not r["traced"])
        for p in range(passes)
    ]
    q1, q3 = _quartiles(pass_times)
    lines.append(
        f"  pass time: median {statistics.median(pass_times):.4f} s, q1 {q1:.4f}, q3 {q3:.4f}, n={passes}"
    )
    factors = [r["factor"] for v in verdicts for r in v["records"]]
    lines.append(
        f"  speed factors: ops median {statistics.median(factors):.3f} range {min(factors):.3f}..{max(factors):.3f}; "
        f"unscaled wall {raw_wall:.4f} s, setup {statistics.median(t for t, _ in setup):.4f} s"
    )
    setup = [t * f for t, f in setup]
    s1, s3 = _quartiles(setup)
    lines.append(f"  setup probes: median {statistics.median(setup):.4f} s, q1 {s1:.4f}, q3 {s3:.4f}, n={len(setup)}")
    attempted = sum(len(v["records"]) for v in verdicts)
    failed = sum(v["failed"] for v in verdicts)
    lines.append(f"  error_rate: {failed / attempted:.4f} ({failed} of {attempted} ops failed)")
    metrics = {
        "wall_s": wall,
        "rows_per_s": rows / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_ratio": 1.0 - failed / attempted,
    }
    return metrics, lines


def per_layer(workdir: Path, verdicts: list, result: dict) -> tuple:
    spans = tracer.load(workdir / "spans.npz")
    metrics = tracer.derive(spans, result["passes"])
    scale = statistics.mean(r["factor"] for v in verdicts for r in v["records"] if r["traced"])
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] *= scale
    # Per op, the fastest run of each kind: the first run of an op in the
    # process pays one-time costs that would otherwise land on one side.
    best = {
        side: sum(min(r["seconds"] * r["factor"] for r in v["records"] if r["traced"] == side) for v in verdicts)
        for side in (False, True)
    }
    metrics["trace_overhead"] = best[True] / best[False]
    lines = [f"  spans: {len(spans['fn'])} over {result['passes']} traced passes (values are per pass)"]
    return metrics, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, spec: dict) -> dict:
    workdir = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ops = workloads.build(name, seed, workdir, smoke=smoke)
        setup = [] if trace else measure_setup(1 if smoke else SETUP_PROBES)
        # Traced passes serve counts and self times, which need no median.
        result = run_worker(workdir, ops, seconds, 1 if smoke or trace else MIN_PASSES, trace)
        attach_factors(result)
        verdicts, wrong = judge(ops, result, seed)
        if trace:
            values, lines = per_layer(workdir, verdicts, result)
            wanted = spec["per_layer"]
        else:
            values, lines = end_to_end(verdicts, result, setup)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {name} seed {seed} trace {int(trace)}: {result['passes']} passes of {len(ops)} ops")
    for line in lines:
        print(line)
    for v in verdicts:
        for problem in v["errors"] + v["failures"][:5]:
            print(f"  FAIL {v['op'].label}: {problem}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    attempted = sum(len(v["records"]) for v in verdicts)
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": sum(v["failed"] for v in verdicts),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one pass: checks the plumbing")
    args = parser.parse_args(argv)
    if not (SRC / "groverlab" / "cli.py").is_file():
        print(f"no groverlab sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = 0.0 if args.smoke else (args.seconds if args.seconds is not None else spec["run_seconds"])
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, seconds, bool(args.trace), args.smoke, spec)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

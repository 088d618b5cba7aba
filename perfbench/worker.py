"""Runs one workload's ops in a fresh interpreter: the closed loop that is timed.

Usage: python3 worker.py PLAN.json

The plan names the program's source directory, the ops (CLI argument lists)
and how long to loop. Passes over the op list repeat until both the time
budget and the minimum pass count are spent; the loop never stops inside a
pass. The machine-speed probe runs before every op and once at the end.
With tracing on, every op runs twice in a row, untraced and traced,
so the two timings share machine conditions. Results, spans and the
interpreter's peak RSS are written into the plan's directory; the outputs
are checked afterwards by the parent, outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from probe import probe


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _invoke(main, argv):
    """Run the CLI as its console script does; return (exit code, error text)."""
    try:
        main(argv, prog_name="groverlab")
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0, None
        return (code, None) if isinstance(code, int) else (1, str(code))
    except Exception as exc:  # a crash: the console script would exit 1 with a traceback
        return 1, f"{type(exc).__name__}: {exc}"
    return 0, None


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    import groverlab
    from groverlab import cli

    if src not in Path(groverlab.__file__).resolve().parents:
        print(f"groverlab imported from {groverlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    workdir = Path(plan["workdir"])
    outdir = workdir / "out"
    outdir.mkdir(exist_ok=True)

    tracer = None
    cli_main = cli.main
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        cli_main = tracer.wrap(cli.main, "cli.main")

    records = []
    kept = {}
    probe()  # warm-up: the first call pays one-time costs
    start = perf_counter()
    passes = 0
    while passes < plan["min_passes"] or perf_counter() - start < plan["seconds"]:
        # Traced runs alternate which of each op's two runs goes first, so
        # that neither side always meets the caches the other left.
        modes = ((False, True) if passes % 2 == 0 else (True, False)) if tracer else (False,)
        for index, op in enumerate(plan["ops"]):
            for traced in modes:
                out = outdir / f"{index}.{passes}.{int(traced)}"
                speed = probe()
                argv = op["argv"] + ["--out", str(out)]
                if traced:
                    tracer.current_op = len(records)
                    tracer.install()
                    t0 = perf_counter()
                    code, error = _invoke(cli_main, argv)
                    elapsed = perf_counter() - t0
                    tracer.uninstall()
                else:
                    t0 = perf_counter()
                    code, error = _invoke(cli.main, argv)
                    elapsed = perf_counter() - t0
                record = {
                    "op": index,
                    "pass": passes,
                    "traced": traced,
                    "seconds": elapsed,
                    "exit": code,
                    "error": error,
                    "probe": speed,
                }
                if out.exists():
                    record["sha256"] = _sha256(out)
                    if code == 0 and index not in kept:
                        kept[index] = str(out)
                    else:
                        out.unlink()
                records.append(record)
        passes += 1

    final_probe = probe()
    if tracer:
        tracer.write(workdir / "spans.npz")
    result = {
        "passes": passes,
        "final_probe": final_probe,
        "records": records,
        "kept": {str(k): v for k, v in kept.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    (workdir / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

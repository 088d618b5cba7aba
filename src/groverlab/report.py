"""Sweep assembly and deterministic CSV/JSON serialization for the CLI."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .bruteforce import (
    DEFAULT_GA_MEASURES,
    MEASURE_KEYS,
    MEASURES,
    _generic_measures,
    cross_validate,
    evolve,
)
from .gga import (
    AmplitudeDistribution,
    PhiFamily,
    gga_closed_form,
    gga_iterate,
    gga_optimal_time,
    gga_pmax,
    phi_family_delta_coherence,
    phi_family_distribution,
)
from .grover import FLOAT_SAFE_QUBITS, GroverConfig, optimal_iteration_details, state_at
from .linalg import HERMITIAN_TOL, TRACE_TOL
from .optimizers import OptimizerConfig


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation; identical configs must produce byte-identical output."""

    command: str
    n: int = 11
    j_values: tuple = (1,)
    r_max: int | None = None
    measures: tuple = DEFAULT_GA_MEASURES
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = 0
    fmt: str = "csv"
    use_oracle: bool = True
    phi_points: int = 50
    init_file: str | None = None
    max_n: int = 8
    inject_fault: float = 0.0

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "n": self.n,
            "j_values": list(self.j_values),
            "r_max": self.r_max,
            "measures": list(self.measures),
            "seed": self.seed,
            "format": self.fmt,
            "use_oracle": self.use_oracle,
            "phi_points": self.phi_points,
            "init_file": self.init_file,
            "max_n": self.max_n,
            "inject_fault": self.inject_fault,
            "optimizer": {
                "theta_grid": self.optimizer.theta_grid,
                "phi_grid": self.optimizer.phi_grid,
                "restarts": self.optimizer.restarts,
                "refine_tol": self.optimizer.refine_tol,
            },
        }


def _series_engines(cfg: GroverConfig, measures, use_oracle: bool) -> dict:
    return {m: MEASURES[m].engine(cfg, use_oracle) for m in ("p",) + tuple(measures)}


def _ga_series_rows(cfg: GroverConfig, r_max: int, measures, optimizer, use_oracle: bool) -> list:
    """All rows of one (n, j) series.

    Each analytic column is one closed-form call on the state of the whole
    series; the oracle columns step one statevector through it.
    """
    engines = _series_engines(cfg, measures, use_oracle)
    rs = range(r_max + 1)
    oracle_measures = tuple(m for m in engines if engines[m] == "oracle")
    oracle_rows = []
    if oracle_measures:
        dist = evolve(cfg, 0)
        for r in rs:
            if r > 0:
                dist = gga_iterate(dist, 1)
            oracle_rows.append(_generic_measures(dist, cfg, oracle_measures, optimizer)[0])
    st = state_at(cfg, np.arange(r_max + 1))
    columns = {}
    for m, engine in engines.items():
        if engine == "analytic":
            values = MEASURES[m].closed_form(cfg, st, optimizer)
            columns[m] = [v.value for v in values] if MEASURES[m].slow else values.tolist()
        elif engine == "oracle":
            columns[m] = [oracle[m] for oracle in oracle_rows]
        else:
            columns[m] = [None] * len(rs)  # NA
    keys = ("j", "r") + tuple(columns)
    return [dict(zip(keys, row)) for row in zip([cfg.j] * len(rs), rs, *columns.values())]


@dataclass(frozen=True, eq=False)
class SweepResult:
    columns: tuple
    rows: list
    engines: dict
    extra_metadata: dict


def ga_sweep(run: RunConfig) -> SweepResult:
    """Measure sweep over r = 0..r_opt for each requested solution count.

    An explicit r range is validated against 0..r_opt: requests past the
    optimal stopping time are clamped and flagged in the metadata (the
    underlying formulas stay valid, but sweeps report the algorithm's run).
    """
    measures = tuple(m for m in MEASURE_KEYS if m in run.measures and m != "p")
    if run.r_max is not None and run.r_max < 0:
        raise ValueError(f"r-max must be >= 0, got {run.r_max}")
    if not run.j_values:
        raise ValueError("the solution-count list is empty")
    optimizer = replace(run.optimizer, seed=run.seed)
    extra = {}
    rows = []
    engines = {}
    for j in run.j_values:
        cfg = GroverConfig(n=run.n, j=j)
        r_limit = optimal_iteration_details(cfg).r_opt
        r_max = r_limit if run.r_max is None else min(run.r_max, r_limit)
        if run.r_max is not None and run.r_max > r_limit:
            extra[f"r_max_clamped.j{j}"] = r_limit
        rows += _ga_series_rows(cfg, r_max, measures, optimizer, run.use_oracle)
        for m, eng in _series_engines(cfg, measures, run.use_oracle).items():
            engines[f"j{j}.{m}"] = eng
    columns = (("j",) if len(run.j_values) > 1 else ()) + ("r", "p") + measures
    return SweepResult(columns=columns, rows=rows, engines=engines, extra_metadata=extra)


def phi_sweep(run: RunConfig) -> SweepResult:
    """Coherence depletion vs optimal measurement time across the phi family."""
    if not 2 <= run.n <= FLOAT_SAFE_QUBITS:
        raise ValueError(f"qubit count must lie in 2..{FLOAT_SAFE_QUBITS}, got {run.n}")
    if run.phi_points < 1:
        raise ValueError(f"phi-points must be >= 1, got {run.phi_points}")
    N = 1 << run.n
    points = np.linspace(0.0, 1.0 / math.sqrt(N), run.phi_points)
    rows = []
    for phi0 in points:
        fam = PhiFamily.from_phi0(N, float(phi0))
        dist = phi_family_distribution(fam)
        opt = gga_optimal_time(dist)
        rows.append(
            {
                "phi0": float(phi0),
                "r_opt": opt.time,
                "delta_cr": phi_family_delta_coherence(fam),
                "p_max": gga_pmax(dist),
            }
        )
    return SweepResult(
        columns=("phi0", "r_opt", "delta_cr", "p_max"),
        rows=rows,
        engines={"all": "closed-form"},
        extra_metadata={"N": N},
    )


def init_file_sweep(run: RunConfig, dist0: AmplitudeDistribution) -> SweepResult:
    """Per-step amplitudes, averages and success probability for a custom start.

    One pass steps to max(r_max, ceil(t_opt)); p_floor and p_ceil come from it too.
    """
    if run.r_max is not None and run.r_max < 0:
        raise ValueError(f"r-max must be >= 0, got {run.r_max}")
    opt = gga_optimal_time(dist0)
    r_max = run.r_max if run.r_max is not None else max(1, math.ceil(opt.time))
    rows = []
    dist = dist0
    amplitude_log = []
    p = []
    for r in range(max(r_max, math.ceil(opt.time)) + 1):
        if r > 0:
            dist = gga_iterate(dist, 1)
        p.append(dist.success_probability())
        if r > r_max:
            continue
        rows.append(
            {
                "r": r,
                "p": p[r],
                "kbar_re": dist.kbar.real,
                "kbar_im": dist.kbar.imag,
                "lbar_re": dist.lbar.real,
                "lbar_im": dist.lbar.imag,
            }
        )
        amplitude_log.append(
            {
                "r": r,
                "solution_amplitudes": dist.solution_amplitudes.view(float).reshape(-1, 2),
                "other_amplitudes": dist.other_amplitudes.view(float).reshape(-1, 2),
            }
        )
    extra = {
        "n": dist0.n,
        "solutions": list(dist0.solutions),
        "optimal_time": opt.time,
        "optimal_time_method": opt.method,
        "degenerate_phase": opt.degenerate_phase,
        "p_floor": p[math.floor(opt.time)],
        "p_ceil": p[math.ceil(opt.time)],
        "p_max": gga_pmax(dist0),
        "amplitudes_per_step": amplitude_log,
    }
    if dist0.is_real:
        cf = gga_closed_form(dist0)
        extra["closed_form"] = {"omega": cf.omega, "beta": cf.beta, "C": cf.C}
    return SweepResult(
        columns=("r", "p", "kbar_re", "kbar_im", "lbar_re", "lbar_im"),
        rows=rows,
        engines={"all": "iteration"},
        extra_metadata=extra,
    )


def verify_rows(run: RunConfig):
    summary = cross_validate(
        max_n=run.max_n,
        j_values=run.j_values,
        seed=run.seed,
        fault=run.inject_fault,
    )
    rows = [
        {
            "name": c.name,
            "max_deviation": c.max_deviation,
            "tolerance": c.tolerance,
            "passed": c.passed,
            "cases": c.cases,
        }
        for c in summary.checks
    ]
    return summary, SweepResult(
        columns=("name", "max_deviation", "tolerance", "passed", "cases"),
        rows=rows,
        engines={},
        extra_metadata={"passed": summary.passed, "fault": summary.fault},
    )


def _format_value(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".12g")


def base_metadata(run: RunConfig, engines: dict) -> dict:
    return {
        "version": __version__,
        "seed": run.seed,
        "tolerances": {
            "hermitian": HERMITIAN_TOL,
            "trace": TRACE_TOL,
            "optimizer_refine": run.optimizer.refine_tol,
        },
        "engines": engines,
    }


def render_csv(result: SweepResult, run: RunConfig) -> str:
    """CSV with '#'-prefixed metadata lines, a header row, 12 significant digits, LF."""
    meta = base_metadata(run, result.engines)
    lines = [
        f"# version={meta['version']}",
        f"# command={run.command}",
        f"# seed={run.seed}",
    ]
    for key, value in result.engines.items():
        lines.append(f"# engine.{key}={value}")
    for key, value in result.extra_metadata.items():
        if key == "amplitudes_per_step":
            continue  # JSON-only payload
        if isinstance(value, (dict, list)):
            lines.append(f"# {key}={json.dumps(value, separators=(',', ':'))}")
        else:
            lines.append(f"# {key}={_format_value(value)}")
    lines.append(",".join(result.columns))
    for row in result.rows:
        lines.append(",".join(_format_value(row.get(c)) for c in result.columns))
    return "\n".join(lines) + "\n"


# Stands in for an ndarray in json's output; no path or other CLI string holds a NUL.
_ARRAY_MARK = "\x00ndarray\x00"


def _pair_array_json(a: np.ndarray, indent: str) -> str:
    """(M, 2) finite floats as json.dumps(a.tolist(), indent=2) writes them at `indent`."""
    inner, item = indent + "  ", indent + "    "
    pair = f"[\n{item}%s,\n{item}%s\n{inner}]"
    pairs = f",\n{inner}".join([pair] * len(a)) % tuple(map(float.__repr__, a.ravel().tolist()))
    return f"[\n{inner}{pairs}\n{indent}]" if len(a) else "[]"


def render_json(result: SweepResult, run: RunConfig) -> str:
    """json.dumps(doc, indent=2); each ndarray is a marker there, replaced by one text block."""
    doc = {
        "config": run.to_dict(),
        "rows": result.rows,
        "metadata": {**base_metadata(run, result.engines), **result.extra_metadata},
    }
    arrays = []

    def stash(obj):
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        arrays.append(obj)
        return _ARRAY_MARK

    pieces = json.dumps(doc, indent=2, default=stash).split(json.dumps(_ARRAY_MARK))
    if len(pieces) != len(arrays) + 1:
        raise AssertionError(f"{len(pieces) - 1} array markers for {len(arrays)} arrays")
    for i, a in enumerate(arrays):
        line = pieces[i][pieces[i].rfind("\n") + 1 :]  # the indent, then the key if any
        pieces[i] += _pair_array_json(a, line[: len(line) - len(line.lstrip())])
    pieces[-1] += "\n"  # not on the joined text, which may be megabytes
    return "".join(pieces)


def render(result: SweepResult, run: RunConfig) -> str:
    if run.fmt == "json":
        return render_json(result, run)
    if run.fmt == "csv":
        return render_csv(result, run)
    raise ValueError(f"unknown format {run.fmt!r}")


_GNUPLOT = {
    "fig2": """set datafile separator ','
set xlabel 'iteration r'
set ylabel 'relative-entropy coherence (bits)'
set key outside
plot for [jj=1:10] 'fig2.csv' using 2:($1==jj?$3:1/0) with linespoints title sprintf('j=%d', jj)
""",
    "fig3": """set datafile separator ','
set xlabel 'optimal measurement time'
set ylabel 'coherence depletion (bits)'
plot 'fig3.csv' using 2:3 with points pt 7 title 'phi family, N=1024'
""",
    "fig4": """set datafile separator ','
set xlabel 'iteration r'
set key outside
plot 'fig4.csv' using 1:2 with points pt 5 title 'success probability', \\
     'fig4.csv' using 1:3 with points pt 9 title 'pairwise concurrence', \\
     'fig4.csv' using 1:4 with points pt 7 title 'multipartite concurrence'
""",
    "fig5": """set datafile separator ','
set xlabel 'iteration r'
set key outside
plot 'fig5.csv' using 1:2 with points pt 5 title 'success probability', \\
     'fig5.csv' using 1:3 with points pt 9 title 'pairwise discord', \\
     'fig5.csv' using 1:4 with points pt 7 title 'genuine multipartite correlation'
""",
}


def figure_outputs(run: RunConfig) -> dict:
    """Plot-ready data files and gnuplot scripts for the four measure sweeps."""
    files: dict[str, str] = {}

    fig2_run = RunConfig(
        command="figures.fig2",
        n=11,
        j_values=tuple(range(1, 11)),
        measures=("cr",),
        seed=run.seed,
        optimizer=run.optimizer,
    )
    files["fig2.csv"] = render_csv(ga_sweep(fig2_run), fig2_run)

    fig3_run = RunConfig(command="figures.fig3", n=10, phi_points=run.phi_points, seed=run.seed)
    files["fig3.csv"] = render_csv(phi_sweep(fig3_run), fig3_run)

    fig4_run = RunConfig(
        command="figures.fig4",
        n=11,
        j_values=(1,),
        measures=("e2", "en"),
        seed=run.seed,
        optimizer=run.optimizer,
    )
    files["fig4.csv"] = render_csv(ga_sweep(fig4_run), fig4_run)

    fig5_run = RunConfig(
        command="figures.fig5",
        n=11,
        j_values=(1,),
        measures=("d2", "dn"),
        seed=run.seed,
        optimizer=run.optimizer,
    )
    files["fig5.csv"] = render_csv(ga_sweep(fig5_run), fig5_run)

    for name, script in _GNUPLOT.items():
        files[f"{name}.gp"] = script
    return files

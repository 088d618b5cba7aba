"""Sweep assembly and deterministic CSV/JSON serialization for the CLI."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from itertools import chain

import numpy as np

from . import __version__
from .bruteforce import (
    DEFAULT_GA_MEASURES,
    MEASURE_KEYS,
    MEASURES,
    _generic_measures,
    cross_validate,
    evolve_series,
)
from .gga import (
    AmplitudeDistribution,
    PhiFamily,
    gga_closed_form,
    gga_iterate,
    gga_optimal_time,
    gga_pmax,
    phi_family_delta_coherence,
    phi_family_optimal_time,
)
from .grover import FLOAT_SAFE_QUBITS, GroverConfig, optimal_iteration_details, state_at
from .linalg import HERMITIAN_TOL, TRACE_TOL
from .optimizers import OptimizerConfig


# The most rows one sweep may have (for `ga`, summed over its j series): about
# five times `ga --n 40`'s 823,550. Past it a sweep is a usage error that names
# the option to lower, before anything is allocated.
MAX_ROWS = 4_000_000


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation; identical configs must produce byte-identical output."""

    command: str
    n: int = 11
    j_values: tuple = (1,)
    r_max: int | None = None
    measures: tuple = DEFAULT_GA_MEASURES
    seed: int = 0
    fmt: str = "csv"
    use_oracle: bool = True
    phi_points: int = 50
    init_file: str | None = None
    max_n: int = 8
    inject_fault: float = 0.0
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def to_dict(self) -> dict:
        """The fields in order, `fmt` as "format", and the optimizer's grid, restarts and tolerance."""
        doc = {"format" if f.name == "fmt" else f.name: getattr(self, f.name) for f in fields(self)}
        keys = ("theta_grid", "phi_grid", "restarts", "refine_tol")
        doc["optimizer"] = {key: getattr(self.optimizer, key) for key in keys}
        return doc


def _ga_series_columns(cfg: GroverConfig, r_max: int, measures, optimizer, use_oracle: bool) -> tuple:
    """(engines, columns) of one (n, j) series: the engine of p and of each
    measure, and the columns j, r, p and each measure, one array each.

    Each analytic column is one closed-form call on the state of the whole
    series; the oracle columns are one oracle call each on the series'
    amplitude stack. A measure with no engine is an all-NA (masked) column.
    """
    engines = {m: MEASURES[m].engine(cfg, use_oracle) for m in ("p",) + tuple(measures)}
    rs = np.arange(r_max + 1)
    oracle_measures = tuple(m for m in engines if engines[m] == "oracle")
    if oracle_measures:
        oracle, _ = _generic_measures(evolve_series(cfg, r_max), cfg, oracle_measures, optimizer)
    st = state_at(cfg, rs)
    columns = {"j": np.full(rs.size, cfg.j), "r": rs}
    for m, engine in engines.items():
        if engine == "analytic":
            columns[m] = MEASURES[m].series(cfg, st, optimizer)
        elif engine == "oracle":
            columns[m] = oracle[m]
        else:
            columns[m] = np.ma.masked_all(rs.size)  # NA
    return engines, columns


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep as one 1-D array per column.

    `data` maps each JSON row field, in row order, to an int or float array,
    a float masked array whose masked cells are NA, or an object array
    (strings, booleans, None). `columns` names the CSV columns, all in `data`.
    """

    columns: tuple
    data: dict
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
    limits = []  # (cfg, r_max) per j, in order; a repeated j is a repeated series
    for j in run.j_values:
        cfg = GroverConfig(n=run.n, j=j)
        r_limit = optimal_iteration_details(cfg).r_opt
        limits.append((cfg, r_limit if run.r_max is None else min(run.r_max, r_limit)))
        if run.r_max is not None and run.r_max > r_limit:
            extra[f"r_max_clamped.j{j}"] = r_limit
    rows = sum(r_max + 1 for _, r_max in limits)
    if rows > MAX_ROWS:
        raise ValueError(f"the sweep would have {rows:,} rows, more than the {MAX_ROWS:,} allowed; lower --r-max")
    series = []
    engines = {}
    for cfg, r_max in limits:
        series_engines, columns = _ga_series_columns(cfg, r_max, measures, optimizer, run.use_oracle)
        series.append(columns)
        engines.update({f"j{cfg.j}.{m}": eng for m, eng in series_engines.items()})
    data = {key: np.ma.concatenate([s[key] for s in series]) for key in series[0]}
    columns = (("j",) if len(run.j_values) > 1 else ()) + ("r", "p") + measures
    return SweepResult(columns=columns, data=data, engines=engines, extra_metadata=extra)


def phi_sweep(run: RunConfig) -> SweepResult:
    """Coherence depletion vs optimal measurement time across the phi family.

    Every column is a closed form of the family's (N, phi0, phi1); p_max is
    exactly 1, as the non-solution tail is uniform (see PhiFamily).
    """
    if not 2 <= run.n <= FLOAT_SAFE_QUBITS:
        raise ValueError(f"qubit count must lie in 2..{FLOAT_SAFE_QUBITS}, got {run.n}")
    if not 1 <= run.phi_points <= MAX_ROWS:
        raise ValueError(f"--phi-points must lie in 1..{MAX_ROWS:,}, got {run.phi_points:,}")
    N = 1 << run.n
    points = np.linspace(0.0, 1.0 / math.sqrt(N), run.phi_points)
    values = np.empty((3, points.size))
    for i, phi0 in enumerate(points.tolist()):
        fam = PhiFamily.from_phi0(N, phi0)
        values[:, i] = phi_family_optimal_time(fam), phi_family_delta_coherence(fam), 1.0
    columns = ("phi0", "r_opt", "delta_cr", "p_max")
    return SweepResult(
        columns=columns,
        data=dict(zip(columns, (points, *values))),
        engines={"all": "closed-form"},
        extra_metadata={"N": N},
    )


def init_file_sweep(run: RunConfig, dist0: AmplitudeDistribution) -> SweepResult:
    """Per-step averages and success probability for a custom start, and for JSON the per-step amplitudes.

    One pass steps to max(r_max, ceil(t_opt)); p_floor and p_ceil come from it too.
    """
    if run.r_max is not None and not 0 <= run.r_max < MAX_ROWS:
        raise ValueError(f"--r-max must lie in 0..{MAX_ROWS - 1:,} ({MAX_ROWS:,} rows), got {run.r_max:,}")
    opt = gga_optimal_time(dist0)
    r_max = run.r_max if run.r_max is not None else max(1, math.ceil(opt.time))
    dist = dist0
    amplitude_log = [] if run.fmt == "json" else None  # only JSON prints the amplitudes
    averages = np.empty((r_max + 1, 2), dtype=complex)
    p = np.empty(max(r_max, math.ceil(opt.time)) + 1)
    for r in range(p.size):
        if r > 0:
            dist = gga_iterate(dist, 1)
        p[r] = dist.success_probability()
        if r > r_max:
            continue
        averages[r] = dist.kbar, dist.lbar
        if amplitude_log is not None:
            sol, other = (a.view(float).reshape(-1, 2) for a in (dist.solution_amplitudes, dist.other_amplitudes))
            amplitude_log.append({"r": r, "solution_amplitudes": sol, "other_amplitudes": other})
    extra = {
        "n": dist0.n,
        "solutions": list(dist0.solutions),
        "optimal_time": opt.time,
        "optimal_time_method": opt.method,
        "degenerate_phase": opt.degenerate_phase,
        "p_floor": float(p[math.floor(opt.time)]),
        "p_ceil": float(p[math.ceil(opt.time)]),
        "p_max": gga_pmax(dist0),
    }
    if amplitude_log is not None:
        extra["amplitudes_per_step"] = amplitude_log
    if dist0.is_real:
        cf = gga_closed_form(dist0)
        extra["closed_form"] = {"omega": cf.omega, "beta": cf.beta, "C": cf.C}
    columns = ("r", "p", "kbar_re", "kbar_im", "lbar_re", "lbar_im")
    kbar, lbar = averages.T
    values = (np.arange(r_max + 1), p[: r_max + 1], kbar.real, kbar.imag, lbar.real, lbar.imag)
    return SweepResult(
        columns=columns,
        data=dict(zip(columns, values)),
        engines={"all": "iteration"},
        extra_metadata=extra,
    )


def verify_rows(run: RunConfig):
    summary = cross_validate(max_n=run.max_n, j_values=run.j_values, seed=run.seed, fault=run.inject_fault)
    columns = ("name", "max_deviation", "tolerance", "passed", "cases")
    # a dozen identities: object columns, each cell formatted as it is
    data = {key: np.array([getattr(c, key) for c in summary.checks], dtype=object) for key in columns}
    return summary, SweepResult(
        columns=columns,
        data=data,
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


def _cells(column, float_spec: str, na: str, cell) -> tuple:
    """(%-spec, cell values) of one column for a %-format row template.

    Int and float cells are converted by the template itself; NA cells,
    non-finite floats and object cells arrive as strings made by `cell`.
    """
    values = np.ma.getdata(column)
    mask = np.ma.getmaskarray(column)
    if values.dtype.kind in "iu" and not mask.any():
        return "%d", values.tolist()
    if values.dtype.kind != "f":
        return "%s", [na if m else cell(v) for v, m in zip(values.tolist(), mask.tolist())]
    odd = ~mask & ~np.isfinite(values)
    if not (mask.any() or odd.any()):
        return float_spec, values.tolist()
    text = np.array(list(map(float_spec.__mod__, values.tolist())), dtype=object)
    text[odd] = [cell(v) for v in values[odd].tolist()]
    text[mask] = na
    return "%s", text.tolist()


# Rows (or amplitude pairs) per formatted block: only one block's cells are
# Python objects at a time.
_BLOCK_ROWS = 1 << 13


def _table_block(data: dict, rows: range, float_spec: str, na: str, cell, row_template) -> str:
    """The `rows` of every `data` column, each written by row_template(specs) % its cells."""
    columns = [_cells(column[rows.start : rows.stop], float_spec, na, cell) for column in data.values()]
    template = row_template([spec for spec, _ in columns])
    values = tuple(chain.from_iterable(zip(*(cells for _, cells in columns))))
    return "".join([template] * len(rows)) % values


def _table(data: dict, *formats):
    """Every row of the `data` columns, in blocks of _BLOCK_ROWS rows; see `_table_block`."""
    rows = range(len(next(iter(data.values()), ())))
    for start in range(0, len(rows), _BLOCK_ROWS):
        yield _table_block(data, rows[start : start + _BLOCK_ROWS], *formats)


def _csv_blocks(result: SweepResult, run: RunConfig):
    """CSV with '#'-prefixed metadata lines, a header row, 12 significant digits, LF."""
    lines = [f"# version={__version__}", f"# command={run.command}", f"# seed={run.seed}"]
    for key, value in result.engines.items():
        lines.append(f"# engine.{key}={value}")
    for key, value in result.extra_metadata.items():
        if isinstance(value, (dict, list)):
            lines.append(f"# {key}={json.dumps(value, separators=(',', ':'))}")
        else:
            lines.append(f"# {key}={_format_value(value)}")
    lines.append(",".join(result.columns))
    yield "\n".join(lines) + "\n"
    columns = {name: result.data[name] for name in result.columns}
    yield from _table(columns, "%.12g", "NA", _format_value, lambda specs: ",".join(specs) + "\n")


# Stands in for a block of text in json's output; no path or other CLI string holds a NUL.
_ARRAY_MARK = "\x00ndarray\x00"


def _json_list(data: dict, labels, brackets: str, indent: str):
    """The rows of `data` as json.dumps(rows, indent=2) writes them at `indent`, in blocks: each
    row a dict in "{}", its cells labelled '"key": ', or a list in "[]", its labels empty."""
    inner, field = indent + "  ", indent + "    "

    def row(specs):
        body = ",\n".join(f"{field}{label}{spec}" for label, spec in zip(labels, specs))
        return f",\n{inner}{brackets[0]}\n{body}\n{inner}{brackets[1]}"

    blocks = _table(data, "%r", "null", json.dumps, row)
    first = next(blocks, None)
    if first is None:
        yield "[]"
        return
    yield "[" + first[1:]  # the first row has no comma before it
    yield from blocks
    yield f"\n{indent}]"


def _json_blocks(result: SweepResult, run: RunConfig):
    """json.dumps(doc, indent=2); the rows and each (M, 2) ndarray are a marker there, replaced by their text blocks."""
    doc = {
        "config": run.to_dict(),
        "rows": result,
        "metadata": {**base_metadata(run, result.engines), **result.extra_metadata},
    }
    lists = []  # (data, labels, brackets) of each marker, in order

    def stash(obj):
        if obj is result:
            lists.append((result.data, [json.dumps(key).replace("%", "%%") + ": " for key in result.data], "{}"))
        elif isinstance(obj, np.ndarray):
            lists.append(({"re": obj[:, 0], "im": obj[:, 1]}, ("", ""), "[]"))
        else:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        return _ARRAY_MARK

    pieces = json.dumps(doc, indent=2, default=stash).split(json.dumps(_ARRAY_MARK))
    if len(pieces) != len(lists) + 1:
        raise AssertionError(f"{len(pieces) - 1} markers for {len(lists)} blocks")
    for piece, data in zip(pieces, lists):
        line = piece[piece.rfind("\n") + 1 :]  # the indent, then the key if any
        yield piece
        yield from _json_list(*data, line[: len(line) - len(line.lstrip())])
    yield pieces[-1] + "\n"


_BLOCKS = {"csv": _csv_blocks, "json": _json_blocks}


def _blocks(result: SweepResult, run: RunConfig):
    if run.fmt not in _BLOCKS:
        raise ValueError(f"unknown format {run.fmt!r}")
    return _BLOCKS[run.fmt](result, run)


def render(result: SweepResult, run: RunConfig) -> str:
    """The whole document as one string; `write` streams the same text."""
    return "".join(_blocks(result, run))


# Characters per write call: a block is never held again whole as encoded bytes.
_WRITE_CHARS = 1 << 20


def write(result: SweepResult, run: RunConfig, write) -> None:
    """Pass the document to write(str) block by block, as it is formatted."""
    for block in _blocks(result, run):
        for start in range(0, len(block), _WRITE_CHARS):
            write(block[start : start + _WRITE_CHARS])
        del block  # freed before the next block is formatted


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
    files["fig2.csv"] = render(ga_sweep(fig2_run), fig2_run)

    fig3_run = RunConfig(command="figures.fig3", n=10, phi_points=run.phi_points, seed=run.seed)
    files["fig3.csv"] = render(phi_sweep(fig3_run), fig3_run)

    fig4_run = RunConfig(
        command="figures.fig4",
        n=11,
        j_values=(1,),
        measures=("e2", "en"),
        seed=run.seed,
        optimizer=run.optimizer,
    )
    files["fig4.csv"] = render(ga_sweep(fig4_run), fig4_run)

    fig5_run = RunConfig(
        command="figures.fig5",
        n=11,
        j_values=(1,),
        measures=("d2", "dn"),
        seed=run.seed,
        optimizer=run.optimizer,
    )
    files["fig5.csv"] = render(ga_sweep(fig5_run), fig5_run)

    for name, script in _GNUPLOT.items():
        files[f"{name}.gp"] = script
    return files

"""Sweep assembly and deterministic CSV/JSON serialization for the CLI."""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from functools import partial

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
from .grover import FLOAT_SAFE_QUBITS, GroverConfig, _rows_state, optimal_iteration_details
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


# Rows per block: a sweep is computed and written this many rows at a time, so
# its memory does not grow with its row count.
_BLOCK_ROWS = 1 << 13


def _slices(data: dict):
    """The rows of whole `data` columns as blocks of `_BLOCK_ROWS` rows, each a dict of slices."""
    rows = len(next(iter(data.values()), ()))
    for start in range(0, rows, _BLOCK_ROWS):
        yield {key: column[start : start + _BLOCK_ROWS] for key, column in data.items()}


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep as a stream of row blocks.

    `blocks()` yields the rows in order, in blocks of at most `_BLOCK_ROWS`
    rows, and computes them afresh at each call. A block maps each JSON row
    field, in row order, to a 1-D int or float array, a float masked array
    whose masked cells are NA, or an object array (strings, booleans, None).
    `columns` names the CSV columns, all in every block.
    """

    columns: tuple
    blocks: Callable
    engines: dict
    extra_metadata: dict

    def join(self) -> dict:
        """Every block joined into whole columns: for a sweep small enough to hold at once."""
        blocks = list(self.blocks())
        return {key: np.ma.concatenate([b[key] for b in blocks]) for key in blocks[0]} if blocks else {}


def _ga_blocks(series: list, optimizer):
    """The rows of a `ga` sweep, series after series, in blocks of `_BLOCK_ROWS` rows.

    `series` holds (cfg, r_max, engines) per j. A block has one state for the
    rows of every series in it, each row rounding as in its whole series, so
    the blocking changes no bit. An any-j column is one closed-form call on it,
    any other analytic column one call per j with that j's cfg, and an oracle
    column a slice of one call on each series' whole amplitude stack. A row
    whose series has no engine for a measure is NA (masked) there.
    """
    ends = np.cumsum([r_max + 1 for _, r_max, _ in series])
    starts = np.concatenate(([0], ends[:-1]))
    js = [cfg.j for cfg, _, _ in series]
    j_column = np.array(js, dtype=int if max(js) < 1 << 63 else object)  # exact ints past int64 too
    whole = [m for m, engine in series[0][2].items() if MEASURES[m].any_j and engine == "analytic"]
    carry = None, None  # (index, oracle columns) of the last series with any: it may span blocks
    for start in range(0, ends[-1], _BLOCK_ROWS):
        s = np.searchsorted(ends, np.arange(start, min(start + _BLOCK_ROWS, ends[-1])), side="right")
        r = np.arange(start, start + s.size) - starts[s]
        st = _rows_state([cfg for cfg, _, _ in series[s[0] : s[-1] + 1]], s - s[0], r)
        values = {m: np.zeros(s.size) for m in series[0][2] if m not in whole}
        na = {m: np.ones(s.size, dtype=bool) for m in values}
        groups = {}  # (measure, j) -> (cfg, the series whose rows one closed-form call takes)
        for i in range(s[0], s[-1] + 1):
            cfg, r_max, engines = series[i]
            at = slice(max(starts[i] - start, 0), ends[i] - start)
            for m in values:
                if engines[m] == "analytic":
                    groups.setdefault((m, cfg.j), (cfg, []))[1].append(i)
                elif engines[m] == "oracle":
                    if carry[0] != i:
                        wanted = tuple(k for k in engines if engines[k] == "oracle")
                        carry = i, _generic_measures(evolve_series(cfg, r_max), cfg, wanted, optimizer)
                    values[m][at], na[m][at] = carry[1][m][r[at]], False
        for (m, _), (cfg, group) in groups.items():
            rows = slice(None) if len(group) == s[-1] - s[0] + 1 else np.flatnonzero(np.isin(s, group))
            values[m][rows], na[m][rows] = MEASURES[m].closed_form(cfg, st.rows(rows), optimizer), False
        yield {"j": j_column[s], "r": r} | {
            m: MEASURES[m].closed_form(series[s[0]][0], st, optimizer) if m in whole else np.ma.array(values[m], mask=na[m])
            for m in series[0][2]
        }


def ga_sweep(run: RunConfig) -> SweepResult:
    """Measure sweep over r = 0..r_opt for each requested solution count.

    An explicit r range is validated against 0..r_opt: requests past the
    optimal stopping time are clamped and flagged in the metadata (the
    underlying formulas stay valid, but sweeps report the algorithm's run).
    The checks, the row cap and each series' engines run here; the rows are
    computed block by block as the result is written.
    """
    measures = tuple(m for m in MEASURE_KEYS if m in run.measures and m != "p")
    if run.r_max is not None and run.r_max < 0:
        raise ValueError(f"r-max must be >= 0, got {run.r_max}")
    if not run.j_values:
        raise ValueError("the solution-count list is empty")
    series, engines, extra = [], {}, {}  # (cfg, r_max, engines) per j, in order; a repeated j is a repeated series
    for j in run.j_values:
        cfg = GroverConfig(n=run.n, j=j)
        r_limit = optimal_iteration_details(cfg).r_opt
        if run.r_max is not None and run.r_max > r_limit:
            extra[f"r_max_clamped.j{j}"] = r_limit
        series_engines = {m: MEASURES[m].engine(cfg, run.use_oracle) for m in ("p",) + measures}
        engines.update({f"j{j}.{m}": engine for m, engine in series_engines.items()})
        series.append((cfg, r_limit if run.r_max is None else min(run.r_max, r_limit), series_engines))
    rows = sum(r_max + 1 for _, r_max, _ in series)
    if rows > MAX_ROWS:
        raise ValueError(f"the sweep would have {rows:,} rows, more than the {MAX_ROWS:,} allowed; lower --r-max")
    columns = (("j",) if len(run.j_values) > 1 else ()) + ("r", "p") + measures
    blocks = partial(_ga_blocks, series, replace(run.optimizer, seed=run.seed))
    return SweepResult(columns=columns, blocks=blocks, engines=engines, extra_metadata=extra)


def _phi_blocks(N: int, points: np.ndarray):
    """The rows of a phi sweep, the family of one block of `_BLOCK_ROWS` points at a time."""
    for block in _slices({"phi0": points}):
        fam = PhiFamily.from_phi0(N, block["phi0"])
        yield {**block, "r_opt": phi_family_optimal_time(fam), "delta_cr": phi_family_delta_coherence(fam),
               "p_max": np.ones(fam.phi0.size)}


def phi_sweep(run: RunConfig) -> SweepResult:
    """Coherence depletion vs optimal measurement time across the phi family.

    Every column is a closed form of the family's (N, phi0, phi1); p_max is
    exactly 1, as the non-solution tail is uniform (see PhiFamily). The
    checks run here; the rows are computed block by block as the result is
    written.
    """
    if not 2 <= run.n <= FLOAT_SAFE_QUBITS:
        raise ValueError(f"qubit count must lie in 2..{FLOAT_SAFE_QUBITS}, got {run.n}")
    if not 1 <= run.phi_points <= MAX_ROWS:
        raise ValueError(f"--phi-points must lie in 1..{MAX_ROWS:,}, got {run.phi_points:,}")
    N = 1 << run.n
    return SweepResult(
        columns=("phi0", "r_opt", "delta_cr", "p_max"),
        blocks=partial(_phi_blocks, N, np.linspace(0.0, 1.0 / math.sqrt(N), run.phi_points)),
        engines={"all": "closed-form"},
        extra_metadata={"N": N},
    )


@dataclass(frozen=True, eq=False)
class _AmplitudeLog:
    """A JSON list of each step's amplitudes; each walk steps a copy of the start, one step per entry."""

    dist0: AmplitudeDistribution
    r_max: int

    def __iter__(self):
        dist = self.dist0
        for r in range(self.r_max + 1):
            if r > 0:
                dist = gga_iterate(dist, 1)
            sol, other = (a.view(float).reshape(-1, 2) for a in (dist.solution_amplitudes, dist.other_amplitudes))
            yield {"r": r, "solution_amplitudes": sol, "other_amplitudes": other}


def init_file_sweep(run: RunConfig, dist0: AmplitudeDistribution) -> SweepResult:
    """Per-step averages and success probability for a custom start, and for JSON the per-step amplitudes.

    One pass steps to max(r_max, ceil(t_opt)) for the rows, p_floor and p_ceil;
    the JSON amplitude log steps again as it is written.
    """
    if run.r_max is not None and not 0 <= run.r_max < MAX_ROWS:
        raise ValueError(f"--r-max must lie in 0..{MAX_ROWS - 1:,} ({MAX_ROWS:,} rows), got {run.r_max:,}")
    opt = gga_optimal_time(dist0)
    r_max = run.r_max if run.r_max is not None else max(1, math.ceil(opt.time))
    dist = dist0
    averages = np.empty((r_max + 1, 2), dtype=complex)
    p = np.empty(max(r_max, math.ceil(opt.time)) + 1)
    for r in range(p.size):
        if r > 0:
            dist = gga_iterate(dist, 1)
        p[r] = dist.success_probability()
        if r <= r_max:
            averages[r] = dist.kbar, dist.lbar
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
    if run.fmt == "json":  # only JSON prints the amplitudes
        extra["amplitudes_per_step"] = _AmplitudeLog(dist0, r_max)
    if dist0.is_real:
        cf = gga_closed_form(dist0)
        extra["closed_form"] = {"omega": cf.omega, "beta": cf.beta, "C": cf.C}
    columns = ("r", "p", "kbar_re", "kbar_im", "lbar_re", "lbar_im")
    kbar, lbar = averages.T
    values = (np.arange(r_max + 1), p[: r_max + 1], kbar.real, kbar.imag, lbar.real, lbar.imag)
    return SweepResult(
        columns=columns,
        blocks=partial(_slices, dict(zip(columns, values))),
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
        blocks=partial(_slices, data),
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

    A column whose cells all print one text, because every cell is NA or every
    cell has one bit pattern (compared as same-width unsigned ints, so -0.0
    and 0.0 differ), is that text with '%' escaped, and its cells are None.
    """
    values = np.ma.getdata(column)
    mask = np.ma.getmaskarray(column)
    if mask.all():
        return na.replace("%", "%%"), None
    if values.dtype.kind in "biuf" and not mask.any():
        bits = values.view(f"u{values.itemsize}")
        if not (bits != bits[0]).any():
            spec, (text,) = _cell_values(values[:1], mask[:1], float_spec, na, cell)
            return (spec % (text,)).replace("%", "%%"), None
    return _cell_values(values, mask, float_spec, na, cell)


def _cell_values(values, mask, float_spec: str, na: str, cell) -> tuple:
    """(%-spec, cell values): int and float cells are converted by the template itself;
    NA cells, non-finite floats and object cells arrive as strings made by `cell`."""
    if values.dtype.kind in "iu" and not mask.any():
        return "%d", values.tolist()
    if values.dtype.kind != "f":
        return "%s", [na if m else cell(v) for v, m in zip(values.tolist(), mask.tolist())]
    fine = ~mask & np.isfinite(values)
    if fine.all():
        return float_spec, values.tolist()
    text = np.full(values.size, na, dtype=object)
    text[fine] = list(map(float_spec.__mod__, values[fine].tolist()))
    odd = ~(mask | fine)
    text[odd] = [cell(v) for v in values[odd].tolist()]
    return "%s", text.tolist()


# Rows (or amplitude pairs) per formatted block: only one such block's cells
# are Python objects at a time. A JSON row is several times as wide as a CSV
# row, so this is a fraction of `_BLOCK_ROWS`.
_TABLE_ROWS = 1 << 11


def _table_block(data: dict, rows: range, float_spec: str, na: str, cell, row_template) -> str:
    """The `rows` of every `data` column, each written by row_template({key: spec}) % its cells;
    a column of one text is in the template and has no cells."""
    columns = {key: _cells(column[rows.start : rows.stop], float_spec, na, cell) for key, column in data.items()}
    template = row_template({key: spec for key, (spec, _) in columns.items()})
    lists = [cells for _, cells in columns.values() if cells is not None]
    values = [None] * (len(rows) * len(lists))
    for i, cells in enumerate(lists):  # row by row: a slice per column, not a tuple per row
        values[i :: len(lists)] = cells
    return "".join([template] * len(rows)) % tuple(values)


def _table(blocks, *formats):
    """Every row of each block of columns, in pieces of `_TABLE_ROWS` rows; see `_table_block`."""
    for data in blocks:
        rows = range(len(next(iter(data.values()), ())))
        for start in range(0, len(rows), _TABLE_ROWS):
            yield _table_block(data, rows[start : start + _TABLE_ROWS], *formats)


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
    blocks = ({name: block[name] for name in result.columns} for block in result.blocks())
    yield from _table(blocks, "%.12g", "NA", _format_value, lambda specs: ",".join(specs.values()) + "\n")


def _json_scalar(value) -> str:
    """json.dumps(value), with a non-finite float as the CSV writer's token in a JSON string."""
    if isinstance(value, float) and not math.isfinite(value):
        value = _format_value(value)
    return json.dumps(value)


def _json_list(blocks, label, brackets: str, indent: str):
    """The rows of the column blocks as json.dumps(rows, indent=2) writes them at `indent`, in blocks:
    each row a dict in "{}", its cells labelled label(key) = '"key": ', or a list in "[]", label(key) = ""."""
    inner, field = indent + "  ", indent + "    "

    def row(specs):
        body = ",\n".join(f"{field}{label(key)}{spec}" for key, spec in specs.items())
        return f",\n{inner}{brackets[0]}\n{body}\n{inner}{brackets[1]}"

    table = _table(blocks, "%r", "null", _json_scalar, row)
    first = next(table, None)
    if first is None:
        yield "[]"
        return
    yield "[" + first[1:]  # the first row has no comma before it
    yield from table
    yield f"\n{indent}]"


def _json_value(obj, indent: str):
    """json.dumps(obj, indent=2) at `indent`, in blocks, scalars as `_json_scalar` writes them; a SweepResult's
    rows and each (M, 2) float array are `_json_list` tables."""
    if isinstance(obj, SweepResult):
        yield from _json_list(obj.blocks(), lambda key: json.dumps(key).replace("%", "%%") + ": ", "{}", indent)
    elif isinstance(obj, np.ndarray):
        yield from _json_list(({"re": obj[:, 0], "im": obj[:, 1]},), lambda key: "", "[]", indent)
    elif isinstance(obj, (dict, list, tuple, _AmplitudeLog)):
        inner, brackets = indent + "  ", "{}" if isinstance(obj, dict) else "[]"
        items = ((json.dumps(key) + ": ", v) for key, v in obj.items()) if brackets == "{}" else (("", v) for v in obj)
        sep = brackets[0]
        for label, value in items:
            yield f"{sep}\n{inner}{label}"
            yield from _json_value(value, inner)
            sep = ","
        yield brackets if sep != "," else f"\n{indent}{brackets[1]}"
    else:
        yield _json_scalar(obj)  # json.dumps raises TypeError for any other type


def _json_blocks(result: SweepResult, run: RunConfig):
    """The {config, rows, metadata} document, as json.dumps writes it with indent=2, block by block."""
    doc = {
        "config": run.to_dict(),
        "rows": result,
        "metadata": {**base_metadata(run, result.engines), **result.extra_metadata},
    }
    yield from _json_value(doc, "")
    yield "\n"


_BLOCKS = {"csv": _csv_blocks, "json": _json_blocks}


# Characters per write call: a block is never held again whole as encoded bytes.
_WRITE_CHARS = 1 << 20


def write(result: SweepResult, run: RunConfig, write) -> None:
    """Pass the document to write(str) block by block, as it is formatted."""
    if run.fmt not in _BLOCKS:
        raise ValueError(f"unknown format {run.fmt!r}")
    for block in _BLOCKS[run.fmt](result, run):
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


# (name, sweep, RunConfig fields) of each figure's data file; the other fields are the figures run's
_FIGURES = (
    ("fig2", ga_sweep, {"n": 11, "j_values": tuple(range(1, 11)), "measures": ("cr",)}),
    ("fig3", phi_sweep, {"n": 10}),
    ("fig4", ga_sweep, {"n": 11, "j_values": (1,), "measures": ("e2", "en")}),
    ("fig5", ga_sweep, {"n": 11, "j_values": (1,), "measures": ("d2", "dn")}),
)


def figure_outputs(run: RunConfig) -> dict:
    """Each plot file's name and a function that passes its text to write(str); each sweep's checks
    run here, and its rows are computed as that function writes them."""
    files = {}
    for name, sweep, changes in _FIGURES:
        figure_run = replace(run, command=f"figures.{name}", **changes)
        files[f"{name}.csv"] = partial(write, sweep(figure_run), figure_run)
    for name, script in _GNUPLOT.items():
        files[f"{name}.gp"] = lambda file_write, script=script: file_write(script)
    return files

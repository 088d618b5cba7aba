"""Sweep assembly and deterministic CSV/JSON serialization for the CLI."""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import chain, islice, repeat

import numpy as np
import orjson

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
    gga_optimal_time,
    gga_pmax,
    gga_walk,
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


def _ga_blocks(n: int, series: dict, optimizer):
    """The rows of `ga_sweep`'s table of n-qubit series, series after series, in blocks of `_BLOCK_ROWS` rows.

    Per-series floats and engine masks are built once; a block keeps nothing for the next. A block has one state
    for the rows of every series in it, each row rounding as in its whole series. An any-j column is one call of
    its closed form on that state; any other analytic column one call per distinct j of its analytic series in
    the block, with that j's cfg; and a series' oracle columns one call on the stack of its rows in the block,
    walked from r = 0. Every form and oracle works row by row, so the blocking changes no bit. A row whose series
    has no engine for a measure is NA (masked) there.
    """
    js, names, cfgs = series["j"], series["engines"], series["cfgs"]
    ends = np.cumsum(series["r_max"] + 1)
    starts = ends - series["r_max"] - 1
    j, rest = js.astype(float), np.array([float((1 << n) - x) for x in js.tolist()])  # each rounded once
    masks = {m: (names[m] == "analytic", names[m] == "oracle") for m in names if not MEASURES[m].any_j}
    walked = np.flatnonzero(np.any([oracle for _, oracle in masks.values()], axis=0))  # series with an oracle column
    cfg = next(iter(cfgs.values()))  # an any-j form reads only n from it
    for start in range(0, ends[-1], _BLOCK_ROWS):
        s = np.searchsorted(ends, np.arange(start, min(start + _BLOCK_ROWS, ends[-1])), side="right")
        first, last = s[0], s[-1] + 1
        r = np.arange(start, start + s.size) - starts[s]
        st = _rows_state(series["alpha"][s], j[s], rest[s], r)
        columns = {m: np.ma.array(np.zeros(s.size), mask=True) for m in masks}  # a cell set is no longer NA
        for m, (analytic, _) in masks.items():
            at = np.flatnonzero(analytic[first:last]) + first
            for value in dict.fromkeys(js[at].tolist()):  # each distinct j, in order
                group = at[js[at] == value]
                rows = slice(None) if group.size == last - first else np.flatnonzero(np.isin(s, group))
                columns[m][rows] = MEASURES[m].closed_form(cfgs[value], st.rows(rows), optimizer)
        for i in walked[np.searchsorted(walked, first) : np.searchsorted(walked, last)].tolist():
            rows = slice(max(starts[i] - start, 0), ends[i] - start)
            stack = evolve_series(cfgs[js[i]], r[rows][-1])[r[rows][0] :]
            wanted = [m for m, (_, oracle) in masks.items() if oracle[i]]
            for m, column in _generic_measures(stack, cfgs[js[i]], wanted, optimizer).items():
                columns[m][rows] = column
        any_j = {m: MEASURES[m].closed_form(cfg, st, optimizer) for m in names if m not in masks}
        yield {"j": js[s], "r": r} | {m: columns[m] if m in masks else any_j[m] for m in names}


def ga_sweep(run: RunConfig) -> SweepResult:
    """Measure sweep over r = 0..r_opt for each requested solution count.

    An explicit r range is validated against 0..r_opt: requests past the optimal stopping time are clamped and
    flagged in the metadata (the underlying formulas stay valid, but sweeps report the algorithm's run). The
    checks, the row cap and the series table run here: per j, in order, its exact j, alpha, r_max and each
    measure's engine, decided once for the metadata and the blocks, and the cfgs that blocks need.
    """
    keys = ("p",) + tuple(m for m in MEASURE_KEYS if m in run.measures and m != "p")
    if run.r_max is not None and run.r_max < 0:
        raise ValueError(f"r-max must be >= 0, got {run.r_max}")
    if not run.j_values:
        raise ValueError("the solution-count list is empty")
    alpha, r_max, names, cfgs, extra = [], [], {m: [] for m in keys}, {}, {}
    for j in run.j_values:  # a repeated j is a repeated series
        cfg = GroverConfig(n=run.n, j=j)
        r_limit = optimal_iteration_details(cfg).r_opt
        if run.r_max is not None and run.r_max > r_limit:
            extra[f"r_max_clamped.j{j}"] = r_limit
        alpha.append(cfg.alpha)
        r_max.append(r_limit if run.r_max is None else min(run.r_max, r_limit))
        for m in keys:
            names[m].append(MEASURES[m].engine(cfg, run.use_oracle))
        if not cfgs or any(names[m][-1] != "unavailable" and not MEASURES[m].any_j for m in keys):
            cfgs.setdefault(j, cfg)
    if (rows := sum(r_max) + len(r_max)) > MAX_ROWS:
        raise ValueError(f"the sweep would have {rows:,} rows, more than the {MAX_ROWS:,} allowed; lower --r-max")
    engines = {f"j{j}.{m}": engine for j, *row in zip(run.j_values, *names.values()) for m, engine in zip(keys, row)}
    j_column = np.array(run.j_values, dtype=int if max(run.j_values) < 1 << 63 else object)  # exact past int64 too
    series = {"j": j_column, "alpha": np.array(alpha), "r_max": np.array(r_max), "cfgs": cfgs}
    series["engines"] = {m: np.array(column, dtype=object) for m, column in names.items()}  # compact: 8 bytes a cell
    columns = (("j",) if len(run.j_values) > 1 else ()) + ("r",) + keys
    blocks = partial(_ga_blocks, run.n, series, replace(run.optimizer, seed=run.seed))
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
    """A JSON list of each step's solution and non-solution amplitudes, as (M, 2) float arrays;
    each iteration walks a copy of the start, one step per entry. `split` is (indices, mask)."""

    dist0: AmplitudeDistribution
    r_max: int
    split: tuple

    def __iter__(self):
        for r, amps in enumerate(gga_walk(self.dist0, self.r_max)):
            sol, other = (amps[at].view(float).reshape(-1, 2) for at in self.split)
            yield {"r": r, "solution_amplitudes": sol, "other_amplitudes": other}


def _init_file_blocks(dist0: AmplitudeDistribution, r_max: int, split: tuple):
    """The rows r = 0..r_max of a custom start, in blocks of `_BLOCK_ROWS` rows, from one walk of a
    raw copy of the start: p, kbar and lbar by the reductions of success_probability(), kbar and
    lbar over the solution indices and the non-solution mask of `split`."""
    sols, others = split
    walk = gga_walk(dist0, r_max)
    for start in range(0, r_max + 1, _BLOCK_ROWS):
        r = np.arange(start, min(start + _BLOCK_ROWS, r_max + 1))
        p, averages = np.empty(r.size), np.empty((r.size, 2), dtype=complex)
        for i, amps in zip(range(r.size), walk):
            k = amps[sols]
            p[i] = np.sum(np.abs(k) ** 2)
            averages[i] = k.mean(), amps[others].mean()
        kbar, lbar = averages.T
        yield {"r": r, "p": p, "kbar_re": kbar.real, "kbar_im": kbar.imag, "lbar_re": lbar.real, "lbar_im": lbar.imag}


def init_file_sweep(run: RunConfig, dist0: AmplitudeDistribution) -> SweepResult:
    """Per-step averages and success probability for a custom start, and for JSON the per-step amplitudes.

    A walk of a raw copy of the start to ceil(t_opt) keeps only p_floor and
    p_ceil; the rows step another copy block by block as they are written, and
    the JSON amplitude log another. Only the start is a validated distribution.
    """
    if run.r_max is not None and not 0 <= run.r_max < MAX_ROWS:
        raise ValueError(f"--r-max must lie in 0..{MAX_ROWS - 1:,} ({MAX_ROWS:,} rows), got {run.r_max:,}")
    opt = gga_optimal_time(dist0)
    r_max = run.r_max if run.r_max is not None else max(1, math.ceil(opt.time))
    sols = np.array(dist0.solutions)
    others = np.ones(dist0.size, dtype=bool)
    others[sols] = False  # the mask np.delete would build
    walk = islice(gga_walk(dist0, math.ceil(opt.time)), math.floor(opt.time), None)
    ends = [float(np.sum(np.abs(amps[sols]) ** 2)) for amps in walk]  # p at floor(t_opt) and ceil(t_opt)
    extra = {
        "n": dist0.n,
        "solutions": list(dist0.solutions),
        "optimal_time": opt.time,
        "optimal_time_method": opt.method,
        "degenerate_phase": opt.degenerate_phase,
        "p_floor": ends[0],
        "p_ceil": ends[-1],
        "p_max": gga_pmax(dist0),
    }
    if run.fmt == "json":  # only JSON prints the amplitudes
        extra["amplitudes_per_step"] = _AmplitudeLog(dist0, r_max, (sols, others))
    if dist0.is_real:
        cf = gga_closed_form(dist0)
        extra["closed_form"] = {"omega": cf.omega, "beta": cf.beta, "C": cf.C}
    return SweepResult(
        columns=("r", "p", "kbar_re", "kbar_im", "lbar_re", "lbar_im"),
        blocks=partial(_init_file_blocks, dist0, r_max, (sols, others)),
        engines={"all": "iteration"},
        extra_metadata=extra,
    )


def verify_rows(run: RunConfig):
    summary = cross_validate(max_n=run.max_n, j_values=run.j_values, fault=run.inject_fault)
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


@dataclass(frozen=True)
class _Format:
    """How a format writes a cell: `na` is the NA text and cell(value) the text of a cell that is not
    in a float column. For a float column, rounded(x) is (y, on), where orjson's text of a cell of
    float array y is the format's own text of that cell of x wherever `on` is true, and off(values)
    is the format's own texts of float cells `values`, as a list."""

    na: str
    cell: Callable
    rounded: Callable
    off: Callable


def _orjson_text(values: np.ndarray) -> str:
    """orjson's comma-joined text of the cells of 1-D int or float `values`."""
    return orjson.dumps(np.ascontiguousarray(values), option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()


def _float_texts(values: np.ndarray, mask: np.ndarray, fmt: _Format):
    """The texts of 1-D float cells `values`, `fmt.na` where `mask`. With every cell on the path of
    fmt.rounded, orjson's comma-joined text of its y; with no cell NA or on the path, fmt.off's list;
    else a list: orjson's text split at its commas (NA texts when no cell is on the path), each NA
    cell patched by index to `fmt.na` and each other cell off the path to its fmt.off text."""
    y, on = fmt.rounded(values)
    on &= ~mask
    if on.all():
        return _orjson_text(y)
    off = np.flatnonzero(~(on | mask))
    if off.size == values.size:
        return fmt.off(values)
    cells = _orjson_text(y).split(",") if on.any() else [fmt.na] * values.size
    for i in np.flatnonzero(mask).tolist():
        cells[i] = fmt.na
    for i, text in zip(off.tolist(), fmt.off(values[off])):
        cells[i] = text
    return cells


def _cells(column, fmt: _Format) -> tuple:
    """(text, None) when every cell of `column` prints one text, because every cell is NA or every
    cell has one bit pattern (compared as same-width unsigned ints, so -0.0 and 0.0 differ); else
    (None, texts). Int cells are orjson's comma-joined text, float cells `_float_texts`' and any
    other cell fmt.cell's text, or fmt.na, in a list."""
    values = np.ma.getdata(column)
    mask = np.ma.getmaskarray(column)
    if mask.all():
        return fmt.na, None
    if values.dtype.kind in "biuf" and not mask.any():
        bits = values.view(f"u{values.itemsize}")
        if not (bits != bits[0]).any():
            return fmt.cell(values.item(0)), None
    if values.dtype.kind in "iu" and not mask.any():
        return None, _orjson_text(values)
    if values.dtype.kind == "f":
        return None, _float_texts(values, mask, fmt)
    return None, [fmt.na if m else fmt.cell(v) for v, m in zip(values.tolist(), mask.tolist())]


# Rows (or amplitude pairs) per formatted block: only one such block's cells
# are Python objects at a time. A JSON row is several times as wide as a CSV
# row, so this is a fraction of `_BLOCK_ROWS`.
_TABLE_ROWS = 1 << 11


def _layout(opening: str, labels, closing: str, columns: dict) -> tuple:
    """(pieces, cells) for `_join_rows`: a row is `opening`, each column's label and text in turn,
    and `closing`. `columns` maps each column to `_cells`' pair, and `labels` gives one label per
    column; a one-text column is in a piece, with its label."""
    pieces, cells = [opening], []
    for label, (text, texts) in zip(labels, columns.values()):
        pieces[-1] += label
        if texts is None:
            pieces[-1] += text
        else:
            cells.append(texts)
            pieces.append("")
    pieces[-1] += closing
    return pieces, cells


def _join_rows(head: str, pieces: list, cells: list, rows: int) -> tuple:
    """The text pieces of `rows` rows, row i being pieces[0], the ith text of cells[0], pieces[1],
    ..., the ith text of cells[-1] and pieces[-1], the first row with `head` for pieces[0].

    Each item of `cells` is a list of texts or their comma-joined text. One such text alone is one
    str.replace of its commas by the literal between two of its texts, and any other block one
    join. The large text is passed on as it is, never added to another piece.
    """
    if not cells:
        return head, pieces[0] * (rows - 1)
    if len(cells) == 1:  # the literal between two texts is the row's tail and the next row's head
        sep, texts = pieces[1] + pieces[0], cells[0]
        return head, texts.replace(",", sep) if isinstance(texts, str) else sep.join(texts), pieces[1]
    seps = pieces[1:-1] + [pieces[-1] + pieces[0]]  # after each text; after the last, the next row's start
    values = [None] * (2 * len(cells) * rows)  # row by row: a slice per list, not a tuple per row
    for i, (texts, sep) in enumerate(zip(cells, seps)):
        values[2 * i :: 2 * len(cells)] = texts.split(",") if isinstance(texts, str) else texts
        values[2 * i + 1 :: 2 * len(cells)] = [sep] * rows
    values[0], values[-1] = head + values[0], pieces[-1]
    return ("".join(values),)


def _table_block(data: dict, rows: range, fmt: _Format, layout) -> tuple:
    """The `rows` of every `data` column as the text pieces of layout({key: `_cells`' pair}, row count)."""
    columns = {key: _cells(column[rows.start : rows.stop], fmt) for key, column in data.items()}
    return layout(columns, len(rows))


def _table(blocks, fmt: _Format, layout):
    """The text pieces of every row of each block of columns, `_TABLE_ROWS` rows at a time; see `_table_block`."""
    for data in blocks:
        rows = range(len(next(iter(data.values()), ())))
        for start in range(0, len(rows), _TABLE_ROWS):
            yield from _table_block(data, rows[start : start + _TABLE_ROWS], fmt, layout)


# 1e-4, 1e-3, ..., 1e10: a cell x with 1e-4 <= |x| < 1e11 has DECADES[:i] <= |x| < DECADES[i:] for
# one i in 1..15, which numbers its 12 significant digits by SCALES[i] = 10**(16 - i), exact as a double
_DECADES = np.array([float(f"1e{k}") for k in range(-4, 11)])
_SCALES = np.array([float(10 ** (16 - i)) for i in range(16)])


def _rounded(x: np.ndarray) -> tuple:
    """(y, on): the float cells `x` rounded to 12 significant digits, and where y's text is '%.12g' % x.

    With s = x * 10**k, the scale k picked by the decade of |x|, m = rint(s) and y = m / 10**k, a
    cell is on path where 1e-4 <= |x| < 1e11, |s - m| < 1/2 - 2**-12, 1e11 <= |m| < 1e12 and y is
    not integer-valued. There 10**k is exact and |s| < 2**40, so m is the correctly rounded 12-digit
    value of x, and y is the double nearest m / 10**k: its shortest repr, which orjson writes in
    that range, has m's digits, laid out as '%.12g' lays them out. Each step is a comparison or a
    correctly rounded operation, so no text depends on which of numpy's SIMD kernels ran it.
    """
    size = np.abs(x)
    inside = (size >= 1e-4) & (size < 1e11)  # NaN fails both
    x = np.where(inside, x, 1.0)  # any other cell is off path, and takes no warning on the way
    scale = _SCALES[np.searchsorted(_DECADES, np.abs(x), side="right")]
    s = x * scale
    m = np.rint(s)
    y = m / scale
    size = np.abs(m)
    return y, inside & (np.abs(s - m) < 0.5 - 2.0**-12) & (size >= 1e11) & (size < 1e12) & (np.rint(y) != y)


def _percent_g(values: np.ndarray) -> list:
    """'%.12g' % x of each cell, from one %-format."""
    return (",".join(["%.12g"] * values.size) % tuple(values.tolist())).split(",")


_CSV = _Format("NA", _format_value, _rounded, _percent_g)


def _csv_layout(columns: dict, rows: int) -> tuple:
    """CSV rows, laid out by `_join_rows`: the first column's text unlabelled, each other's after a comma."""
    pieces, cells = _layout("", chain([""], repeat(",")), "\n", columns)
    return _join_rows(pieces[0], pieces, cells, rows)


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
    yield from _table(blocks, _CSV, _csv_layout)


def _json_scalar(value) -> str:
    """json.dumps(value), with a non-finite float as the CSV writer's token in a JSON string."""
    if isinstance(value, float) and not math.isfinite(value):
        value = _format_value(value)
    return json.dumps(value)


def _json_rounded(x: np.ndarray) -> tuple:
    """(x, on): orjson's text of a double is repr's for 1e-4 <= |x| < 1e16 and for +-0.0; outside that
    range it writes 1e16 or 0.00001 for repr's 1e+16 and 1e-05, and null for a non-finite one."""
    size = np.abs(x)
    return x, ((size >= 1e-4) & (size < 1e16)) | (size == 0.0)  # NaN fails every comparison


def _json_off(values: np.ndarray) -> list:
    """repr's text of each finite cell, and `_json_scalar`'s token of each other one."""
    return [repr(x) if math.isfinite(x) else _json_scalar(x) for x in values.tolist()]


_JSON = _Format("null", _json_scalar, _json_rounded, _json_off)


def _json_list(blocks, indent: str, keyed: bool = True):
    """The rows of the column blocks as json.dumps(rows, indent=2) writes them at `indent`, in text
    pieces: a keyed row is a dict of its cells, each labelled '"key": ', an unkeyed one a list."""
    inner, field = indent + "  ", indent + "    "
    opening, closing = "{}" if keyed else "[]"
    lead = "["  # before the first row; a comma before every later one

    def layout(columns: dict, rows: int) -> tuple:
        """The block laid out by `_join_rows`, after the list's opening or a row."""
        nonlocal lead
        keys = (f"{json.dumps(key)}: " if keyed else "" for key in columns)
        labels = (f"{',' if i else ''}\n{field}{key}" for i, key in enumerate(keys))
        pieces, cells = _layout(f",\n{inner}{opening}", labels, f"\n{inner}{closing}", columns)
        head, lead = lead + pieces[0][1:], ","
        return _join_rows(head, pieces, cells, rows)

    yield from _table(blocks, _JSON, layout)
    yield "[]" if lead == "[" else f"\n{indent}]"


def _json_value(obj, indent: str):
    """json.dumps(obj, indent=2) at `indent`, in text pieces, scalars as `_json_scalar` writes them; a
    SweepResult's rows are a keyed `_json_list` table, and each (M, 2) float array an unkeyed one."""
    if isinstance(obj, SweepResult):
        yield from _json_list(obj.blocks(), indent)
    elif isinstance(obj, np.ndarray):
        yield from _json_list([{"re": obj[:, 0], "im": obj[:, 1]}], indent, keyed=False)
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

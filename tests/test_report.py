import json
import math
import sys
import tracemalloc
from dataclasses import replace
from functools import partial
from itertools import chain, product

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from witnesses import render_csv_rows, render_json_rows, written

from groverlab import report
from groverlab.bruteforce import MEASURES
from groverlab.cli import main
from groverlab.gga import distribution_from_json
from groverlab.report import RunConfig, SweepResult

SPECIAL = [-0.0, 5e-324, 1e300, 1e-7, 1.0, 0.0, 0.1 + 0.2, 2.0 / 3.0, -1.7976931348623157e308]


def pair_arrays(seed):
    """Seeded (M, 2) float arrays for M = 1..50, every special value included."""
    rng = np.random.default_rng(seed)
    arrays = []
    for m in range(1, 51):
        a = rng.standard_normal((m, 2)) * 10.0 ** rng.integers(-20, 20, size=(m, 2))
        flat = a.ravel()
        picks = rng.integers(0, flat.size, size=min(flat.size, 3))
        flat[picks] = rng.choice(SPECIAL, size=picks.size)
        arrays.append(a)
    arrays[-1].ravel()[: len(SPECIAL)] = SPECIAL
    return arrays


def sweep(data, columns=None, engines=None, extra=None):
    """A SweepResult whose blocks are `_BLOCK_ROWS`-row slices of the whole `data` columns."""
    blocks = partial(report._slices, data)
    return SweepResult(tuple(data) if columns is None else columns, blocks, engines or {}, extra or {})


class TestRenderJson:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_array_blocks_equal_the_encoder(self, seed):
        # arrays as dict values two levels apart, as list items, and with
        # ordinary values on either side of them
        arrays = pair_arrays(seed)
        steps = [
            {"r": r, "solution_amplitudes": a, "other_amplitudes": b, "after": 1.5}
            for r, (a, b) in enumerate(zip(arrays[:25], arrays[25:]))
        ]
        extra = {
            "first": arrays[0],
            "amplitudes_per_step": steps,
            "nested": {"deeper": [arrays[49], {"x": arrays[7]}, -0.0]},
            "last": 2.5,
        }
        result = sweep({"r": np.array([0]), "p": np.array([0.25])}, engines={"all": "iteration"}, extra=extra)
        run = RunConfig(command="gga", fmt="json", init_file="start.json")
        assert written(result, run) == render_json_rows(result, run)

    def test_empty_array_is_an_empty_list(self):
        result = sweep({"r": np.array([], dtype=int)}, extra={"log": [np.empty((0, 2))]})
        run = RunConfig(command="gga", fmt="json")
        assert json.loads(written(result, run))["metadata"]["log"] == [[]]

    def test_document_without_arrays_is_the_plain_encoding(self):
        result = sweep({"r": np.arange(2), "p": np.ma.array([1e-300, 0.0], mask=[False, True])}, extra={"x": [1, 2]})
        run = RunConfig(command="ga", fmt="json")
        assert written(result, run) == render_json_rows(result, run)

    def test_nul_string_is_encoded_as_the_encoder_does(self):
        # a string holding NULs is escaped as json.dumps escapes it, whatever it spells
        result = sweep({"r": np.array([], dtype=int)}, extra={"log": np.zeros((1, 2))})
        run = RunConfig(command="gga", fmt="json", init_file="\x00ndarray\x00")
        text = written(result, run)
        assert text == render_json_rows(result, run)
        assert '"init_file": "\\u0000ndarray\\u0000"' in text
        assert json.loads(text)["config"]["init_file"] == "\x00ndarray\x00"

    def test_other_types_are_not_serializable(self):
        for value in ({1, 2}, np.int64(3), object()):
            result = sweep({"r": np.arange(1)}, extra={"x": [value]})
            with pytest.raises(TypeError, match="not JSON serializable"):
                written(result, RunConfig(command="ga", fmt="json"))


# -0.0, subnormals, the float extremes, non-finite values, values on either
# side of a 12-significant-digit rounding boundary and of the CSV writer's
# orjson range (1e-4 <= |x| < 1e11), and exact ties
EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, 2.225073858507201e-308, 1e-300, 1e300, -1e300, 1.7976931348623157e308,
    float("nan"), float("inf"), float("-inf"), 0.1 + 0.2, 2.0 / 3.0,
    1.0000000000005, 1.00000000000049, 9.9999999999995, 99999999999.95, 123456789012.5, 0.5e-12,
    1e-4, 9.999999999999999e-05, 1e11, 99999999999.99998, 999999999999.5, 1.000244140625, 0.5, -2.5,
]
floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(),
    st.floats(-1e3, 1e3),
    # log-uniform from 1e-6 to 1e13, both signs: mostly the orjson path, and both sides of its range
    st.builds(lambda e, sign: sign * 10.0**e, st.floats(-6.0, 13.0), st.sampled_from([1.0, -1.0])),
    st.integers(-(10**13), 10**13).map(float),  # integer-valued: '%.12g' prints no ".0"
    # 12-digit decimals, and the halfway points between two of them
    st.builds(
        lambda m, k, half: (m + half) / 10.0**k,
        st.integers(10**11, 10**12 - 1),
        st.integers(0, 16),
        st.sampled_from([0.0, 0.5]),
    ),
)
objects = st.one_of(
    st.text(max_size=6), st.booleans(), st.none(), st.integers(-5, 5), st.integers(2**63, 2**70), floats
)


@st.composite
def sweeps(draw):
    """A SweepResult of random int, float, constant float, NA-masked float, object and boolean columns."""
    rows = draw(st.integers(0, 8))
    names = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=5, unique=True))
    data = {}
    for name in names:
        kind = draw(st.sampled_from(["int", "float", "const", "na", "object", "bool"]))
        cells = lambda strategy: draw(st.lists(strategy, min_size=rows, max_size=rows))
        if kind == "int":
            data[name] = np.array(cells(st.integers(-(2**63), 2**63 - 1)), dtype=np.int64)
        elif kind == "object":
            data[name] = np.array(cells(objects), dtype=object)
        elif kind == "bool":
            data[name] = np.array(cells(st.booleans()), dtype=bool)
        elif kind == "const":
            data[name] = np.full(rows, draw(floats))
        else:
            values = np.array(cells(floats), dtype=float)
            mask = cells(st.booleans())
            data[name] = np.ma.array(values, mask=mask) if kind == "na" else values
    columns = tuple(names[draw(st.integers(0, len(names) - 1)) :])  # a CSV subset, as ga drops j
    extra = {"N": 1024, "flag": True, "nothing": None, "solutions": [0, 1]}
    return sweep(data, columns, {"all": "iteration"}, extra)


@settings(max_examples=300, deadline=None)
@given(sweeps())
def test_columnar_writers_equal_the_row_writers(result):
    csv_run, json_run = (RunConfig(command="ga", seed=3, fmt=fmt) for fmt in ("csv", "json"))
    assert written(result, csv_run) == render_csv_rows(result, csv_run)
    assert written(result, json_run) == render_json_rows(result, json_run)


def test_format_value_calls_do_not_grow_with_rows(monkeypatch):
    calls = []

    def counting(value):
        calls.append(value)
        return format_value(value)

    format_value = report._format_value
    monkeypatch.setattr(report, "_format_value", counting)
    counts = []
    for extra in (("--r-max", "3"), ()):  # 4 rows per j, then r_opt + 1 (805, 569, 464)
        calls.clear()
        result = CliRunner().invoke(main, ["ga", "--n", "20", "--j", "1..3", *extra])
        assert result.exit_code == 0, result.output
        counts.append(len(calls))
    assert counts[0] == counts[1]
    assert len(result.output.splitlines()) > 1800


def test_long_j_range_is_linear_in_memory():
    # each j's config holds its leading solutions as range(j), not a tuple:
    # 1..2000 used to peak near 66 MB (O(J^2) stored indices)
    run = RunConfig(command="ga", n=30, j_values=tuple(range(1, 2001)), r_max=0, measures=("p",))
    tracemalloc.start()
    try:
        js = [block["j"].tolist() for block in report.ga_sweep(run).blocks()]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(chain.from_iterable(js)) == list(range(1, 2001))
    assert peak < 8_000_000


def test_short_series_share_blocks(monkeypatch):
    # 40,000 one-row series packed into full blocks, not one formatted block
    # (and its per-call overhead) per series
    calls = []
    table_block = report._table_block
    monkeypatch.setattr(report, "_table_block", lambda *args: calls.append(args[1]) or table_block(*args))
    result = CliRunner().invoke(main, ["ga", "--n", "30", "--j", "1..40000", "--r-max", "0", "--measures", "p"])
    assert result.exit_code == 0, result.output
    assert len(calls) == -(-40_000 // report._TABLE_ROWS)
    data_lines = [line for line in result.output.splitlines() if not line.startswith("#")][1:]
    assert sum(len(rows) for rows in calls) == 40_000 == len(data_lines)


def test_alpha_is_computed_once_per_series(monkeypatch):
    # optimal_iteration_details and the row state read the alpha each config computes once
    calls = []
    atan2 = math.atan2
    monkeypatch.setattr(math, "atan2", lambda y, x: calls.append(1) or atan2(y, x))
    result = CliRunner().invoke(main, ["ga", "--n", "30", "--j", "1..2000", "--r-max", "0"])
    assert result.exit_code == 0, result.output
    assert len(calls) == 2000


def json_rows(*args) -> list:
    result = CliRunner().invoke(main, [*args, "--format", "json"])
    assert result.exit_code == 0, result.output
    return json.loads(result.output)["rows"]


@pytest.mark.parametrize(
    "n, js, options",
    [
        (10, range(1, 41), ("--r-max", "2", "--measures", "cr,cl1,e2,d2")),
        (30, range(1, 301), ("--r-max", "3")),  # every measure that is not slow
        (80, (1180591620717411303424, 3), ("--r-max", "2")),  # an object j column
        (10, (2, 3, 2), ("--r-max", "2", "--measures", "e2,en,d2")),  # a repeated j: two series of one j
    ],
)
def test_rows_across_series_are_the_single_series_rows(n, js, options):
    # one state for the rows of many series gives each row the bits of its own run
    whole = json_rows("ga", "--n", str(n), "--j", ",".join(map(str, js)), *options)
    single = [row for j in js for row in json_rows("ga", "--n", str(n), "--j", str(j), *options)]
    assert json.dumps(whole) == json.dumps(single)  # every bit, -0.0 too


@pytest.mark.parametrize("block_rows, calls", [(report._BLOCK_ROWS, 1), (7, 286)])
def test_any_j_closed_form_is_one_call_per_block(block_rows, calls, monkeypatch):
    sizes = []
    closed_form = MEASURES["cr"].closed_form

    def counting(cfg, st, optimizer):
        sizes.append(st.r.size)
        return closed_form(cfg, st, optimizer)

    monkeypatch.setitem(MEASURES, "cr", replace(MEASURES["cr"], closed_form=counting))
    monkeypatch.setattr(report, "_BLOCK_ROWS", block_rows)
    result = CliRunner().invoke(main, ["ga", "--n", "30", "--j", "1..2000", "--r-max", "0", "--measures", "cr"])
    assert result.exit_code == 0, result.output
    assert (len(sizes), sum(sizes)) == (calls, 2000)


def test_j_past_int64_prints_every_j_as_an_int():
    # a j past int64 beside a smaller one: every j of the column prints as an exact int, none as a float
    rows = json_rows("ga", "--n", "64", "--j", f"{1 << 63},3", "--r-max", "1", "--measures", "cr")
    assert [row["j"] for row in rows] == [1 << 63, 3, 3]
    result = CliRunner().invoke(main, ["ga", "--n", "64", "--j", f"{1 << 63},3", "--r-max", "1", "--measures", "cr"])
    assert [line.split(",")[0] for line in result.output.splitlines()[-3:]] == [str(1 << 63), "3", "3"]


def test_sweep_memory_does_not_grow_with_rows():
    # n = 36's 205,888 default-measure rows, computed and written block by
    # block; with each column computed whole first this peaked at 36 MiB
    run = RunConfig(command="ga", n=36)
    sizes = []
    tracemalloc.start()
    try:
        report.write(report.ga_sweep(run), run, lambda text: sizes.append(text.count("\n")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(sizes) == 205_888 + 11  # 10 metadata lines and the header
    assert peak < 6 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_row_blocks_join_to_one_block(monkeypatch):
    # NA cells, non-finite floats and object cells on both sides of the
    # boundaries at rows 7 and 14, and int columns that are masked in one block
    rows = 20
    na = np.ma.array(np.linspace(0.0, 1.0, rows), mask=[5 <= r < 9 for r in range(rows)])
    odd = np.linspace(-3.0, 3.0, rows)
    odd[[6, 7, 15]] = float("nan"), float("inf"), float("-inf")
    objects = np.array(["a", True, None, 3, 2.5, False, "b%s"] * 3, dtype=object)[:rows]
    masked_int = np.ma.array(np.arange(rows), mask=[r == 16 for r in range(rows)])
    data = {"j": np.full(rows, 2), "r": np.arange(rows), "na": na, "odd": odd, "obj": objects, "mi": masked_int}
    result = sweep(data, columns=("r", "na", "odd", "obj", "mi"))
    runs = [RunConfig(command="ga", seed=1, fmt=fmt) for fmt in ("csv", "json")]
    one_block = [written(result, run) for run in runs]
    monkeypatch.setattr(report, "_BLOCK_ROWS", 7)
    assert [written(result, run) for run in runs] == one_block
    monkeypatch.setattr(report, "_TABLE_ROWS", 3)  # each 7-row block formatted as 3, 3 and 1 rows
    assert [written(result, run) for run in runs] == one_block
    assert one_block == [render_csv_rows(result, runs[0]), render_json_rows(result, runs[1])]


@pytest.mark.parametrize("pairs", [0, 1, 6, 7, 8, 14, 15, 20])
def test_pair_array_blocks_join_to_one_array(monkeypatch, pairs):
    # arrays that end just before, on and just after the boundaries at pairs 7 and 14
    monkeypatch.setattr(report, "_TABLE_ROWS", 7)
    log = np.arange(2.0 * pairs).reshape(-1, 2) / 3.0
    result = sweep({"r": np.arange(2)}, extra={"log": [log], "after": log})
    run = RunConfig(command="gga", fmt="json")
    assert written(result, run) == render_json_rows(result, run)


def test_array_longer_than_a_block_equals_the_encoder():
    log = np.random.default_rng(5).standard_normal((2 * report._TABLE_ROWS + 3, 2))
    log.ravel()[: len(SPECIAL)] = SPECIAL
    result = sweep({"r": np.arange(2)}, extra={"amplitudes_per_step": [{"r": 0, "other_amplitudes": log}]})
    run = RunConfig(command="gga", fmt="json")
    assert written(result, run) == render_json_rows(result, run)


def test_write_slices_long_blocks(monkeypatch):
    result = sweep({"r": np.arange(30), "p": np.linspace(0.0, 1.0, 30)})
    runs = [RunConfig(command="ga", fmt=fmt) for fmt in ("csv", "json")]
    documents = [written(result, run) for run in runs]
    monkeypatch.setattr(report, "_WRITE_CHARS", 5)
    for run, document in zip(runs, documents):
        emitted = []
        report.write(result, run, emitted.append)
        assert max(map(len, emitted)) == 5
        assert "".join(emitted) == document


@pytest.fixture
def cell_log(monkeypatch):
    """Each formatted block's {column: (spec, cells)} as `_cells` returned them, in order."""
    seen, blocks = [], []
    cells, table_block = report._cells, report._table_block

    def recording_block(data, *args):
        start = len(seen)
        text = table_block(data, *args)
        blocks.append(dict(zip(data, seen[start:])))
        return text

    monkeypatch.setattr(report, "_cells", lambda *args: seen.append(cells(*args)) or seen[-1])
    monkeypatch.setattr(report, "_table_block", recording_block)
    return blocks


def per_cell_writers_agree(result):
    """Both formats as the per-cell writers write them; the CSV text is returned."""
    csv_run, json_run = (RunConfig(command="ga", fmt=fmt) for fmt in ("csv", "json"))
    assert written(result, json_run) == render_json_rows(result, json_run)
    text = written(result, csv_run)
    assert text == render_csv_rows(result, csv_run)
    return text


class TestOneTextColumns:
    @pytest.mark.parametrize("value", [0.0, -0.0, 1.0, float("nan"), float("inf"), 5e-324])
    def test_constant_float_column_is_written_once(self, cell_log, value):
        text = per_cell_writers_agree(sweep({"r": np.arange(5), "x": np.full(5, value)}))
        assert text.splitlines()[-5:] == ["%d,%.12g" % (r, value) for r in range(5)]
        texts = {report._format_value(value), report._json_scalar(value)}  # a CSV cell and a JSON cell
        assert {block["x"] for block in cell_log} == {(text, None) for text in texts}

    @pytest.mark.parametrize("values", [[0.0, -0.0, 0.0], [float("nan"), -float("nan")]])
    def test_cells_of_two_bit_patterns_do_not_fold(self, cell_log, values):
        # -0.0 and 0.0 print differently; NaNs of two payloads print alike, but are not compared by text
        assert len(set(np.array(values).view(np.uint64).tolist())) == 2
        per_cell_writers_agree(sweep({"x": np.array(values)}))
        assert all(block["x"][1] is not None for block in cell_log)

    def test_int_column_folds_in_each_block_it_is_constant_in(self, cell_log, monkeypatch):
        monkeypatch.setattr(report, "_TABLE_ROWS", 4)  # blocks j = 1111, 1122 and 22
        per_cell_writers_agree(sweep({"j": np.repeat([1, 2], [6, 4]), "r": np.arange(10)}))
        assert [block["j"] for block in cell_log[:3]] == [("1", None), (None, "1,1,2,2"), ("2", None)]
        assert all(block["r"][1] is not None for block in cell_log)

    def test_na_columns(self, cell_log):
        data = {
            "none": np.ma.masked_all(4),
            "some": np.ma.array([0.5, float("inf"), 0.5, 0.25], mask=[True, False, False, True]),
            "obj": np.ma.array(np.array(["a%b", None, True, 2], dtype=object), mask=True),
        }
        per_cell_writers_agree(sweep(data))
        assert {block["none"] for block in cell_log} == {("NA", None), ("null", None)}
        assert {block["obj"] for block in cell_log} == {("NA", None), ("null", None)}
        assert all(block["some"][1] is not None for block in cell_log)

    def test_partly_masked_column_formats_only_its_unmasked_cells(self, monkeypatch):
        # the masked cell's value, on the orjson path or off it, is in no text: its column's text is
        # split and the cell patched by index to NA (null), while the column beside it is one text
        for table_rows, hidden in product((1, 3, report._TABLE_ROWS), (7.25, 1e-9)):
            monkeypatch.setattr(report, "_TABLE_ROWS", table_rows)
            column = np.ma.array([1.5, hidden, float("nan"), 2.5], mask=[False, True, False, False])
            text = per_cell_writers_agree(sweep({"x": column, "y": np.array([0.5, 0.125, 0.25, 3e-6])}))
            assert text.splitlines()[-4:] == ["1.5,0.5", "NA,0.125", "nan,0.25", "2.5,3e-06"]
            assert str(hidden) not in text
        assert report._cells(column, report._JSON) == (None, ["1.5", "null", '"nan"', "2.5"])

    @pytest.mark.parametrize("table_rows", [1, report._TABLE_ROWS])
    def test_one_row_blocks(self, monkeypatch, table_rows):
        monkeypatch.setattr(report, "_TABLE_ROWS", table_rows)
        for rows in (1, 3):
            data = {
                "r": np.arange(rows),
                "p": np.full(rows, 0.25),
                "na": np.ma.masked_all(rows),
                "obj": np.array(["b%s"] * rows, dtype=object),
            }
            per_cell_writers_agree(sweep(data))

    def test_real_start_imaginary_parts_are_one_text(self, monkeypatch):
        # each block of pairs takes one orjson call: the real parts' whole column. The imaginary parts
        # take none: their one text "0.0", written by json.dumps, is in the literal text between two real
        # cells. A block of real parts that orjson writes whole is one str.replace of its commas by
        # that literal; one with a cell below 1e-4 comes back patched, as a list, and is joined by it
        rng = np.random.default_rng(10)
        values = rng.standard_normal(1 << 12)
        pairs = [[x, 0.0] for x in (values / np.linalg.norm(values)).tolist()]
        dist = distribution_from_json(json.dumps({"n": 12, "solutions": [3, 700], "amplitudes": pairs}))
        run = RunConfig(command="gga", r_max=4, fmt="json", init_file="start.json")
        result = report.init_file_sweep(run, dist)
        steps = list(result.extra_metadata["amplitudes_per_step"])  # the row writer takes lists, not the log
        reference = replace(result, extra_metadata={**result.extra_metadata, "amplitudes_per_step": steps})
        calls, whole, replaced, cells, blocks = [], [], [], [], []
        dumps, floats, cells_of, table_block = report.orjson.dumps, report._float_texts, report._cells, report._table_block

        class Text(str):
            def replace(self, *args):
                replaced.append(self.count(",") + 1)
                return str.replace(self, *args)

        def recording_floats(values, mask, fmt):
            texts = floats(values, mask, fmt)
            whole.append(isinstance(texts, str))
            return Text(texts) if whole[-1] else texts

        def recording(data, rows, *formats):
            seen = len(calls), len(whole), len(replaced), len(cells)
            pieces = table_block(data, rows, *formats)
            if tuple(data) == ("re", "im"):  # the row blocks take this path too
                record = calls[seen[0] :], whole[seen[1]], replaced[seen[2] :], cells[seen[3] :][1]
                blocks.append((len(rows), *record))
            return pieces

        monkeypatch.setattr(report.orjson, "dumps", lambda values, **options: calls.append(values.size) or dumps(values, **options))
        monkeypatch.setattr(report, "_float_texts", recording_floats)
        monkeypatch.setattr(report, "_cells", lambda *args: cells.append(cells_of(*args)) or cells[-1])
        monkeypatch.setattr(report, "_table_block", recording)
        same = written(result, run) == render_json_rows(reference, run)
        assert same
        # per step: the two solution pairs, then the 4,094 other pairs in blocks of 2,048 and 2,046
        sizes = [2, 2048, 4094 - 2048]
        assert report._TABLE_ROWS == 2048
        assert [block[0] for block in blocks] == sizes * 5
        for size, block_calls, one_text, block_replaced, im in blocks:
            assert (block_calls, block_replaced, im) == ([size], [size] if one_text else [], ("0.0", None))
        assert {one_text for _, _, one_text, _, _ in blocks} == {True, False}  # both layouts are taken


class TestJsonPairs:
    """Each (M, 2) float array is laid out from one text per column block; the row writer and
    json.dumps are the references."""

    ODD = [1e-5, -1e16, 5e-324, float("nan"), float("inf"), -float("inf"), -1.7976931348623157e308]

    def agree(self, *arrays):
        result = sweep({"r": np.arange(1)}, extra={"log": list(arrays), "last": arrays[-1]})
        run = RunConfig(command="gga", fmt="json")
        text = written(result, run)
        assert text == render_json_rows(result, run)
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        return text

    @pytest.mark.parametrize("table_rows", [4, report._TABLE_ROWS])
    @pytest.mark.parametrize("other", ["varying", "one text"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_odd_cells_first_last_and_beside_block_edges(self, monkeypatch, table_rows, other, column):
        # cells past orjson's repr range and non-finite cells, each at the first and last pair and on
        # both sides of each boundary between blocks, beside a column that varies or is one text
        monkeypatch.setattr(report, "_TABLE_ROWS", table_rows)
        rng = np.random.default_rng(table_rows + column)
        rows = 2 * table_rows + 3
        for odd in self.ODD:
            pairs = rng.uniform(-1.0, 1.0, (rows, 2))
            if other == "one text":
                pairs[:, 1 - column] = 0.25
            pairs[[0, table_rows - 1, table_rows, 2 * table_rows - 1, 2 * table_rows, rows - 1], column] = odd
            self.agree(pairs)

    @pytest.mark.parametrize("table_rows", [3, report._TABLE_ROWS])
    def test_columns_all_past_the_range(self, monkeypatch, table_rows):
        monkeypatch.setattr(report, "_TABLE_ROWS", table_rows)
        rng = np.random.default_rng(7)
        small = rng.uniform(-1.0, 1.0, 20) * 1e-7
        big = rng.uniform(1.0, 10.0, 20) * 1e200
        varying, one = rng.uniform(-1.0, 1.0, 20), np.full(20, 0.5)
        for past in (small, big):
            for other in (varying, one, past[::-1]):
                self.agree(np.stack([past, other], axis=1), np.stack([other, past], axis=1))

    @pytest.mark.parametrize("table_rows", [3, report._TABLE_ROWS])
    def test_one_text_real_parts_beside_varying_imaginary_parts(self, monkeypatch, table_rows):
        monkeypatch.setattr(report, "_TABLE_ROWS", table_rows)
        im = np.random.default_rng(8).uniform(-1.0, 1.0, 10)
        for re in (0.5, -0.0, 1e-9, float("nan")):
            self.agree(np.stack([np.full(10, re), im], axis=1))

    @pytest.mark.parametrize("table_rows", [3, report._TABLE_ROWS])
    def test_negative_zero_beside_zero(self, monkeypatch, table_rows):
        # one -0.0 among 0.0 cells is not one text; a block of -0.0 alone is the one text -0.0
        monkeypatch.setattr(report, "_TABLE_ROWS", table_rows)
        re = np.random.default_rng(9).uniform(-1.0, 1.0, 9)
        for at in (0, 2, 3, 8):
            im = np.zeros(9)
            im[at] = -0.0
            text = self.agree(np.stack([re, im], axis=1), np.stack([im, re], axis=1))
            assert text.count("-0.0") == 3  # once in each array of the log, and in the last again
        self.agree(np.stack([re, np.full(9, -0.0)], axis=1), np.full((9, 2), -0.0), np.zeros((9, 2)))

    def test_zero_and_one_pair(self):
        for rows in (0, 1):
            for values in ((0.5, 0.0), (1e-5, -0.0), (float("nan"), 1e16), (-0.0, float("-inf"))):
                self.agree(np.resize(np.array(values), (rows, 2)))
        assert '"last": []' in self.agree(np.empty((0, 2)))

    def test_strided_and_reversed_views(self):
        rng = np.random.default_rng(11)
        whole = rng.uniform(-1.0, 1.0, (30, 6))
        whole[::7, 1] = 1e-6
        whole[:, 4] = 0.0
        views = [whole[:, 1:5:2], whole[::-1, 1:5:2], whole[::3, :2], whole[::-2, [1, 4]], whole[:, 4:2:-1]]
        assert not any(view.flags.c_contiguous for view in views[:4])
        self.agree(*views)


def random_doubles(rng, size):
    """Finite doubles from uniform random bit patterns: every exponent, both signs, subnormals too."""
    values = rng.integers(0, 1 << 64, size=size, dtype=np.uint64).view(float)
    return values[np.isfinite(values)]


def edge_doubles():
    """+-0.0, the smallest subnormal and the ends of orjson's repr range, each with its neighbours."""
    edges = [0.0, 5e-324, 1e-4, 1e16]
    near = [v for x in edges for v in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]
    return np.array(near + [-v for v in near])


def float_texts(values, mask=None, fmt=report._JSON) -> list:
    """Each cell's text from `_float_texts`, NA where `mask`: orjson's comma-joined text split, or the
    list of texts it returned."""
    texts = report._float_texts(values, np.zeros(values.shape, dtype=bool) if mask is None else mask, fmt)
    return texts.split(",") if isinstance(texts, str) else texts


class TestJsonFloats:
    def test_each_text_is_repr(self):
        # whole-range bit patterns, mostly outside the range where orjson's text is used, and doubles
        # with random mantissas across that range's exponents: a release that writes it differently fails here
        rng = np.random.default_rng(35)
        exponents = rng.uniform(math.log2(1e-4), math.log2(1e16), size=500_000)
        inside = np.ldexp(rng.uniform(0.5, 1.0, size=exponents.size), exponents.astype(int))
        inside[::2] *= -1.0
        values = np.concatenate([random_doubles(rng, 500_000), inside, edge_doubles()])
        assert np.count_nonzero((values != 0.0) & (np.abs(values) < 2.2250738585072014e-308)) > 100  # subnormals
        texts = float_texts(values)
        assert texts == [repr(x) for x in values.tolist()]
        assert "[" + ", ".join(texts) + "]" == json.dumps(values.tolist())
        within = inside[(np.abs(inside) >= 1e-4) & (np.abs(inside) < 1e16)]
        no_na = np.zeros(within.size, dtype=bool)
        assert report._float_texts(within, no_na, report._JSON) == ",".join(map(repr, within.tolist()))  # one text
        # NA cells among them, a column of NA cells only and one with no cell inside the range
        mask = rng.random(values.size) < 0.1
        assert float_texts(values, mask) == ["null" if m else repr(x) for x, m in zip(values.tolist(), mask.tolist())]
        assert float_texts(within, ~no_na) == ["null"] * within.size
        past = values[(np.abs(values) < 1e-4) & (values != 0.0)]
        assert float_texts(past) == [repr(x) for x in past.tolist()]

    def test_non_finite_cells_are_the_scalar_tokens(self):
        values = np.array([float("nan"), 0.5, float("inf"), 1e-5, -float("inf"), -0.0, float("nan")])
        want = [report._json_scalar(x) for x in values.tolist()]
        assert want[:3] == ['"nan"', "0.5", '"inf"']
        assert float_texts(values) == want
        assert float_texts(values[::-2]) == want[::-2]

    def test_runs_of_patched_cells(self):
        # cells outside orjson's repr range alone, in runs and at either end, between cells inside it
        rng = np.random.default_rng(37)
        for _ in range(2000):
            size = int(rng.integers(1, 30))
            odd = rng.choice([1e-5, -3e16, 5e-324, float("inf")], size=size)
            values = np.where(rng.random(size) < rng.random(), odd, rng.uniform(-1.0, 1.0, size))
            assert float_texts(values) == list(map(report._json_scalar, values.tolist()))

    def test_an_empty_array_has_no_texts(self):
        assert report._float_texts(np.empty(0), np.zeros(0, dtype=bool), report._JSON) == ""

    def test_one_orjson_call_per_column_block(self, monkeypatch):
        calls = []
        dumps = report.orjson.dumps
        counting = lambda values, **options: calls.append(values.size) or dumps(values, **options)
        monkeypatch.setattr(report.orjson, "dumps", counting)
        rows = 2 * report._TABLE_ROWS + 5
        data = {"r": np.arange(rows), "p": np.linspace(0.0, 1.0, rows), "q": np.full(rows, 0.5)}
        run = RunConfig(command="ga", fmt="json")
        assert written(sweep(data), run) == render_json_rows(sweep(data), run)
        sizes = [report._TABLE_ROWS, report._TABLE_ROWS, 5]
        assert sorted(calls) == sorted(sizes * 2)  # r and p per block; q is one text per block, with no call


MIXED = [1e-5, 0.5, 1e16, -0.0, float("nan"), 1e-4, float("inf"), 5e-324, 0.0, float("-inf"), -1e300, 123.25]


@pytest.mark.parametrize("table_rows", [3, report._TABLE_ROWS])
def test_mixed_json_float_column_equals_the_row_writer(monkeypatch, table_rows):
    # cells in and past orjson's repr range, NA, nan and +-inf in one masked ga-style column
    monkeypatch.setattr(report, "_TABLE_ROWS", table_rows)
    values = np.array(MIXED * 3)
    mask = np.arange(values.size) % 5 == 2
    past = np.array([1e-300, -2e-5, 1e16, 5e-324, -1.7976931348623157e308, 9.999999999999999e-05])
    past = np.resize(past, values.size)  # a column whose every block is past the range
    data = {"r": np.arange(values.size), "x": np.ma.array(values, mask=mask), "past": past}
    run = RunConfig(command="ga", fmt="json")
    text = written(sweep(data), run)
    assert text == render_json_rows(sweep(data), run)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_strided_pair_array_equals_the_encoder():
    # non-contiguous (M, 2) views, one of them reversed, of cells in and past the range and of
    # non-finite cells; the all-finite one reaches orjson as a strided column, not as a copy
    whole = np.zeros((len(MIXED), 4))
    whole[:, 1], whole[:, 3] = MIXED, MIXED[::-1]
    pairs = whole[:, 1::2]
    finite = pairs[np.isfinite(pairs).all(axis=1)][::-1]
    assert not pairs.flags.c_contiguous and not finite.flags.c_contiguous
    result = sweep({"r": np.arange(1)}, extra={"log": [pairs], "finite": finite})
    run = RunConfig(command="gga", fmt="json")
    assert written(result, run) == render_json_rows(result, run)


class TestJsonJoinLayout:
    """The JSON rows are one join over cells and literal pieces per block; the row writer is the reference."""

    KEYS = ["%", "a%s", "%%d", 'q"uote', "back\\slash"]

    def both_writers_agree(self, result):
        for fmt in ("csv", "json"):
            run = RunConfig(command="ga", fmt=fmt)
            render = render_json_rows if fmt == "json" else render_csv_rows
            assert written(result, run) == render(result, run)

    @pytest.mark.parametrize("rows", [0, 1, 5])
    def test_keys_with_percent_quote_and_backslash(self, rows):
        # each key labels a varying column, and again a one-text column
        varying = {key: np.linspace(0.1, 0.9, rows) + i for i, key in enumerate(self.KEYS)}
        constant = {key + "!": np.full(rows, 0.5) for key in self.KEYS}
        self.both_writers_agree(sweep({**varying, **constant}))
        self.both_writers_agree(sweep({key: np.array(["a%s"] * rows, dtype=object) for key in self.KEYS}))

    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_block_of_one_text_columns_only(self, cell_log, rows):
        data = {"%d": np.full(rows, 2), "x": np.full(rows, -0.0), "na": np.ma.masked_all(rows), "b": np.ones(rows, bool)}
        self.both_writers_agree(sweep(data))
        assert all(cells is None for block in cell_log for _, cells in block.values())
        assert len(cell_log) == (2 if rows else 0)  # one CSV and one JSON block, or no block for no rows

    def test_column_of_one_text_in_one_block_and_cells_in_the_next(self, cell_log, monkeypatch):
        monkeypatch.setattr(report, "_TABLE_ROWS", 4)
        x = np.array([0.5] * 4 + [0.25, 0.75, 0.5, 1e-7] + [1e300] * 4)
        na = np.ma.array(np.arange(12.0), mask=[r < 4 or r >= 8 for r in range(12)])
        self.both_writers_agree(sweep({"r": np.arange(12), "x": x, "na": na}))
        json_blocks = cell_log[:3]  # the JSON document is written first
        assert [block["x"][1] is None for block in json_blocks] == [True, False, True]
        assert [block["na"][1] is None for block in json_blocks] == [True, False, True]

    def test_int_j_past_int64_beside_small_j(self):
        # an object j column, then an int64 one
        for js in ((1 << 63, 3, (1 << 64) - 1), (2, 3)):
            run = RunConfig(command="ga", n=64, j_values=js, r_max=1, measures=("cr",), fmt="json")
            result = report.ga_sweep(run)
            assert written(result, run) == render_json_rows(result, run)
            assert list(dict.fromkeys(row["j"] for row in json.loads(written(result, run))["rows"])) == list(js)


def csv_rows(x) -> list:
    """The CSV rows of the columns of (rows, k) float cells `x`, as the CSV layout writes them."""
    pieces = report._table_block(dict(enumerate(x.T)), range(len(x)), report._CSV, report._csv_layout)
    return "".join(pieces).splitlines()


def percent_g(x, mask=None) -> list:
    """'%.12g' of each cell of 1-D or (rows, k) `x`, a row's cells comma-joined; NA where `mask`."""
    mask = np.zeros(x.shape, dtype=bool) if mask is None else mask
    rows = zip(x.reshape(len(x), -1).tolist(), mask.reshape(len(x), -1).tolist())
    return [",".join("NA" if m else "%.12g" % v for v, m in zip(*row)) for row in rows]


class TestCsvFloats:
    """The CSV writer rounds a float in numpy and lets orjson print the rounded value only where that
    text is '%.12g''s; every other cell is '%.12g' itself."""

    @staticmethod
    def doubles(rng) -> np.ndarray:
        """About 1.2 million doubles: whole-range bit patterns, log-uniform values from 1e-6 to 1e13
        of both signs, integers, +-0.0, subnormals, each power of ten from 1e-5 to 1e12 with its
        neighbours, and 12-digit decimals with their halfway points."""
        log_uniform = 10.0 ** rng.uniform(-6.0, 13.0, 600_000) * rng.choice([-1.0, 1.0], 600_000)
        integers = rng.integers(-(10**13), 10**13, 50_000).astype(float)
        subnormals = rng.integers(1, 1 << 52, 10_000).astype(np.uint64).view(float)
        powers = [10.0**k for k in range(-5, 13)]
        near = [v for p in powers for v in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))]
        digits = rng.integers(10**11, 10**12, 100_000) / 10.0 ** rng.integers(0, 17, 100_000)
        halves = (rng.integers(10**11, 10**12, 100_000) + 0.5) / 10.0 ** rng.integers(0, 5, 100_000)
        ties = [1.000244140625, 99999999999.95, 0.5, 2.5, 1e11 - 0.5, 123456789012.5, 999999999999.5]
        special = [0.0, -0.0, 5e-324, -5e-324, 1e-4, 9.99999999999e10, 1e11, *near, *ties]
        signed = np.concatenate([digits, halves, special]) * rng.choice([-1.0, 1.0], 200_000 + len(special))
        return np.concatenate([random_doubles(rng, 300_000), log_uniform, integers, subnormals, signed, special])

    def test_each_text_is_percent_g(self):
        rng = np.random.default_rng(39)
        values = self.doubles(rng)
        assert values.size > 1_000_000
        mask = np.random.default_rng(43).random(values.size) < 0.1
        for chunk, na in zip(np.array_split(values, 8), np.array_split(mask, 8)):  # a list per chunk, not per million
            assert float_texts(chunk, fmt=report._CSV) == percent_g(chunk)
            assert float_texts(chunk, na, report._CSV) == percent_g(chunk, na)
        rows = values[: 3 * (values.size // 3)].reshape(-1, 3)[rng.permutation(values.size // 3)[:100_000]]
        assert csv_rows(rows) == percent_g(rows)  # three cells a row, on and off path beside each other
        # a column of NA cells only, and one with no cell on the path
        assert float_texts(chunk, np.ones(chunk.size, dtype=bool), report._CSV) == ["NA"] * chunk.size
        off = chunk[~report._rounded(chunk)[1]]
        assert float_texts(off, fmt=report._CSV) == percent_g(off)

    def test_most_cells_in_range_take_the_orjson_path(self):
        # an empty fast path would pass the test above; this one fails it
        rng = np.random.default_rng(40)
        inside = 10.0 ** rng.uniform(-4.0, 11.0, 200_000) * rng.choice([-1.0, 1.0], 200_000)
        _, on = report._rounded(inside)
        assert np.count_nonzero(on) > 0.99 * inside.size
        _, on = report._rounded(np.array([0.0, -0.0, 1.0, 5e-5, 1e11, 2.5e12, float("nan"), float("inf")]))
        assert not on.any()

    def test_orjson_writes_each_on_path_column_once(self, monkeypatch):
        calls = []
        dumps = report.orjson.dumps
        counting = lambda values, **options: calls.append(values.shape) or dumps(values, **options)
        monkeypatch.setattr(report.orjson, "dumps", counting)
        rows = 2 * report._TABLE_ROWS + 5
        rng = np.random.default_rng(41)
        data = {
            "r": np.arange(rows),
            "p": rng.uniform(0.0, 1.0, rows),
            "cr": rng.uniform(0.0, 30.0, rows),
            "cl1": rng.uniform(1.1e11, 1e12, rows),  # past 1e11, as cl1 is at n >= 37: one %-format, no orjson
            "m": rng.uniform(0.0, 1.0, rows),
        }
        run = RunConfig(command="ga")
        assert written(sweep(data), run) == render_csv_rows(sweep(data), run)
        sizes = [report._TABLE_ROWS, report._TABLE_ROWS, 5]  # r, p, cr and m in each block, one 1-D call each
        assert sorted(calls) == sorted([(size,) for size in sizes] * 4)


@pytest.mark.parametrize("table_rows", [3, report._TABLE_ROWS])
def test_csv_writer_equals_the_row_writer_on_mixed_blocks(monkeypatch, table_rows):
    # NA, nan and +-inf, integer-valued floats and cells past the orjson path among on-path cells,
    # one-text columns, columns mostly past the path, bools, strings and object ints past int64
    monkeypatch.setattr(report, "_TABLE_ROWS", table_rows)
    rng = np.random.default_rng(42)
    rows = 41
    on = rng.uniform(-1.0, 1.0, (rows, 3))
    on[[0, 4, 5, 17, 40], [0, 1, 2, 0, 1]] = 3.0, float("nan"), float("inf"), -float("inf"), 1e-9
    off = rng.uniform(1.0, 10.0, rows) * 1e-6
    off[[1, 2, 20]] = 0.5, 0.25, -0.125  # on path, in a column mostly past it
    data = {
        "j": np.repeat([1, 1 << 63, 2], [20, 1, 20]).astype(object),
        "r": np.arange(rows),
        "p": on[:, 0],
        "cr": np.ma.array(on[:, 1], mask=rng.random(rows) < 0.2),
        "cl1": on[:, 2],
        "one": np.full(rows, 0.5),
        "e2": off,
        "big": rng.uniform(1.1e11, 1e13, rows),
        "whole": np.floor(rng.uniform(-1e6, 1e6, rows)),
        "flag": rng.random(rows) < 0.5,
        "name": np.array(["a", "b%s", "c,d"] * 13 + ["e", "f"], dtype=object),
        "m": np.where(np.arange(rows) % 2 == 0, on[:, 0], 1e20),
    }
    result = sweep(data)
    run = RunConfig(command="ga")
    assert written(result, run) == render_csv_rows(result, run)

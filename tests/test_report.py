import json
import tracemalloc
from functools import partial
from itertools import chain

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from witnesses import render_csv_rows, render_json_rows

from groverlab import report
from groverlab.cli import main
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


def rendered(result, run):
    """`render`'s document, after checking that `write` emits the same text."""
    emitted = []
    report.write(result, run, emitted.append)
    text = report.render(result, run)
    assert "".join(emitted) == text
    return text


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
        assert rendered(result, run) == render_json_rows(result, run)

    def test_empty_array_is_an_empty_list(self):
        result = sweep({"r": np.array([], dtype=int)}, extra={"log": [np.empty((0, 2))]})
        run = RunConfig(command="gga", fmt="json")
        assert json.loads(rendered(result, run))["metadata"]["log"] == [[]]

    def test_document_without_arrays_is_the_plain_encoding(self):
        result = sweep({"r": np.arange(2), "p": np.ma.array([1e-300, 0.0], mask=[False, True])}, extra={"x": [1, 2]})
        run = RunConfig(command="ga", fmt="json")
        assert rendered(result, run) == render_json_rows(result, run)

    def test_nul_string_is_encoded_as_the_encoder_does(self):
        # a string holding NULs is escaped as json.dumps escapes it, whatever it spells
        result = sweep({"r": np.array([], dtype=int)}, extra={"log": np.zeros((1, 2))})
        run = RunConfig(command="gga", fmt="json", init_file="\x00ndarray\x00")
        text = rendered(result, run)
        assert text == render_json_rows(result, run)
        assert '"init_file": "\\u0000ndarray\\u0000"' in text
        assert json.loads(text)["config"]["init_file"] == "\x00ndarray\x00"

    def test_other_types_are_not_serializable(self):
        for value in ({1, 2}, np.int64(3), object()):
            result = sweep({"r": np.arange(1)}, extra={"x": [value]})
            with pytest.raises(TypeError, match="not JSON serializable"):
                report.render(result, RunConfig(command="ga", fmt="json"))


# -0.0, subnormals, the float extremes, non-finite values and values on either
# side of a 12-significant-digit rounding boundary
EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, 2.225073858507201e-308, 1e-300, 1e300, -1e300, 1.7976931348623157e308,
    float("nan"), float("inf"), float("-inf"), 0.1 + 0.2, 2.0 / 3.0,
    1.0000000000005, 1.00000000000049, 9.9999999999995, 99999999999.95, 123456789012.5, 0.5e-12,
]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(), st.floats(-1e3, 1e3))
objects = st.one_of(st.text(max_size=6), st.booleans(), st.none(), st.integers(-5, 5), floats)


@st.composite
def sweeps(draw):
    """A SweepResult of random int, float, NA-masked float, object and boolean columns."""
    rows = draw(st.integers(0, 8))
    names = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=5, unique=True))
    data = {}
    for name in names:
        kind = draw(st.sampled_from(["int", "float", "na", "object", "bool"]))
        cells = lambda strategy: draw(st.lists(strategy, min_size=rows, max_size=rows))
        if kind == "int":
            data[name] = np.array(cells(st.integers(-(2**63), 2**63 - 1)), dtype=np.int64)
        elif kind == "object":
            data[name] = np.array(cells(objects), dtype=object)
        elif kind == "bool":
            data[name] = np.array(cells(st.booleans()), dtype=bool)
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
    assert rendered(result, csv_run) == render_csv_rows(result, csv_run)
    assert rendered(result, json_run) == render_json_rows(result, json_run)


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
    one_block = [rendered(result, run) for run in runs]
    monkeypatch.setattr(report, "_BLOCK_ROWS", 7)
    assert [rendered(result, run) for run in runs] == one_block
    monkeypatch.setattr(report, "_TABLE_ROWS", 3)  # each 7-row block formatted as 3, 3 and 1 rows
    assert [rendered(result, run) for run in runs] == one_block
    assert one_block == [render_csv_rows(result, runs[0]), render_json_rows(result, runs[1])]


@pytest.mark.parametrize("pairs", [0, 1, 6, 7, 8, 14, 15, 20])
def test_pair_array_blocks_join_to_one_array(monkeypatch, pairs):
    # arrays that end just before, on and just after the boundaries at pairs 7 and 14
    monkeypatch.setattr(report, "_TABLE_ROWS", 7)
    log = np.arange(2.0 * pairs).reshape(-1, 2) / 3.0
    result = sweep({"r": np.arange(2)}, extra={"log": [log], "after": log})
    run = RunConfig(command="gga", fmt="json")
    assert rendered(result, run) == render_json_rows(result, run)


def test_array_longer_than_a_block_equals_the_encoder():
    log = np.random.default_rng(5).standard_normal((2 * report._TABLE_ROWS + 3, 2))
    log.ravel()[: len(SPECIAL)] = SPECIAL
    result = sweep({"r": np.arange(2)}, extra={"amplitudes_per_step": [{"r": 0, "other_amplitudes": log}]})
    run = RunConfig(command="gga", fmt="json")
    assert rendered(result, run) == render_json_rows(result, run)


def test_write_slices_long_blocks(monkeypatch):
    monkeypatch.setattr(report, "_WRITE_CHARS", 5)
    result = sweep({"r": np.arange(30), "p": np.linspace(0.0, 1.0, 30)})
    for fmt in ("csv", "json"):
        run = RunConfig(command="ga", fmt=fmt)
        emitted = []
        report.write(result, run, emitted.append)
        assert max(map(len, emitted)) == 5
        assert "".join(emitted) == report.render(result, run)

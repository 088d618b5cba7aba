import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import groverlab
from groverlab import bruteforce, report
from groverlab.bruteforce import MEASURE_KEYS, MEASURES, evolve
from groverlab.cli import main
from groverlab.discord import pairwise_discord_closed_form
from groverlab.errors import NumericalConsistencyError
from groverlab.gga import AmplitudeDistribution, distribution_from_json
from groverlab.grover import FLOAT_SAFE_QUBITS, GroverConfig, reduced_density, state_at
from groverlab.linalg import pure_partial_trace
from groverlab.nonlocality import svetlichny_max_rows
from groverlab.optimizers import OptimizerConfig
from groverlab.report import MAX_ROWS
from witnesses import checker_concurrence, checker_grover_amplitudes, written

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

GOLDEN = Path(__file__).parent / "golden"

# numpy's AVX-512 dispatch targets on this host, and whether this process dispatches to none of them
# (NPY_DISABLE_CPU_FEATURES names them, or the host has none)
AVX512_TARGETS = [t for t in __cpu_dispatch__ if t == "X86_V4" or t.startswith("AVX512")]
BELOW_AVX512 = not any(__cpu_features__.get(t) for t in AVX512_TARGETS)


def run_cli(*args):
    result = CliRunner().invoke(main, list(args))
    # a traceback also exits 1, so only a SystemExit may end a run
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return result


def parse_csv(text):
    meta = {}
    header = None
    rows = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


def assert_both_write_paths(args, golden: Path, out: Path):
    """The run prints the golden file's bytes on stdout, and writes them with --out."""
    want = golden.read_bytes()
    result = run_cli(*args)
    assert result.exit_code == 0
    assert result.stdout_bytes == want
    assert run_cli(*args, "--out", str(out)).exit_code == 0
    assert out.read_bytes() == want


def traced_run(*args):
    """(result, peak bytes that tracemalloc saw) of one CLI run that succeeds."""
    tracemalloc.start()
    try:
        result = run_cli(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    return result, peak


class TestGaCommand:
    def test_two_qubit_run_ends_solved(self):
        result = run_cli("ga", "--n", "2", "--j", "1")
        assert result.exit_code == 0
        meta, header, rows = parse_csv(result.output)
        assert header[:2] == ["r", "p"]
        assert float(rows[-1]["p"]) == 1.0
        assert float(rows[-1]["cr"]) == 0.0

    def test_coherence_sweep_row_count_and_monotonicity(self):
        result = run_cli("ga", "--n", "11", "--j", "1", "--measures", "cr")
        _, _, rows = parse_csv(result.output)
        assert len(rows) == 36
        values = [float(r["cr"]) for r in rows]
        assert values[0] == 11.0
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_solution_count_family(self):
        result = run_cli("ga", "--n", "11", "--j", "1..10", "--measures", "cr")
        _, header, rows = parse_csv(result.output)
        assert header[0] == "j"
        by_j = {}
        for row in rows:
            by_j.setdefault(int(row["j"]), []).append(float(row["cr"]))
        assert set(by_j) == set(range(1, 11))
        for series in by_j.values():
            assert series[0] == 11.0

    def test_unavailable_measure_marked(self):
        # j=2 has no structured two-qubit form and n=13 is past the
        # statevector cap, so the column must carry an explicit marker
        result = run_cli("ga", "--n", "13", "--j", "2", "--measures", "e2", "--r-max", "2")
        meta, _, rows = parse_csv(result.output)
        assert meta["engine.j2.e2"] == "unavailable"
        assert all(row["e2"] == "NA" for row in rows)

    def test_oracle_engine_for_multiple_solutions(self):
        result = run_cli("ga", "--n", "5", "--j", "2", "--measures", "e2", "--r-max", "2")
        meta, _, rows = parse_csv(result.output)
        assert meta["engine.j2.e2"] == "oracle"
        assert all(row["e2"] != "NA" for row in rows)

    def test_no_oracle_flag(self):
        result = run_cli(
            "ga", "--n", "5", "--j", "2", "--measures", "e2", "--r-max", "1", "--no-oracle"
        )
        meta, _, rows = parse_csv(result.output)
        assert meta["engine.j2.e2"] == "unavailable"
        assert rows[0]["e2"] == "NA"

    def test_unknown_measure_is_usage_error(self):
        result = run_cli("ga", "--n", "3", "--measures", "bogus")
        assert result.exit_code == 2

    def test_bad_j_is_usage_error(self):
        result = run_cli("ga", "--n", "2", "--j", "0")
        assert result.exit_code == 2

    def test_r_max_clamped_to_optimum(self):
        result = run_cli("ga", "--n", "2", "--j", "1", "--measures", "cr", "--r-max", "9")
        meta, _, rows = parse_csv(result.output)
        assert len(rows) == 2  # r_opt(2) = 1
        assert meta["r_max_clamped.j1"] == "1"

    def test_negative_r_max_is_usage_error(self):
        result = run_cli("ga", "--n", "2", "--r-max", "-3")
        assert result.exit_code == 2

    def test_json_schema(self):
        result = run_cli("ga", "--n", "3", "--j", "1", "--format", "json", "--seed", "9")
        doc = json.loads(result.output)
        assert set(doc) == {"config", "rows", "metadata"}
        assert doc["metadata"]["seed"] == 9
        assert doc["metadata"]["version"]
        assert "tolerances" in doc["metadata"]
        assert doc["metadata"]["engines"]["j1.cr"] == "analytic"
        assert len(doc["rows"]) == 3

    @pytest.mark.parametrize(
        "n, j_spec, r_max", [(11, "2,3", 2), (12, "2", 1)], ids=["n11-j2,3", "n12-j2"]
    )
    def test_oracle_en_rows_match_the_checker_enumeration(self, n, j_spec, r_max):
        # The benchmark's `oracle` sweeps, held to its checker's `en` at its
        # tolerance: the r = 0 rows are the square root of rounding noise, so a
        # change to the oracle's rounding shows here first.
        result = run_cli("ga", "--n", str(n), "--j", j_spec, "--r-max", str(r_max))
        assert result.exit_code == 0
        meta, _, rows = parse_csv(result.output)
        js = [int(j) for j in j_spec.split(",")]
        assert len(rows) == len(js) * (r_max + 1)
        for row in rows:
            j = int(row.get("j", js[0]))
            assert meta[f"engine.j{j}.en"] == "oracle"
            ref = checker_concurrence(checker_grover_amplitudes(n, j, int(row["r"])))
            assert abs(float(row["en"]) - ref) <= 1e-9 + 1e-11 * abs(ref), (j, row["r"], row["en"], ref)

    def test_rows_are_written_as_they_are_formatted(self, tmp_path):
        # 25,736 rows: 1.25 MB of text, written one block of rows at a time
        out = tmp_path / "a.csv"
        peak = traced_run("ga", "--n", "30", "--measures", "cr,cl1", "--out", str(out))[1]
        assert len(parse_csv(out.read_text())[2]) == 25_736
        assert peak <= 5 * 2**20, f"{peak / 2**20:.1f} MB"

    def test_json_rows_are_written_as_they_are_formatted(self, tmp_path):
        # the same rows as JSON: each block's text is freed once it is written
        out = tmp_path / "a.json"
        peak = traced_run("ga", "--n", "30", "--measures", "cr,cl1", "--format", "json", "--out", str(out))[1]
        assert len(json.loads(out.read_text())["rows"]) == 25_736
        assert peak <= 5 * 2**20, f"{peak / 2**20:.1f} MB"

    def test_seed_recorded_in_csv(self):
        result = run_cli("ga", "--n", "2", "--seed", "31")
        meta, _, _ = parse_csv(result.output)
        assert meta["seed"] == "31"


class TestInputDomain:
    def test_one_qubit_marks_two_qubit_measures_unavailable(self):
        result = run_cli("ga", "--n", "1")
        assert result.exit_code == 0
        meta, _, rows = parse_csv(result.output)
        for m in ("e2", "en", "m"):
            assert meta[f"engine.j1.{m}"] == "unavailable"
            assert all(row[m] == "NA" for row in rows)
        assert float(rows[0]["cr"]) == 1.0
        assert float(rows[0]["dn"]) == 0.0

    def test_one_qubit_e2_prints_no_number(self):
        result = run_cli("ga", "--n", "1", "--measures", "e2")
        assert result.exit_code == 0
        _, _, rows = parse_csv(result.output)
        assert [row["e2"] for row in rows] == ["NA"]

    def test_svetlichny_needs_three_qubits(self):
        result = run_cli("ga", "--n", "2", "--j", "3", "--measures", "svet", "--r-max", "0")
        assert result.exit_code == 0
        meta, _, rows = parse_csv(result.output)
        assert meta["engine.j3.svet"] == "unavailable"
        assert rows[0]["svet"] == "NA"

    @pytest.mark.parametrize("measure, n", [("d2", 2), ("svet", 3)])
    def test_optimizer_measures_at_their_minimum_n(self, measure, n):
        result = run_cli(
            "ga", "--n", str(n), "--measures", measure, "--grid", "8x16", "--restarts", "2"
        )
        assert result.exit_code == 0, result.output
        meta, _, rows = parse_csv(result.output)
        assert meta[f"engine.j1.{measure}"] == "analytic"
        assert all(row[measure] != "NA" for row in rows)

    @pytest.mark.parametrize("n", ["19", "25"])
    def test_former_multiqubit_crashes_exit_zero(self, n):
        result = run_cli("ga", "--n", n)
        assert result.exit_code == 0
        _, _, rows = parse_csv(result.output)
        assert all(0.0 <= float(row["en"]) <= 2.0 for row in rows)

    def test_largest_float_safe_register_is_finite(self):
        result = run_cli(
            "ga", "--n", str(FLOAT_SAFE_QUBITS), "--r-max", "1",
            "--measures", "cr,cl1,e2,en,d2,dn,m,svet", "--grid", "4x8", "--restarts", "1",
        )
        assert result.exit_code == 0, result.output
        _, header, rows = parse_csv(result.output)
        values = [float(row[c]) for row in rows for c in header]
        assert len(rows) == 2
        assert all(math.isfinite(v) for v in values)

    @pytest.mark.parametrize(
        "args, rows",
        [
            (("--n", "64"), "3,373,259,427"),  # r_opt + 1 rows: 25 GiB for the r column alone
            (("--n", "44", "--j", "1,2"), "5,623,550"),  # each series alone is under the cap
        ],
    )
    def test_sweep_past_the_row_cap_is_usage_error(self, args, rows):
        result = run_cli("ga", *args)
        assert result.exit_code == 2
        assert rows in result.output and f"{MAX_ROWS:,}" in result.output and "--r-max" in result.output

    @pytest.mark.parametrize(
        "args, option",
        [
            (("--n", "4", "--phi-points", str(MAX_ROWS + 1)), "--phi-points"),
            (("--init-file", "{init}", "--r-max", str(MAX_ROWS + 1)), "--r-max"),
        ],
    )
    def test_gga_past_the_row_cap_is_usage_error(self, args, option, tmp_path):
        init = tmp_path / "uniform.json"
        init.write_text(json.dumps({"n": 2, "solutions": [0], "amplitudes": [[0.5, 0.0]] * 4}))
        result = run_cli("gga", *(a.format(init=init) for a in args))
        assert result.exit_code == 2
        assert option in result.output and f"{MAX_ROWS:,}" in result.output

    def test_r_max_brings_a_large_register_under_the_row_cap(self):
        result = run_cli("ga", "--n", "64", "--r-max", "3")
        assert result.exit_code == 0, result.output
        assert len(parse_csv(result.output)[2]) == 4

    @pytest.mark.parametrize(
        "args",
        [
            ("ga", "--n", "4", "--measures", "svet"),  # an optimizer reads the seed
            ("ga", "--n", "4", "--measures", "d2"),  # the analytic d2 does not
            ("gga", "--n", "4"),
            ("verify", "--max-n", "2"),
            ("figures", "--out", "{tmp}"),
        ],
    )
    def test_negative_seed_is_usage_error(self, args, tmp_path):
        result = run_cli(*(a.format(tmp=tmp_path) for a in args), "--seed", "-1")
        assert result.exit_code == 2
        assert "--seed" in result.output
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["ga", "gga"])
    def test_past_float_safe_register_is_usage_error(self, command):
        result = run_cli(command, "--n", str(FLOAT_SAFE_QUBITS + 1), "--r-max", "1")
        assert result.exit_code == 2
        assert str(FLOAT_SAFE_QUBITS) in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ("ga", "--n", "4", "--j", "5..3"),
            ("ga", "--n", "4", "--restarts", "0"),
            ("ga", "--n", "4", "--grid", "1x8"),
            ("gga", "--n", "4", "--phi-points", "0"),
            ("ga", "--n", "4", "--j", "one"),
            ("ga", "--n", "4", "--grid", "8"),
            ("verify", "--j", "5..3"),
            ("verify", "--max-n", "2", "--j", "9"),
            ("gga", "--init-file", "{init}", "--r-max", "-1"),
        ],
    )
    def test_empty_or_malformed_requests_are_usage_errors(self, args, tmp_path):
        init = tmp_path / "uniform.json"
        init.write_text(json.dumps({"n": 2, "solutions": [0], "amplitudes": [[0.5, 0.0]] * 4}))
        result = run_cli(*(a.format(init=init) for a in args))
        assert result.exit_code == 2
        assert "Error:" in result.output


@pytest.mark.parametrize("args, bad", [(("--max-n", "8", "--j", "0,1"), 0), (("--j", "-3"), -3)])
def test_verify_names_a_solution_count_below_one(args, bad, monkeypatch):
    # rejected before any series is stepped, with the bad value and not a bound that depends on n
    monkeypatch.setattr(bruteforce, "_check_series", lambda *args: pytest.fail("a series was stepped"))
    result = run_cli("verify", *args)
    assert result.exit_code == 2
    assert f"Error: solution counts must be >= 1, got {bad}\n" in result.stderr
    assert result.stdout == ""


# (golden name without .csv, CLI args) compared to 12 significant digits, and byte for byte
GOLDEN_CSV = [
    ("ga_n11", ("ga", "--n", "11")),
    ("ga_n11_j1-10_cr", ("ga", "--n", "11", "--j", "1..10", "--measures", "cr")),
    ("ga_n6_j2_oracle", ("ga", "--n", "6", "--j", "2", "--measures", "e2,en,dn,m")),
    ("gga_n10_phi50", ("gga", "--n", "10", "--phi-points", "50")),
    ("ga_n28_r300", ("ga", "--n", "28", "--r-max", "300")),
    ("ga_n1022_j1-3", ("ga", "--n", "1022", "--j", "1..3", "--r-max", "2")),
    ("gga_n1022_phi5", ("gga", "--n", "1022", "--phi-points", "5")),
    # 9 rows: the d2 closed form at j = 2 and two lockstep blocks of svet (8 x 512 pairs each)
    ("ga_n8_j2_d2_svet_r512", ("ga", "--n", "8", "--j", "2", "--measures", "d2,svet", "--restarts", "512")),
]

# (golden file name, CLI args) compared byte for byte through stdout and --out
GOLDEN_BYTES = [
    # analytic columns beside NA columns past the oracle cap
    ("ga_n13_j1-2_r3.json", ("ga", "--n", "13", "--j", "1,2", "--r-max", "3", "--format", "json")),
    ("ga_n6_j1-2_r2.json", ("ga", "--n", "6", "--j", "1,2", "--r-max", "2", "--format", "json")),
    # strings, booleans, ints and floats in one row
    ("verify_n4.csv", ("verify", "--max-n", "4", "--format", "csv")),
    ("verify_n4.json", ("verify", "--max-n", "4", "--format", "json")),
    ("gga_n6_phi5.json", ("gga", "--n", "6", "--phi-points", "5", "--format", "json")),
    # the benchmark's oracle ops, where JSON prints every bit of the stacked oracles
    ("verify_n9_j1-2.json", ("verify", "--max-n", "9", "--j", "1,2", "--seed", "0", "--format", "json")),
    ("ga_n12_j2_r1.json", ("ga", "--n", "12", "--j", "2", "--r-max", "1", "--format", "json")),
    ("ga_n11_j2-3_r2.json", ("ga", "--n", "11", "--j", "2,3", "--r-max", "2", "--format", "json")),
    # every bit of the d2 closed form
    ("ga_n11_d2_r11.json", ("ga", "--n", "11", "--measures", "d2", "--r-max", "11", "--format", "json")),
    # the d2 closed form at j = 2
    ("ga_n10_j2_d2.csv", ("ga", "--n", "10", "--j", "2", "--measures", "d2")),
    # 11 rows of the oracle d2 at j = 3, outside the closed form's j = 2^k
    ("ga_n9_j3_d2.csv", ("ga", "--n", "9", "--j", "3", "--measures", "d2")),
    # every bit of nine oracle `en` series (j = 2..10), one Gram per class of equivalent cuts
    ("ga_n11_j1-10_en.json", ("ga", "--n", "11", "--j", "1..10", "--measures", "en", "--format", "json")),
    # 40 series in one block: the any-j closed forms, e2 at j = 1, d2's closed form at each 2^k and the e2
    # and d2 oracles elsewhere. CSV, as the JSON's last digits of cr and d2 follow numpy's SIMD log2
    ("ga_n10_j1-40_r2.csv", ("ga", "--n", "10", "--j", "1..40", "--r-max", "2", "--measures", "cr,cl1,e2,d2")),
    # the top of verify's range, where the wide cuts of n = 10's real series are reduced in float64
    ("verify_n10_j1-2.json", ("verify", "--max-n", "10", "--j", "1,2", "--format", "json")),
]

# numpy's AVX-512 log2 and log1p kernels made this golden's bits, which others move by an ulp or two
D2_SIMD_XFAIL = pytest.mark.xfail(
    BELOW_AVX512, strict=True, reason="ROADMAP: Golden bits that do not depend on numpy's SIMD kernels"
)


def d2_marked(cases: list) -> list:
    """The (name, args) cases, ga_n11_d2_r11.json's as a strict xfail below AVX-512 dispatch."""
    return [pytest.param(*case, marks=D2_SIMD_XFAIL) if case[0] == "ga_n11_d2_r11.json" else case for case in cases]


# the phi-family goldens under their file names
GOLDEN_PHI = [(f"{name}.csv", args) for name, args in GOLDEN_CSV if args[0] == "gga"] + [
    (name, args) for name, args in GOLDEN_BYTES if args[0] == "gga"
]


class TestStreamedErrors:
    """A sweep computes its rows as they are written, so an error may come after the header."""

    @pytest.mark.parametrize("error", [ValueError, NumericalConsistencyError])
    def test_error_in_a_later_block_is_a_usage_error(self, error, monkeypatch, tmp_path):
        calls = []
        closed_form = MEASURES["cr"].closed_form

        def second_block_fails(cfg, st, optimizer):
            calls.append(st.r.size)
            if len(calls) == 2:
                raise error("cr left its range")
            return closed_form(cfg, st, optimizer)

        monkeypatch.setitem(MEASURES, "cr", replace(MEASURES["cr"], closed_form=second_block_fails))
        monkeypatch.setattr(report, "_BLOCK_ROWS", 7)
        out = tmp_path / "a.csv"
        for extra in ((), ("--out", str(out))):
            calls.clear()
            result = run_cli("ga", "--n", "11", "--measures", "cr", *extra)
            assert result.exit_code == 2
            assert "Error: cr left its range" in result.stderr
            # the header and the first block's rows were written before the failure
            _, header, rows = parse_csv(out.read_text() if extra else result.stdout)
            assert header == ["r", "p", "cr"]
            assert [row["r"] for row in rows] == [str(r) for r in range(7)]

    @pytest.mark.parametrize(
        "args, name",
        [
            (("gga", "--n", "6", "--phi-points", "5"), "phi_family_delta_coherence"),
            (("verify", "--max-n", "3"), "cross_validate"),
        ],
    )
    def test_numerical_consistency_error_is_a_usage_error(self, args, name, monkeypatch):
        def fails(*args, **kwargs):
            raise NumericalConsistencyError("a radicand left its range")

        monkeypatch.setattr(report, name, fails)
        result = run_cli(*args)
        assert result.exit_code == 2
        assert "Error: a radicand left its range" in result.stderr

    @pytest.mark.parametrize("args", [("--r-max", "-1"), ("--n", "64"), ("--j", "0")])
    def test_argument_error_writes_no_file(self, args, tmp_path):
        out = tmp_path / "a.csv"
        result = run_cli("ga", *args, "--out", str(out))
        assert result.exit_code == 2
        assert not out.exists()


class TestGoldenOutputs:
    """CLI outputs equal the stored files byte for byte, and so to 12 significant digits."""

    @pytest.mark.parametrize("name, args", GOLDEN_CSV)
    def test_matches_golden(self, name, args):
        result = run_cli(*args)
        assert result.exit_code == 0
        assert result.output == (GOLDEN / f"{name}.csv").read_text()
        want_meta, want_header, want_rows = parse_csv((GOLDEN / f"{name}.csv").read_text())
        meta, header, rows = parse_csv(result.output)
        assert (meta, header) == (want_meta, want_header)
        assert len(rows) == len(want_rows)
        for row, want in zip(rows, want_rows):
            for column in header:
                if want[column] == "NA":
                    assert row[column] == "NA", (column, row)
                    continue
                got, expected = float(row[column]), float(want[column])
                # one unit in the 12th digit covers rounding at the boundary
                assert got == pytest.approx(expected, rel=1e-11, abs=1e-14), (column, row)

    @pytest.mark.parametrize("name, args", d2_marked(GOLDEN_BYTES))
    def test_byte_identical(self, name, args, tmp_path):
        assert_both_write_paths(args, GOLDEN / name, tmp_path / name)

    @pytest.mark.parametrize(
        "name, args",
        # pytest numbers the cases by position, so the goldens added after the
        # phi cases joined this list (GOLDEN_BYTES[12:]) go after them
        d2_marked(
            [(f"{name}.csv", args) for name, args in GOLDEN_CSV if name.startswith("ga_")]
            + [(name, args) for name, args in GOLDEN_BYTES[:12] if name.startswith("ga_")]
            + GOLDEN_PHI
            + [(name, args) for name, args in GOLDEN_BYTES[12:] if name.startswith("ga_")]
        ),
    )
    def test_seven_row_blocks_change_no_byte(self, name, args, monkeypatch, tmp_path):
        # long series span many blocks and short ones share a block, so no closed
        # form, oracle slice or search may give a row other bits in another block
        monkeypatch.setattr(report, "_BLOCK_ROWS", 7)
        assert_both_write_paths(args, GOLDEN / name, tmp_path / name)

    @pytest.mark.parametrize("disabled", ["X86_V4 AVX512_ICL AVX512_SPR", "X86_V4 AVX512_ICL AVX512_SPR X86_V3"])
    def test_phi_bits_do_not_depend_on_the_simd_kernels(self, disabled, tmp_path):
        # numpy's AVX-512 arctan2 gives other bits than its AVX2 and baseline
        # kernels (at 41 of these 4,000 points at n = 3), so the phi family takes
        # beta through math.atan2. The setting acts only on a new process;
        # naming a kernel the host lacks changes nothing
        sweeps = {f"n{n}.json": ("gga", "--n", str(n), "--phi-points", "4000", "--format", "json") for n in (3, 8)}
        runs = [[*args, "--out", str(tmp_path / name)] for name, args in GOLDEN_PHI + list(sweeps.items())]
        code = "import json, sys\nfrom groverlab.cli import main\nfor args in json.loads(sys.argv[1]):\n    main(args, standalone_mode=False)\n"
        src = str(Path(groverlab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": disabled}
        subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env, check=True)
        for name, _ in GOLDEN_PHI:
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
        # off the goldens only r_opt is held: delta_cr's log2 rounds as numpy's kernel does
        for name, args in sweeps.items():
            ours, lowered = (json.loads(text)["rows"] for text in (run_cli(*args).output, (tmp_path / name).read_text()))
            assert [row["r_opt"] for row in ours] == [row["r_opt"] for row in lowered], name

    @pytest.mark.parametrize(
        "name, args",
        [
            ("gga_init_real_n4_r6.json", ("gga_init_real_n4.json", "--r-max", "6", "--format", "json")),
            ("gga_init_complex_n5_r2.json", ("gga_init_complex_n5.json", "--r-max", "2", "--format", "json")),
            ("gga_init_complex_n5_r2.csv", ("gga_init_complex_n5.json", "--r-max", "2", "--format", "csv")),
        ],
    )
    def test_init_file_byte_identical(self, name, args, monkeypatch, tmp_path):
        # the start is named relative to the golden directory, as the stored
        # JSON config records the path it was given
        monkeypatch.chdir(GOLDEN)
        assert_both_write_paths(("gga", "--init-file", *args), GOLDEN / name, tmp_path / name)

    @pytest.mark.parametrize(
        "name, n, j, extra",
        [("ga_n6_j1_optimizers", 6, 1, ()), ("ga_n4_j2_optimizers", 4, 2, ("--r-max", "1"))],
    )
    def test_optimizers_never_worse_than_nelder_mead(self, name, n, j, extra):
        # The stored files were written by scipy's Nelder-Mead searches. The
        # discord closed form may not end higher and the alternating
        # Svetlichny ascent not lower, and every search must converge. The
        # j = 2 file's d2 engine line reads `oracle`, as it was written before
        # d2 had a closed form at j = 2.
        args = ("ga", "--n", str(n), "--j", str(j), "--measures", "d2,svet", *extra, "--restarts", "16")
        result = run_cli(*args)
        assert result.exit_code == 0
        want_meta, want_header, want_rows = parse_csv((GOLDEN / f"{name}.csv").read_text())
        meta, header, rows = parse_csv(result.output)
        assert (meta, header) == ({**want_meta, f"engine.j{j}.d2": "analytic"}, want_header)
        assert len(rows) == len(want_rows)
        cfg = GroverConfig(n=n, j=j)
        optimizer = OptimizerConfig(restarts=16, seed=0)
        for row, want in zip(rows, want_rows):
            assert float(row["d2"]) <= float(want["d2"]) + 1e-9, row
            assert float(row["svet"]) >= float(want["svet"]) - 1e-9, row
            r = int(row["r"])
            # the one-row series state or amplitude stack, taken as the sweep takes it
            amps, one = evolve(cfg, r).amplitudes[None], state_at(cfg, np.array([r]))
            assert format(pairwise_discord_closed_form(cfg, one)[0], ".12g") == row["d2"]
            svet = svetlichny_max_rows(
                reduced_density(cfg, one, 3) if j == 1 else pure_partial_trace(amps, (0, 1, 2)), optimizer
            )
            assert meta[f"engine.j{j}.svet"] == ("analytic" if j == 1 else "oracle")
            assert np.all(svet.converged), r
            assert format(svet.value[0], ".12g") == row["svet"]


@pytest.mark.skipif(not AVX512_TARGETS, reason="numpy reports no AVX-512 dispatch target on this host")
def test_goldens_below_avx512_dispatch():
    # the golden tests again, in a process whose numpy kernels are the AVX2 ones, then in one whose
    # kernels are the baseline ones (every dispatch target off): no CSV text may depend on them (the
    # CSV writer rounds by comparisons and correctly rounded operations), nor may verify's float64
    # deviations. The two ga_n11_d2_r11.json cases are strict xfails at both levels, so a mend flips them
    src = str(Path(groverlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    test = f"{Path(__file__).resolve()}::TestGoldenOutputs"
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test, "-k", "not simd_kernels"]
    for disabled in (AVX512_TARGETS, list(__cpu_dispatch__)):
        env = {**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled)}
        run = subprocess.run(argv, env=env, capture_output=True, text=True, cwd=Path(__file__).resolve().parents[1])
        summary = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else run.stderr
        assert run.returncode == 0, (disabled, run.stdout[-4000:])
        assert " 2 xfailed" in summary and "failed" not in summary.replace("xfailed", ""), (disabled, summary)


@st.composite
def ga_args(draw):
    n = draw(st.integers(1, 14))
    valid = st.sampled_from(["1", "2", "3", "1,2", "1..3", "2..3", "3,1"])
    invalid = st.sampled_from(["5..3", "0", ",", "x", "1..", "16383"])
    j_spec = draw(st.one_of(valid, valid, valid, invalid))
    keys = [k for k in MEASURE_KEYS if k != "p"]
    if n > 6:
        keys = [k for k in keys if k not in ("d2", "svet")]
    if n > 10:
        keys.remove("en")  # its oracle enumerates 2^n subsets, ~0.3 s a row at n = 12
    measures = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=4, unique=True))
    args = ["ga", "--n", str(n), "--j", j_spec, "--measures", ",".join(measures)]
    args += ["--r-max", str(draw(st.integers(0, 2))), "--restarts", "1", "--grid", "4x8"]
    if draw(st.booleans()):
        args.append("--no-oracle")
    return args


@settings(max_examples=400)
@given(ga_args())
def test_ga_domain_fuzz(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 2), (args, result.output, result.exception)
    if result.exit_code == 2:
        return
    meta, header, rows = parse_csv(result.output)
    assert rows
    single_j = next(k.split(".")[1][1:] for k in meta if k.startswith("engine.j"))
    for row in rows:
        j = row.get("j", single_j)
        for column in header[header.index("p"):]:
            engine = meta[f"engine.j{j}.{column}"]
            value = row[column]
            assert (value == "NA") == (engine == "unavailable"), (args, j, column, value)
            if value != "NA":
                assert math.isfinite(float(value)), (args, j, column, value)


def data_rows(args, output):
    """The data rows of a successful run: CSV rows, JSON rows, or for verify
    the identity rows, which must have checked at least one case."""
    if "json" in args:
        rows = json.loads(output)["rows"]
    else:
        _, _, rows = parse_csv(output)
    if args[0] == "verify":
        cases = {row["name"]: int(row["cases"]) for row in rows}
        return rows if cases["success_probability"] > 0 else []
    return rows


@st.composite
def gga_args(draw):
    """A phi-family sweep, or an --init-file run on a small drawn document."""
    if draw(st.booleans()):
        n = draw(st.sampled_from(["0", "1", "2", "3", "8", str(FLOAT_SAFE_QUBITS + 1), "x"]))
        points = draw(st.sampled_from(["-1", "0", "1", "3", "7"]))
        return ["gga", "--n", n, "--phi-points", points], None
    n = draw(st.integers(1, 3))
    N = 1 << n
    solutions = draw(st.lists(st.integers(-1, N), min_size=0, max_size=N, unique=True))
    part = st.lists(st.floats(-1, 1, allow_subnormal=False), min_size=N, max_size=N)
    amps = np.array(draw(part)) + 1j * np.array(draw(part) if draw(st.booleans()) else [0.0] * N)
    norm = np.linalg.norm(amps)
    if norm > 0 and draw(st.integers(0, 4)):  # mostly normalized
        amps = amps / norm
    doc = {"n": n, "solutions": solutions, "amplitudes": [[a.real, a.imag] for a in amps]}
    args = ["gga", "--init-file", "start.json", "--format", draw(st.sampled_from(["csv", "json"]))]
    r_max = draw(st.sampled_from([None, "-1", "0", "1", "4"]))
    if r_max is not None:
        args += ["--r-max", r_max]
    return args, doc


@settings(max_examples=150)
@given(gga_args())
def test_gga_domain_fuzz(drawn):
    args, doc = drawn
    runner = CliRunner()
    with runner.isolated_filesystem():
        if doc is not None:
            Path("start.json").write_text(json.dumps(doc))
        result = runner.invoke(main, args)
    assert result.exit_code in (0, 2), (args, doc, result.output, result.exception)
    assert "Traceback" not in result.output
    if result.exit_code == 0:
        assert data_rows(args, result.output), (args, doc)


@settings(max_examples=60)
@given(
    st.sampled_from(["1", "2", "3", "4", "11", "x"]),
    st.sampled_from(["1", "2", "3", "1,2", "1..3", "5..3", "9", "0", "3,9", ","]),
    st.sampled_from(["csv", "json"]),
)
def test_verify_domain_fuzz(max_n, j_spec, fmt):
    args = ["verify", "--max-n", max_n, "--j", j_spec, "--format", fmt]
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 2), (args, result.output, result.exception)
    assert "Traceback" not in result.output
    if result.exit_code == 0:
        assert data_rows(args, result.output), args


class TestDeterminism:
    def test_ga_sweep_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            run_cli(
                "ga", "--n", "6", "--j", "1", "--measures", "cr,e2,d2", "--seed", "7",
                "--grid", "16x32", "--out", str(p),
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_verify_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            run_cli("verify", "--max-n", "3", "--seed", "5", "--out", str(p))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_gga_phi_sweep_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            run_cli("gga", "--n", "10", "--phi-points", "9", "--out", str(p))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_output_uses_lf_endings(self, tmp_path):
        out = tmp_path / "a.csv"
        run_cli("ga", "--n", "2", "--out", str(out))
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestGgaCommand:
    def test_phi_sweep_monotone(self):
        result = run_cli("gga", "--n", "10", "--phi-points", "50")
        _, _, rows = parse_csv(result.output)
        assert len(rows) == 50
        r_opt = [float(r["r_opt"]) for r in rows]
        d_c = [float(r["delta_cr"]) for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(r_opt, r_opt[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(d_c, d_c[1:]))
        assert d_c[-1] == pytest.approx(9.0, abs=1e-9)
        assert all(float(r["p_max"]) == pytest.approx(1.0, abs=1e-12) for r in rows)

    def test_uniform_init_file_matches_ga(self, tmp_path):
        n, j = 4, 1
        N = 1 << n
        doc = {
            "n": n,
            "solutions": list(range(j)),
            "amplitudes": [[1 / math.sqrt(N), 0.0]] * N,
        }
        init = tmp_path / "init.json"
        init.write_text(json.dumps(doc))
        gga_out = run_cli("gga", "--init-file", str(init), "--r-max", "3")
        _, _, gga_rows = parse_csv(gga_out.output)
        ga_out = run_cli("ga", "--n", str(n), "--j", str(j), "--measures", "cr", "--r-max", "3")
        _, _, ga_rows = parse_csv(ga_out.output)
        for g_row, a_row in zip(gga_rows, ga_rows):
            assert float(g_row["p"]) == pytest.approx(float(a_row["p"]), abs=1e-12)

    def test_init_file_json_has_per_step_amplitudes(self, tmp_path):
        doc = {
            "n": 2,
            "solutions": [0],
            "amplitudes": [[0.5, 0.0]] * 4,
        }
        init = tmp_path / "init.json"
        init.write_text(json.dumps(doc))
        result = run_cli("gga", "--init-file", str(init), "--format", "json", "--r-max", "2")
        payload = json.loads(result.output)
        steps = payload["metadata"]["amplitudes_per_step"]
        assert len(steps) == 3
        assert steps[1]["solution_amplitudes"] == [[1.0, 0.0]]
        assert "closed_form" in payload["metadata"]

    def test_negated_start_reports_the_start_own_peak(self, tmp_path):
        # -psi is the same state: both averages negative put beta below -pi/2, and the
        # optimal time is still the first peak, not the one a period later
        doc = json.loads((GOLDEN / "gga_init_real_n4.json").read_text())
        negated = tmp_path / "negated.json"
        negated.write_text(json.dumps({**doc, "amplitudes": [[-re, -im] for re, im in doc["amplitudes"]]}))
        (meta, _, rows), (neg_meta, _, neg_rows) = (
            parse_csv(run_cli("gga", "--init-file", str(init)).output) for init in (GOLDEN / "gga_init_real_n4.json", negated)
        )
        keys = ("optimal_time", "p_floor", "p_ceil", "p_max")
        assert [neg_meta[key] for key in keys] == [meta[key] for key in keys]
        assert meta["optimal_time"] == "2.53328510825"
        assert len(neg_rows) == len(rows) == 4

    @pytest.fixture
    def uniform_n10(self, tmp_path):
        N = 1 << 10
        init = tmp_path / "uniform.json"
        init.write_text(json.dumps({"n": 10, "solutions": [0], "amplitudes": [[1 / math.sqrt(N), 0.0]] * N}))
        return init

    def test_csv_init_file_keeps_no_amplitude_log(self, uniform_n10):
        # CSV prints no amplitudes, so a long run holds its columns and no per-step log
        result, peak = traced_run("gga", "--init-file", str(uniform_n10), "--r-max", "2000")
        assert len(parse_csv(result.output)[2]) == 2001
        assert peak < 8 * 2**20, f"{peak / 2**20:.1f} MB"

    def test_json_amplitude_log_is_written_as_it_is_formatted(self, uniform_n10, tmp_path):
        # one step's amplitudes at a time: never the log's 3.3 MB of arrays,
        # nor its 15.5 MB of text, at once
        out = tmp_path / "a.json"
        args = ("gga", "--init-file", str(uniform_n10), "--r-max", "200", "--format", "json", "--out", str(out))
        peak = traced_run(*args)[1]
        assert len(json.loads(out.read_text())["metadata"]["amplitudes_per_step"]) == 201
        assert peak < 3_000_000, f"{peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("init, r_max", [("gga_init_real_n4.json", 6), ("gga_init_complex_n5.json", 2)])
    def test_json_result_writes_the_same_bytes_twice(self, init, r_max):
        # the amplitude log is stepped again on each walk
        dist = distribution_from_json((GOLDEN / init).read_text())
        run = report.RunConfig(command="gga", n=dist.n, r_max=r_max, fmt="json", init_file=init)
        result = report.init_file_sweep(run, dist)
        first = written(result, run)
        emitted = []
        report.write(result, run, emitted.append)
        assert "".join(emitted) == first
        assert first == (GOLDEN / f"{init[:-5]}_r{r_max}.json").read_text()

    @pytest.fixture
    def grover_steps(self, monkeypatch):
        """A 1 for every single step of the one Grover kernel, whichever walk or iterate took it."""
        from groverlab import gga

        steps = []
        kernel = gga._grover_step

        def counting(amps, sols):
            steps.append(1)
            kernel(amps, sols)

        monkeypatch.setattr(gga, "_grover_step", counting)
        return steps

    def test_phi_sweep_takes_no_grover_step(self, grover_steps):
        result = run_cli("gga", "--n", "10", "--phi-points", "5")
        assert result.exit_code == 0
        assert grover_steps == []

    def test_phi_sweep_builds_no_amplitude_vector(self, monkeypatch):
        def refuse(dist):
            raise AssertionError(f"the phi sweep built {dist.size} amplitudes")

        monkeypatch.setattr(AmplitudeDistribution, "__post_init__", refuse)
        result = run_cli("gga", "--n", "10", "--phi-points", "5")
        assert result.exit_code == 0

    @pytest.mark.parametrize("n", [30, 64, FLOAT_SAFE_QUBITS])
    def test_phi_sweep_past_the_statevector_cap(self, n):
        result = run_cli("gga", "--n", str(n), "--phi-points", "3")
        assert result.exit_code == 0, result.output
        _, _, rows = parse_csv(result.output)
        assert [row["p_max"] for row in rows] == ["1"] * 3
        times = [float(row["r_opt"]) for row in rows]
        assert all(math.isfinite(t) and t > 0.0 for t in times) and times == sorted(times, reverse=True)

    def test_init_file_steps_only_between_rows(self, tmp_path, grover_steps):
        # one single step per r up to ceil(t) for p_floor and p_ceil, then one per r up to r_max
        # as the rows are written; the rows stop at r_max
        uniform = tmp_path / "uniform.json"
        uniform.write_text(json.dumps({"n": 4, "solutions": [3], "amplitudes": [[0.25, 0.0]] * 16}))
        real, cplx = GOLDEN / "gga_init_real_n4.json", GOLDEN / "gga_init_complex_n5.json"
        # t = 2.6 (uniform), 2.53 (real), 2.55 (complex, scan fallback): ceil(t) = 3 for each
        for init, r_max, steps in [(uniform, 5, 3 + 5), (real, 1, 3 + 1), (real, 6, 3 + 6), (cplx, 2, 3 + 2), (cplx, 4, 3 + 4)]:
            grover_steps.clear()
            result = run_cli("gga", "--init-file", str(init), "--r-max", str(r_max), "--format", "csv")
            assert result.exit_code == 0
            _, _, rows = parse_csv(result.output)
            assert [int(row["r"]) for row in rows] == list(range(r_max + 1))
            assert grover_steps == [1] * steps, (init.name, r_max)
            # JSON steps the amplitude log again as it writes it: r_max more single steps
            grover_steps.clear()
            result = run_cli("gga", "--init-file", str(init), "--r-max", str(r_max), "--format", "json")
            assert result.exit_code == 0
            assert grover_steps == [1] * (steps + r_max), (init.name, r_max)

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"n": 2, "solutions": [0], "amplitudes": [[0.5, math.nan]] + [[0.5, 0]] * 3}, "amplitudes[0]"),
            ({"n": 1, "solutions": [0], "amplitudes": [[math.nan, 0], [1, 0]]}, "amplitudes[0]"),
            ({"n": 1, "solutions": [1], "amplitudes": [[1, 0], [math.inf, 0]]}, "amplitudes[1]"),
            ({"n": 1, "solutions": [0], "amplitudes": [[1, 0], [0, 10**400]]}, "amplitudes[1]"),
            ({"n": True, "solutions": [0], "amplitudes": [[1, 0], [0, 0]]}, "'n'"),
            ({"n": 1, "solutions": [True], "amplitudes": [[1, 0], [0, 0]]}, "'solutions'"),
        ],
    )
    def test_non_finite_or_boolean_init_file_is_usage_error(self, tmp_path, doc, field):
        init = tmp_path / "bad.json"
        init.write_text(json.dumps(doc))  # json writes NaN and Infinity, and reads them back
        for fmt in ("csv", "json"):
            result = run_cli("gga", "--init-file", str(init), "--format", fmt)
            assert result.exit_code == 2
            assert field in result.output

    def test_malformed_init_file_is_usage_error(self, tmp_path):
        init = tmp_path / "bad.json"
        init.write_text('{"n": 2, "solutions": [0retry]}')
        result = run_cli("gga", "--init-file", str(init))
        assert result.exit_code == 2
        assert "line" in result.output

    def test_unnormalized_init_file_is_usage_error(self, tmp_path):
        init = tmp_path / "bad.json"
        init.write_text(json.dumps({"n": 1, "solutions": [0], "amplitudes": [[1, 0], [1, 0]]}))
        result = run_cli("gga", "--init-file", str(init))
        assert result.exit_code == 2
        assert "normalized" in result.output

    @pytest.mark.parametrize(
        "args, option",
        [
            (("--n", "4", "--phi-points", "2", "--r-max", "3"), "--r-max"),
            (("--init-file", "{init}", "--n", "9"), "--n"),
            (("--init-file", "{init}", "--phi-points", "3"), "--phi-points"),
            (("--init-file", "{init}", "--r-max", "2", "--n", "9", "--phi-points", "3"), "--n"),
        ],
    )
    def test_option_the_mode_ignores_is_usage_error(self, tmp_path, args, option):
        init = tmp_path / "uniform.json"
        init.write_text(json.dumps({"n": 2, "solutions": [0], "amplitudes": [[0.5, 0.0]] * 4}))
        args = [a.format(init=init) for a in args]
        result = run_cli("gga", *args)
        assert result.exit_code == 2, result.output
        assert f"{option} applies only to" in result.output
        # the same keys in a config file are checked as the flags are
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{key[2:]}={value}\n" for key, value in zip(args[::2], args[1::2])))
        result = run_cli("gga", "--config", str(config))
        assert result.exit_code == 2, result.output
        assert f"{option} applies only to" in result.output

    def test_options_each_mode_reads_still_run(self, tmp_path):
        init = tmp_path / "uniform.json"
        init.write_text(json.dumps({"n": 2, "solutions": [0], "amplitudes": [[0.5, 0.0]] * 4}))
        assert run_cli("gga", "--init-file", str(init), "--r-max", "2").exit_code == 0
        assert run_cli("gga", "--n", "4", "--phi-points", "2").exit_code == 0


class TestVerifyCommand:
    def test_clean_run_exits_zero(self):
        result = run_cli("verify", "--max-n", "4")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["metadata"]["passed"] is True
        assert all(row["passed"] for row in doc["rows"])

    def test_fault_injection_exits_nonzero(self):
        result = run_cli("verify", "--max-n", "3", "--inject-fault", "1e-3")
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert doc["metadata"]["passed"] is False

    def test_huge_finite_fault_fails_every_faulted_identity(self):
        # 1e308 overflows the closed forms to inf or nan: each identity that
        # reads the faulted amplitude fails, with no numpy warning (an error
        # under this suite's warning filter) and no traceback
        result = run_cli("verify", "--max-n", "3", "--inject-fault", "1e308")
        assert result.exit_code == 1

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        doc = json.loads(result.output, parse_constant=refuse)
        assert doc["metadata"]["passed"] is False
        # grover_step_norm checks the statevector alone
        assert {row["name"]: row["passed"] for row in doc["rows"] if row["passed"]} == {"grover_step_norm": True}
        assert all(row["cases"] > 0 for row in doc["rows"])
        # a non-finite deviation is the CSV token as a string; chsh_M's faulted
        # discriminant is inf - inf, and a NaN deviation counts as inf
        deviations = {row["name"]: row["max_deviation"] for row in doc["rows"]}
        assert deviations["chsh_M"] == "inf"
        assert sum(value == "inf" for value in deviations.values()) == 8
        _, _, rows = parse_csv(run_cli("verify", "--max-n", "3", "--inject-fault", "1e308", "--format", "csv").output)
        assert [row["max_deviation"] for row in rows] == [
            str(value) if isinstance(value, str) else format(value, ".12g") for value in deviations.values()
        ]

    def test_seed_is_printed_and_changes_no_row(self):
        # every k-subset is checked, none drawn: the seed is recorded, not used
        docs = [json.loads(run_cli("verify", "--max-n", "7", "--j", "1..4", "--seed", seed).output) for seed in "05"]
        assert [doc["metadata"]["seed"] for doc in docs] == [0, 5]
        assert docs[0]["rows"] == docs[1]["rows"]

    def test_single_solution_count_is_not_widened(self):
        # r = 0..r_opt at n = 2, 3 for j = 1 only: 2 + 3 cases
        result = run_cli("verify", "--max-n", "3", "--j", "1", "--format", "csv")
        assert result.exit_code == 0
        _, _, rows = parse_csv(result.output)
        cases = {row["name"]: int(row["cases"]) for row in rows}
        assert cases["success_probability"] == 5

    def test_identities_no_case_reaches_are_not_reported_passed(self):
        # every identity below is checked at j = 1 only
        result = run_cli("verify", "--max-n", "3", "--j", "2", "--format", "csv")
        assert result.exit_code == 0
        meta, _, rows = parse_csv(result.output)
        assert meta["passed"] == "true"
        unchecked = {
            "concurrence_two_qubit",
            "chsh_M",
            "genuine_discord",
            "reduced_density",
            "multiqubit_concurrence_forms",
            "partition_minimum",
        }
        for row in rows:
            if row["name"] in unchecked:
                assert (row["cases"], row["max_deviation"], row["passed"]) == ("0", "NA", "NA")
            else:
                assert int(row["cases"]) > 0 and row["passed"] == "true", row
        doc = json.loads(run_cli("verify", "--max-n", "3", "--j", "2").output)
        for row in doc["rows"]:
            if row["name"] in unchecked:
                assert row["max_deviation"] is None and row["passed"] is None

    def test_top_of_range_passes_every_identity(self):
        result = run_cli("verify", "--max-n", "10", "--j", "1,2", "--format", "csv")
        assert result.exit_code == 0
        meta, _, rows = parse_csv(result.output)
        assert meta["passed"] == "true"
        assert len(rows) == 12
        for row in rows:
            assert row["passed"] == "true" and int(row["cases"]) > 0, row

    def test_csv_format(self):
        result = run_cli("verify", "--max-n", "3", "--format", "csv")
        meta, header, rows = parse_csv(result.output)
        assert header == ["name", "max_deviation", "tolerance", "passed", "cases"]
        assert all(row["passed"] == "true" for row in rows)


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n=3\nmeasures=cr\nseed=12\n")
        result = run_cli("ga", "--config", str(cfgfile))
        meta, header, rows = parse_csv(result.output)
        assert meta["seed"] == "12"
        assert header == ["r", "p", "cr"]
        assert len(rows) == 3  # r_opt(3)=2

    def test_flags_override_config(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n=3\nseed=12\n")
        result = run_cli("ga", "--config", str(cfgfile), "--n", "2", "--measures", "cr")
        meta, _, rows = parse_csv(result.output)
        assert len(rows) == 2  # r_opt(2)=1
        assert meta["seed"] == "12"

    def test_malformed_config_is_usage_error(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n 3\n")
        result = run_cli("ga", "--config", str(cfgfile))
        assert result.exit_code == 2

    def test_missing_config_file_is_usage_error(self, tmp_path):
        result = run_cli("ga", "--config", str(tmp_path / "absent.cfg"))
        assert result.exit_code == 2
        assert "cannot read config file" in result.output

    def test_directory_as_config_is_usage_error(self, tmp_path):
        result = run_cli("verify", "--config", str(tmp_path))
        assert result.exit_code == 2
        assert "cannot read config file" in result.output

    @pytest.mark.parametrize(
        "command, key",
        [
            ("ga", "workers=2"),
            ("ga", "measurs=cr"),
            ("ga", "max-n=4"),
            ("gga", "measures=cr"),
            ("verify", "n=4"),
            ("figures", "format=json"),
            # every figure column is a closed form, so figures takes no search setting
            ("figures", "grid=4x8"),
            ("figures", "restarts=1"),
        ],
    )
    def test_unknown_key_is_usage_error(self, tmp_path, monkeypatch, command, key):
        monkeypatch.chdir(tmp_path)  # a run that wrongly goes ahead writes here
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"seed=3\n{key}\n")
        result = run_cli(command, "--config", str(cfgfile))
        assert result.exit_code == 2
        assert f"unknown {command} config key {key.partition('=')[0]!r}" in result.output

    def test_each_command_reads_its_own_keys(self, tmp_path):
        cfgfile = tmp_path / "verify.cfg"
        cfgfile.write_text("max-n=3\nj=1\nformat=csv\n")
        result = run_cli("verify", "--config", str(cfgfile))
        assert result.exit_code == 0
        _, _, rows = parse_csv(result.output)
        assert {row["name"]: int(row["cases"]) for row in rows}["success_probability"] == 5

    @pytest.mark.parametrize("command", ["ga", "verify"])
    def test_bad_config_value_is_usage_error(self, tmp_path, command):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("format=xml\n")
        result = run_cli(command, "--config", str(cfgfile))
        assert result.exit_code == 2
        assert "Invalid value for '--format'" in result.output

    def test_config_boolean_flag(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n=5\nj=2\nmeasures=e2\nr-max=1\nno-oracle=true\n")
        result = run_cli("ga", "--config", str(cfgfile))
        assert result.exit_code == 0
        meta, _, rows = parse_csv(result.output)
        assert meta["engine.j2.e2"] == "unavailable"
        assert rows[0]["e2"] == "NA"

    def test_figures_out_flag_overrides_config(self, tmp_path):
        flag_dir, config_dir = tmp_path / "flag", tmp_path / "config"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"out={config_dir}\nphi-points=3\n")
        result = run_cli("figures", "--config", str(cfgfile), "--out", str(flag_dir))
        assert result.exit_code == 0, result.output
        assert len(list(flag_dir.iterdir())) == 8
        assert not config_dir.exists()


@pytest.mark.parametrize(
    "args",
    [
        ("ga", "--n", "2", "--out", "."),
        ("ga", "--n", "2", "--out", "taken/a.csv"),
        ("verify", "--max-n", "2", "--out", ""),
        ("figures", "--phi-points", "2", "--out", "taken"),
    ],
)
def test_unwritable_output_is_usage_error(tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    Path("taken").write_text("a file, not a directory\n")
    result = run_cli(*args)
    assert result.exit_code == 2, result.output
    assert "cannot write" in result.output


# small runs of each command, as flags and as the same config lines
SMALL_RUNS = {
    "ga": {"n": "2", "measures": "cr"},
    "gga": {"n": "2", "phi-points": "3"},
    "verify": {"max-n": "2", "j": "1"},
}


def _typed_options(command):
    """Long names of the options that convert their text: all but free strings and --config."""
    return [
        p.opts[0][2:]
        for p in main.commands[command].params
        if p.expose_value and p.type is not click.STRING
    ]


@pytest.mark.parametrize(
    "command, option",
    [(c, o) for c in SMALL_RUNS for o in _typed_options(c)],
)
def test_malformed_option_value_is_usage_error(tmp_path, monkeypatch, command, option):
    monkeypatch.chdir(tmp_path)
    small = SMALL_RUNS[command]
    flags = [f for key, value in small.items() for f in (f"--{key}", value)]
    (param,) = (p for p in main.commands[command].params if p.opts[0] == f"--{option}")
    if not param.is_flag:  # a flag takes no value on the command line
        result = run_cli(command, *flags, f"--{option}", "x")
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '--{option}'" in result.output
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("".join(f"{key}={value}\n" for key, value in small.items()) + f"{option}=x\n")
    result = run_cli(command, "--config", str(cfgfile))
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '--{option}'" in result.output


@pytest.mark.parametrize(
    "args, option",
    [
        (("verify", "--j", "abc"), "--j"),
        (("verify", "--j", "1..x"), "--j"),
        (("ga", "--n", "4", "--grid", "abc"), "--grid"),
        (("ga", "--n", "4", "--grid", "2"), "--grid"),
        # a non-finite fault would print nan or inf deviations and exit 1
        (("verify", "--max-n", "3", "--inject-fault", "nan"), "--inject-fault"),
        (("verify", "--max-n", "3", "--inject-fault", "inf"), "--inject-fault"),
        (("verify", "--max-n", "3", "--inject-fault", "-inf"), "--inject-fault"),
    ],
)
def test_malformed_spec_is_usage_error(tmp_path, monkeypatch, args, option):
    monkeypatch.chdir(tmp_path)  # a run that wrongly goes ahead writes here
    result = run_cli(*args)
    assert result.exit_code == 2
    assert f"Invalid value for '{option}'" in result.output
    assert not list(tmp_path.iterdir())


GRID_FORM = "expected THETAxPHI, two integers such as 64x128"
J_FORM = "expected J, J1,J2,... or LO..HI"


@pytest.mark.parametrize(
    "args, form",
    [
        (("ga", "--n", "4", "--grid", "5"), GRID_FORM),
        (("ga", "--n", "4", "--grid", "x"), GRID_FORM),
        (("ga", "--n", "4", "--grid", "8x8x8"), GRID_FORM),
        (("ga", "--n", "4", "--grid", "abc"), GRID_FORM),
        (("ga", "--n", "4", "--j", "1.."), J_FORM),
        (("ga", "--n", "4", "--j", "..3"), J_FORM),
        (("ga", "--n", "4", "--j", "1..2..3"), J_FORM),
        (("ga", "--n", "4", "--j", "one"), J_FORM),
        (("verify", "--j", "1,x"), J_FORM),
    ],
)
def test_malformed_grid_or_j_names_the_expected_form(tmp_path, monkeypatch, args, form):
    monkeypatch.chdir(tmp_path)  # a run that wrongly goes ahead writes here
    result = run_cli(*args)
    assert result.exit_code == 2
    assert form in result.output
    assert "invalid literal" not in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        # cr reads neither the grid nor the restarts, so only the caps stop these runs
        (("ga", "--n", "4", "--measures", "cr", "--grid", "1449x1449"), "--grid THETAxPHI may have at most 2,097,152"),
        (("ga", "--n", "4", "--j", "2", "--measures", "d2", "--r-max", "0", "--grid", "100000x100000"), "--grid"),
        (("ga", "--n", "4", "--measures", "cr", "--restarts", "4097"), "--restarts must lie in 1..4,096"),
        # the range is rejected before its tuple is built
        (("ga", "--n", "4", "--j", "1..4000001"), "Invalid value for '--j'"),
        (("ga", "--n", "11", "--j", "1..10000000000"), "Invalid value for '--j'"),
        (("verify", "--max-n", "2", "--j", "1..4000001"), "Invalid value for '--j'"),
    ],
)
def test_optimizer_and_j_range_caps_are_usage_errors(tmp_path, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)  # a run that wrongly goes ahead writes here
    result = run_cli(*args)
    assert result.exit_code == 2, result.output
    assert message in result.output


@pytest.mark.parametrize("config", [dict(theta_grid=1024, phi_grid=2048), dict(restarts=4096)])
def test_largest_optimizer_settings_in_use_are_admitted(config):
    OptimizerConfig(**config)


@pytest.fixture(scope="module")
def figure_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("figs")
    result = CliRunner().invoke(
        main,
        ["figures", "--out", str(out), "--phi-points", "12"],
    )
    assert result.exit_code == 0, result.output
    return out


class TestFiguresCommand:
    def test_all_files_emitted(self, figure_dir):
        names = {p.name for p in figure_dir.iterdir()}
        assert names == {
            "fig2.csv", "fig3.csv", "fig4.csv", "fig5.csv",
            "fig2.gp", "fig3.gp", "fig4.gp", "fig5.gp",
        }

    def test_fig2_families(self, figure_dir):
        _, _, rows = parse_csv((figure_dir / "fig2.csv").read_text())
        by_j = {}
        for row in rows:
            by_j.setdefault(int(row["j"]), []).append(float(row["cr"]))
        assert set(by_j) == set(range(1, 11))
        for series in by_j.values():
            assert series[0] == 11.0

    def test_fig3_columns(self, figure_dir):
        _, header, rows = parse_csv((figure_dir / "fig3.csv").read_text())
        assert header == ["phi0", "r_opt", "delta_cr", "p_max"]
        assert len(rows) == 12

    def test_fig4_endpoints(self, figure_dir):
        _, _, rows = parse_csv((figure_dir / "fig4.csv").read_text())
        assert float(rows[0]["e2"]) == pytest.approx(0.0, abs=1e-9)
        assert float(rows[0]["en"]) == pytest.approx(0.0, abs=1e-6)
        assert float(rows[-1]["e2"]) < 0.05
        assert float(rows[-1]["en"]) < 0.05

    def test_fig5_endpoints(self, figure_dir):
        _, _, rows = parse_csv((figure_dir / "fig5.csv").read_text())
        assert float(rows[0]["d2"]) == pytest.approx(0.0, abs=1e-6)
        assert float(rows[0]["dn"]) == pytest.approx(0.0, abs=1e-6)

    def test_gnuplot_scripts_reference_data(self, figure_dir):
        for name in ("fig2", "fig3", "fig4", "fig5"):
            script = (figure_dir / f"{name}.gp").read_text()
            assert f"{name}.csv" in script


def test_cli_import_loads_no_scipy():
    # every CLI start pays for what `import groverlab.cli` loads
    code = "import sys, groverlab.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    src = str(Path(groverlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

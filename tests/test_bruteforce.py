import itertools
import sys
from fractions import Fraction

import numpy as np
import pytest

from groverlab import bruteforce, discord, entanglement, nonlocality
from groverlab.bruteforce import (
    _IDENTITY_TOLERANCES,
    DEFAULT_GA_MEASURES,
    MEASURE_KEYS,
    MEASURES,
    _generic_measures,
    cross_validate,
    evolve,
    evolve_series,
)
from groverlab.coherence import coherence_r_ga
from groverlab.errors import CapacityError, InvalidStateError
from groverlab.gga import AmplitudeDistribution, gga_iterate
from groverlab.grover import FLOAT_SAFE_QUBITS, GroverConfig, _reduced_matrix, optimal_iterations, state_at
from groverlab.linalg import DensityMatrix, pure_partial_trace
from groverlab.optimizers import OptimizerConfig
from groverlab.report import RunConfig, ga_sweep, verify_rows
from witnesses import bits, every_subset_deviations, row_state


class TestGroverStep:
    def test_two_qubit_hand_computation(self, fraction_grover):
        # flip then invert about the mean: (1/2,...) -> (1, 0, 0, 0) exactly
        dist = evolve(GroverConfig(n=2, j=1), 1)
        assert dist.amplitudes[0] == 1.0
        assert np.all(dist.amplitudes[1:] == 0.0)
        assert fraction_grover(2, (0,), 1) == [2, 0, 0, 0]

    def test_three_qubit_exact_rational(self, fraction_grover):
        expected = fraction_grover(3, (0,), 2)[0] ** 2 / 8
        assert expected == Fraction(121, 128)
        dist = evolve(GroverConfig(n=3, j=1), 2)
        assert abs(dist.amplitudes[0]) ** 2 == pytest.approx(float(expected), abs=1e-12)

    def test_empty_solution_set(self):
        with pytest.raises(InvalidStateError, match="solutions"):
            AmplitudeDistribution.uniform(2, ())

    def test_out_of_range_solutions(self):
        with pytest.raises(InvalidStateError, match="range"):
            AmplitudeDistribution.uniform(2, (4,))

    def test_norm_preserved(self):
        dist = evolve(GroverConfig(n=9, j=2, solutions=(3, 100)), 0)
        for _ in range(17):
            dist = gga_iterate(dist, 1)
            assert np.sum(np.abs(dist.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestStateVector:
    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            evolve(GroverConfig(n=13, j=1), 0)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidStateError):
            AmplitudeDistribution(np.array([1.0, 1.0]), (0,))

    def test_rejects_bad_length(self):
        with pytest.raises(InvalidStateError):
            AmplitudeDistribution(np.array([1.0, 0.0, 0.0]), (0,))


def oracle_row(cfg, r, measures, optimizer=None):
    """_generic_measures on the one-row stack of evolve(cfg, r): its values of that row."""
    values = _generic_measures(evolve(cfg, r).amplitudes[None], cfg, measures, optimizer or OptimizerConfig())
    return {k: v[0] for k, v in values.items()}


class TestRunAndMeasure:
    def test_success_probability_row(self):
        values = oracle_row(GroverConfig(n=3, j=1), 2, ("p",))
        assert values["p"] == pytest.approx(121 / 128, abs=1e-12)

    def test_initial_product_state_row(self):
        values = oracle_row(
            GroverConfig(n=5, j=1), 0, ("cr", "cl1", "e2", "d2"), OptimizerConfig(theta_grid=32, phi_grid=64)
        )
        assert values["cr"] == pytest.approx(5.0, abs=1e-10)
        assert values["cl1"] == pytest.approx(31.0, abs=1e-9)
        assert values["e2"] == pytest.approx(0.0, abs=1e-7)
        assert values["d2"] == pytest.approx(0.0, abs=1e-7)

    def test_cross_engine_identity(self):
        cfg = GroverConfig(n=8, j=3)
        values = oracle_row(cfg, 1, ("cr",))
        assert values["cr"] == pytest.approx(coherence_r_ga(cfg, state_at(cfg, 1)), abs=1e-10)

    def test_large_n_uses_pure_state_paths(self):
        cfg = GroverConfig(n=10, j=1)
        values = oracle_row(cfg, 3, ("cr", "cl1", "dn"))
        assert values["cr"] == pytest.approx(coherence_r_ga(cfg, state_at(cfg, 3)), abs=1e-10)

    def test_capacity_error(self):
        # past the statevector cap the row path gives NA instead of raising
        columns = ga_sweep(RunConfig(command="ga", n=13, j_values=(2,), r_max=1, measures=("cr", "e2"))).join()
        assert np.ma.getmaskarray(columns["e2"]).tolist() == [True, True]
        assert np.isfinite(columns["cr"]).all() and not np.ma.is_masked(columns["cr"])

    def test_measure_outside_its_domain_is_unavailable(self):
        columns = ga_sweep(RunConfig(command="ga", n=2, j_values=(3,), measures=("e2", "svet"))).join()
        assert np.ma.getmaskarray(columns["svet"]).tolist() == [True]
        assert columns["e2"].tolist() == [pytest.approx(0.0, abs=1e-7)]


class TestMeasureTable:
    def test_keys_and_defaults(self):
        assert MEASURE_KEYS == ("p", "cr", "cl1", "e2", "en", "d2", "dn", "m", "svet")
        assert DEFAULT_GA_MEASURES == ("cr", "cl1", "e2", "en", "dn", "m")

    @pytest.mark.parametrize(
        "key, n, j, use_oracle, engine",
        [
            ("cr", 1, 1, True, "analytic"),
            ("cr", 20, 5, False, "analytic"),
            ("e2", 1, 1, True, "unavailable"),
            ("e2", 2, 1, True, "analytic"),
            ("e2", 12, 2, True, "oracle"),
            ("e2", 13, 2, True, "unavailable"),
            ("e2", 5, 2, False, "unavailable"),
            ("svet", 2, 1, True, "unavailable"),
            ("svet", 3, 1, True, "analytic"),
            ("svet", 2, 3, True, "unavailable"),
            ("dn", 1, 1, True, "analytic"),
        ],
    )
    def test_engine_follows_the_domain(self, key, n, j, use_oracle, engine):
        assert MEASURES[key].engine(GroverConfig(n=n, j=j), use_oracle) == engine

    @pytest.mark.parametrize("key", MEASURE_KEYS)
    def test_analytic_engine_is_where_the_closed_form_runs(self, key):
        # a `ga` block calls each analytic form on its rows with no guard of its
        # own, so the table's engine and the form's domain check must agree
        measure, opt = MEASURES[key], OptimizerConfig(theta_grid=8, phi_grid=8, restarts=1)
        for n, j in ((n, j) for n in range(1, 14) for j in range(1, 18) if j < 1 << n):
            cfg = GroverConfig(n=n, j=j)
            try:
                measure.closed_form(cfg, state_at(cfg, [0, 1]), opt)
                runs = True
            except ValueError:
                runs = False
            assert (measure.engine(cfg, use_oracle=False) == "analytic") == runs, (n, j)

    @pytest.mark.parametrize("key", [k for k in MEASURE_KEYS if MEASURES[k].any_j])
    def test_any_j_entries_are_analytic_at_every_n(self, key):
        # an any-j column is one closed-form call on every row of a block, with no mask
        for n in range(1, FLOAT_SAFE_QUBITS + 1):
            for j in {1, (1 << n) - 1}:
                assert MEASURES[key].engine(GroverConfig(n=n, j=j), use_oracle=False) == "analytic", (n, j)

    def test_identities_link_the_table_to_verify(self):
        identities = {k: m.identity for k, m in MEASURES.items() if m.identity}
        assert set(identities.values()) <= set(_IDENTITY_TOLERANCES)
        assert identities == {
            "p": "success_probability",
            "cr": "coherence_relative_entropy",
            "cl1": "coherence_l1",
            "e2": "concurrence_two_qubit",
            "dn": "genuine_discord",
            "m": "chsh_M",
        }
        # en is checked before its square root, by multiqubit_concurrence_forms
        assert all(MEASURES[k].identity is None for k in MEASURE_KEYS if MEASURES[k].slow or k == "en")

    @pytest.mark.parametrize("key", ["p", "cr", "cl1", "e2", "en", "d2", "dn", "m", "svet"])
    def test_closed_form_matches_oracle_at_minimum_n(self, key):
        measure = MEASURES[key]
        n = max(measure.min_qubits, 2)
        cfg = GroverConfig(n=n, j=1)
        opt = OptimizerConfig(theta_grid=16, phi_grid=32, restarts=4)
        rs = np.arange(optimal_iterations(cfg) + 1)
        series = measure.closed_form(cfg, state_at(cfg, rs), opt)
        assert len(series) == len(rs)
        for r in rs.tolist():
            closed = series[r]
            (oracle,) = measure.oracle(evolve(cfg, r).amplitudes[None], cfg, opt)
            assert closed == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("key", MEASURE_KEYS)
    @pytest.mark.parametrize("rows", [1, 3])
    def test_every_entry_is_one_float_per_row(self, key, rows):
        # the closed form on a j = 1 series state, the oracle on a j = 2 amplitude stack
        opt = OptimizerConfig(theta_grid=8, phi_grid=8, restarts=2)
        cfg, stack_cfg = GroverConfig(n=4), GroverConfig(n=4, j=2)
        closed = MEASURES[key].closed_form(cfg, state_at(cfg, np.arange(rows)), opt)
        oracle = MEASURES[key].oracle(evolve_series(stack_cfg, rows - 1), stack_cfg, opt)
        for column in (closed, oracle):
            assert type(column) is np.ndarray and column.dtype == float and column.shape == (rows,)

    @pytest.mark.parametrize("key", [k for k in MEASURE_KEYS if not MEASURES[k].slow])
    @pytest.mark.parametrize("n", [2, 3, 5, 11, 30, 400, 1022])
    def test_series_matches_scalar_states(self, key, n):
        # a series is one numpy pass; the closed form on each one-row slice
        # of its state is the reference, bit for bit: squares are np.square
        for j in (1, 3) if MEASURES[key].any_j else (1,):
            cfg = GroverConfig(n=n, j=j)
            st = state_at(cfg, np.arange(min(optimal_iterations(cfg), 500) + 1))
            series = MEASURES[key].closed_form(cfg, st, None)
            rows = [MEASURES[key].closed_form(cfg, row_state(st, i), None) for i in range(st.r.size)]
            assert bits(series) == bits(rows), j

    @pytest.mark.parametrize("n", range(2, 11))
    def test_reduced_matrix_stack_matches_row_slices(self, n):
        cfg = GroverConfig(n=n, j=1)
        st = state_at(cfg, np.arange(optimal_iterations(cfg) + 1))
        for k in range(1, n):
            stack = _reduced_matrix(n, st, k)
            for i in range(st.r.size):
                row = _reduced_matrix(n, row_state(st, i), k)
                # every bit of every entry: -0.0 and 0.0 differ, as do NaN payloads
                if not np.array_equal(stack[i].view(np.uint64), row.view(np.uint64)):
                    pairs = zip(bits(stack[i].view(float)), bits(row.view(float)))
                    diff = [pair for pair in pairs if pair[0] != pair[1]]
                    pytest.fail(f"k={k}, row {i}: {len(diff)} entries differ, first {diff[:3]}")


class TestCrossValidate:
    def test_default_suite_passes(self):
        summary = cross_validate(max_n=8, j_values=(1, 2))
        assert summary.passed
        for check in summary.checks:
            assert check.max_deviation < 1e-8, check.name
            assert check.cases > 0

    @pytest.mark.parametrize("j_values", [(1, 2), (1, 3)])
    def test_reduction_blocks_change_no_value(self, monkeypatch, j_values):
        default = bruteforce._REDUCTION_BLOCK

        def summary(block):
            monkeypatch.setattr(bruteforce, "_REDUCTION_BLOCK", block)
            checks = cross_validate(max_n=8, j_values=j_values).checks
            return [(c.name, c.cases, bits(c.max_deviation) if c.cases else None) for c in checks]

        # one row a block, the default, and the whole series in one block
        assert summary(1) == summary(default) == summary(1 << 40)

    def test_tiny_grid_passes(self):
        assert cross_validate(max_n=2).passed

    def test_injected_fault_is_detected(self):
        # max_n = 9 is the size the benchmark's verify op runs
        summary = cross_validate(max_n=9, fault=1e-3)
        assert not summary.passed
        broken = {c.name for c in summary.checks if not c.passed}
        # every identity with a closed-form side must notice the perturbation
        for name in (
            "success_probability",
            "coherence_relative_entropy",
            "coherence_l1",
            "concurrence_two_qubit",
            "chsh_M",
            "genuine_discord",
            "reduced_density",
            "multiqubit_concurrence_forms",
            "partition_minimum",
            "normalization",
            "gga_uniform_equivalence",
        ):
            assert name in broken
        # pure brute-force properties are untouched by construction
        assert "grover_step_norm" not in broken

    def test_closed_forms_are_checked_on_the_series_state(self, monkeypatch):
        # `ga` prints each closed form evaluated on the state of a whole
        # series; an error that shows only there must fail verify
        chsh_M_ga = nonlocality.chsh_M_ga

        def series_only_error(cfg, st):
            return chsh_M_ga(cfg, st) + (1e-6 if np.size(st.r) > 1 else 0.0)

        monkeypatch.setattr(nonlocality, "chsh_M_ga", series_only_error)
        checks = {c.name: c for c in cross_validate(max_n=4).checks}
        assert checks["chsh_M"].passed is False
        assert checks["chsh_M"].max_deviation == pytest.approx(1e-6, rel=1e-6)
        assert all(c.passed for name, c in checks.items() if name != "chsh_M")

    @pytest.mark.parametrize(
        "max_n, j_values, cases",
        [
            # a repeated j is a repeated series; j = 1..4 are stepped once
            # each for gga_uniform_equivalence whether requested or not
            (3, (3, 1, 1), (13, 13, 13, 10, 10, 10, 32, 13, 13, 12, 10, 10)),
            (4, (5,), (3, 3, 3, 0, 0, 0, 0, 3, 3, 23, 0, 0)),
            (10, (1, 2), (149, 149, 149, 87, 87, 87, 1196, 149, 149, 245, 87, 87)),
        ],
    )
    def test_case_counts(self, max_n, j_values, cases):
        summary = cross_validate(max_n=max_n, j_values=j_values)
        assert {c.name: c.cases for c in summary.checks} == dict(zip(_IDENTITY_TOLERANCES, cases))

    def test_no_dense_spectra_or_projectors(self, monkeypatch):
        # every spectrum comes from a Schmidt Gram factor at most 2^(n//2) wide,
        # and no 2^n x 2^n density matrix is built
        max_n = 10
        widths = []
        dims = []
        for name in ("eigvalsh", "eigh"):
            original = getattr(np.linalg, name)

            def recording(m, *args, _original=original, **kwargs):
                widths.append(np.shape(m)[-1])
                return _original(m, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        post_init = DensityMatrix.__post_init__

        def recording_post_init(self):
            dims.append(np.shape(self.matrix)[-1])
            post_init(self)

        monkeypatch.setattr(DensityMatrix, "__post_init__", recording_post_init)
        summary = cross_validate(max_n=max_n, j_values=(1, 2))
        assert summary.passed
        assert widths and max(widths) <= 1 << (max_n // 2)
        assert dims and max(dims) < 1 << max_n

    def test_series_work_does_not_grow_with_rows(self, monkeypatch):
        # each requested (n, j) series makes one oracle call, and each
        # reduction to k <= n/2 qubits takes the series' whole amplitude stack
        oracle_calls = []
        reductions = []  # (n, k, rows) of each reduction with 2k <= n
        generic, trace = bruteforce._generic_measures, bruteforce.pure_partial_trace

        def counting_generic(amps, cfg, *args):
            oracle_calls.append((cfg.n, cfg.j))
            return generic(amps, cfg, *args)

        def counting_trace(amps, keep):
            n, k = np.shape(amps)[-1].bit_length() - 1, np.shape(keep)[-1]
            if 2 * k <= n:
                reductions.append((n, k, np.shape(amps)[0] if np.ndim(amps) == 2 else 1))
            return trace(amps, keep)

        monkeypatch.setattr(bruteforce, "_generic_measures", counting_generic)
        monkeypatch.setattr(bruteforce, "pure_partial_trace", counting_trace)
        assert cross_validate(max_n=9, j_values=(1, 2)).passed
        series = [(n, j) for n in range(2, 10) for j in (1, 2)]
        assert sorted(oracle_calls) == series
        for n in range(2, 10):
            at_n = [(k, rows) for m, k, rows in reductions if m == n]
            # dn, then e2 and m once they keep k <= n/2, then one subset per
            # class of each reduced_density cut: on a Grover series, range(k)
            assert len(at_n) <= 3 + n // 2, n
            rows = optimal_iterations(GroverConfig(n=n, j=1)) + 1
            assert all(r == rows for _, r in at_n), (n, at_n)

    @staticmethod
    def record_reductions(monkeypatch) -> list:
        """(n, keep, dtype name, calling function) of each reduction the identity suite makes."""
        reduced = []

        def recording_trace(amps, keep):
            rho = pure_partial_trace(amps, keep)
            n, caller = np.shape(amps)[-1].bit_length() - 1, sys._getframe(1).f_code.co_name
            reduced.append((n, tuple(int(q) for q in keep), rho.matrix.dtype.name, caller))
            return rho

        monkeypatch.setattr(bruteforce, "pure_partial_trace", recording_trace)
        return reduced

    @staticmethod
    def check_series(monkeypatch, series, n) -> tuple:
        """(the deviations of the n-qubit j = 1 series that `series` steps, those of the every-subset witness)."""
        monkeypatch.setattr(bruteforce, "evolve_series", series)
        cfg = GroverConfig(n=n, j=1)
        got = {name: [] for name in _IDENTITY_TOLERANCES}
        bruteforce._check_series(cfg, True, False, 0.0, got)
        return got, every_subset_deviations(cfg, series(cfg, optimal_iterations(cfg)))

    def test_a_faulty_stack_checks_every_subset(self, monkeypatch):
        # 1e-7 moved from |000110> to |000011> in every row: qubits 3, 4 and 5
        # are each exchangeable with no other, so the k-subsets fall into
        # several classes
        def faulty_series(cfg, r_max):
            stack = evolve_series(cfg, r_max)
            stack[:, 0b110] -= 1e-7
            stack[:, 0b011] += 1e-7
            return stack

        got, want = self.check_series(monkeypatch, faulty_series, 6)
        stack = faulty_series(GroverConfig(n=6, j=1), 1)
        assert entanglement._exchange_labels(stack, 6).tolist() == [0, 0, 0, 3, 4, 5]
        assert sorted(bits(got["reduced_density"])) == sorted(bits(want["reduced_density"]))
        # the generic one-qubit cut keeps a qubit of the symmetric class and
        # misses the fault that every other class shows, on every row
        one_qubit = np.array(want["reduced_density"]).reshape(-1, 5, 2)[:, 0]  # (generic, largest) of each row
        assert np.max(one_qubit[:, 0]) < 1e-12 and np.min(one_qubit[:, 1]) > 1e-9
        # one term per class rounds apart from one term per subset by a few
        # ulps of the sum; C(n, k) times the generic cut's deficit is 5.5e-7 off
        forms = np.array(got["multiqubit_concurrence_forms"])
        assert np.max(np.abs(forms - want["multiqubit_concurrence_forms"])) < 1e-13
        assert np.max(forms) < 1e-11

    def test_a_broken_simulator_reduces_every_subset(self, monkeypatch):
        # one ulp per qubit, as in test_one_ulp_per_qubit_leaves_no_class:
        # no two qubits are exchangeable, so every subset is its own class
        max_n = 8

        def broken_series(cfg, r_max):
            stack = evolve_series(cfg, r_max)
            if cfg.j == 1:
                for q in range(cfg.n - 1):
                    x = 1 << (cfg.n - 1 - q)
                    stack[q, x] = np.nextafter(stack[q, x].real, np.inf)
                assert entanglement._exchange_labels(stack, cfg.n).tolist() == list(range(cfg.n))
            return stack

        reduced = self.record_reductions(monkeypatch)
        monkeypatch.setattr(bruteforce, "evolve_series", broken_series)
        checks = {c.name: c for c in cross_validate(max_n=max_n, j_values=(1,)).checks}
        want = []
        for n in range(2, max_n + 1):
            cfg = GroverConfig(n=n, j=1)
            want += every_subset_deviations(cfg, broken_series(cfg, optimal_iterations(cfg)))["reduced_density"]
            subsets = {s for k in range(1, n) for s in itertools.combinations(range(n), k)}
            assert {keep for m, keep, *_ in reduced if m == n and len(keep) < n} == subsets
        assert checks["reduced_density"].cases == len(want)
        assert bits(checks["reduced_density"].max_deviation) == bits(max(want))
        # every deviation, not only the maximum
        got, want = self.check_series(monkeypatch, broken_series, 7)
        assert sorted(bits(got["reduced_density"])) == sorted(bits(want["reduced_density"]))

    def test_the_grover_series_reduce_only_the_generic_cut(self, monkeypatch):
        # every qubit of the j = 1 state is exchangeable: each k-subset has the
        # generic cut's class, and only range(k) is reduced
        reduced = self.record_reductions(monkeypatch)
        assert cross_validate(max_n=9, j_values=(1, 2)).passed
        assert reduced and all(keep == tuple(range(len(keep))) for _, keep, *_ in reduced)

    def test_the_real_series_reduce_wide_cuts_in_float64(self, monkeypatch):
        # the j = 1 series is real: its reduction check takes each wide cut,
        # k > n - k, in float64 and each narrow one in complex, while the e2,
        # dn and m oracles, like every stack of the j = 2 series, stay complex
        reduced = self.record_reductions(monkeypatch)
        assert cross_validate(max_n=10, j_values=(1, 2)).passed
        checked = {(n, len(keep), dtype) for n, keep, dtype, caller in reduced if caller == "_check_series"}
        want = {(n, k, "float64" if k > n - k else "complex128") for n in range(2, 11) for k in range(1, n)}
        assert checked == want
        assert {dtype for _, _, dtype, caller in reduced if caller != "_check_series"} == {"complex128"}

    @pytest.mark.parametrize("n", range(3, 11))
    def test_a_wide_cut_real_gram_has_the_complex_gram_bits(self, n):
        # the float64 path of the wide cuts changes no deviation only while
        # this BLAS rounds a a^T as it rounds the real part of a a^dag, on
        # verify's blocks of rows; a host whose kernels round the two apart
        # fails here before any golden does. Narrow cuts sum 2^(n-k) >= 2^k
        # terms an entry, and there the two round apart; n = 2 has no wide cut
        # short of the whole register
        cfg = GroverConfig(n=n, j=1)
        amps = evolve_series(cfg, optimal_iterations(cfg))
        assert not amps.imag.any()
        real = np.ascontiguousarray(amps.real)
        for k in range(n // 2 + 1, n):
            size = max(1, bruteforce._REDUCTION_BLOCK >> 2 * k)
            for block in (slice(start, start + size) for start in range(0, len(amps), size)):
                got = pure_partial_trace(real[block], range(k)).matrix
                want = pure_partial_trace(amps[block], range(k)).matrix
                assert got.dtype == np.float64 and not want.imag.any(), (k, block)
                assert got.tobytes() == want.real.tobytes(), (k, block)  # every bit, -0.0 apart from 0.0

    def test_closed_forms_take_the_whole_series(self, monkeypatch):
        # the partition minimum and the multiqubit radicand are checked on the
        # series state: one call per j = 1 series, none per row
        shapes = {"genuine_discord_ga": [], "_multiqubit_radicand": []}
        for module, name in ((discord, "genuine_discord_ga"), (entanglement, "_multiqubit_radicand")):

            def counting(first, st, _original=getattr(module, name), _calls=shapes[name]):
                _calls.append(np.shape(st.r))
                return _original(first, st)

            monkeypatch.setattr(module, name, counting)
        assert cross_validate(max_n=9, j_values=(1, 2)).passed
        series = [(optimal_iterations(GroverConfig(n=n, j=1)) + 1,) for n in range(2, 10)]
        assert shapes == {name: series for name in shapes}

    def test_summary_serialization(self):
        summary, result = verify_rows(RunConfig(command="verify", max_n=3))
        assert result.extra_metadata == {"passed": True, "fault": 0.0}
        data = result.join()
        assert data["name"].tolist() == [c.name for c in summary.checks]
        assert tuple(data) == result.columns
        assert all(len(column) == len(summary.checks) for column in data.values())

    def test_max_n_guard(self):
        with pytest.raises(ValueError):
            cross_validate(max_n=11)

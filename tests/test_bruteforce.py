import math
from fractions import Fraction

import numpy as np
import pytest

from groverlab.bruteforce import (
    DEFAULT_GA_MEASURES,
    MEASURE_KEYS,
    MEASURES,
    MeasureReport,
    StateVector,
    cross_validate,
    evolve,
    grover_step,
    run_and_measure,
    uniform_state,
)
from groverlab.coherence import coherence_r_ga
from groverlab.errors import CapacityError, InvalidStateError
from groverlab.grover import GroverConfig, optimal_iterations
from groverlab.optimizers import OptimizerConfig


def fraction_grover(n, solutions, steps):
    """Exact-arithmetic oracle on amplitudes scaled by sqrt(N).

    The scaled amplitudes stay rational under both reflections, so the
    solution probability after any number of steps is an exact fraction.
    """
    N = 1 << n
    amps = [Fraction(1)] * N
    for _ in range(steps):
        for s in solutions:
            amps[s] = -amps[s]
        avg = sum(amps) / N
        amps = [2 * avg - a for a in amps]
    return sum(amps[s] ** 2 for s in solutions) / N


class TestGroverStep:
    def test_two_qubit_hand_computation(self):
        # flip then invert about the mean: (1/2,...) -> (1, 0, 0, 0) exactly
        sv = grover_step(uniform_state(2), (0,))
        assert sv.amplitudes[0] == 1.0
        assert np.all(sv.amplitudes[1:] == 0.0)
        assert fraction_grover(2, (0,), 1) == 1

    def test_all_indices_marked_gives_global_phase(self):
        sv0 = uniform_state(2)
        sv1 = grover_step(sv0, (0, 1, 2, 3))
        assert np.allclose(sv1.amplitudes, -sv0.amplitudes, atol=1e-15)

    def test_three_qubit_exact_rational(self):
        expected = fraction_grover(3, (0,), 2)
        assert expected == Fraction(121, 128)
        sv = evolve(GroverConfig(n=3, j=1), 2)
        assert abs(sv.amplitudes[0]) ** 2 == pytest.approx(float(expected), abs=1e-12)

    def test_empty_solution_set(self):
        with pytest.raises(ValueError, match="nonempty"):
            grover_step(uniform_state(2), ())

    def test_out_of_range_solutions(self):
        with pytest.raises(ValueError, match="range"):
            grover_step(uniform_state(2), (4,))

    def test_norm_preserved(self):
        sv = uniform_state(9)
        for _ in range(17):
            sv = grover_step(sv, (3, 100))
            assert np.sum(np.abs(sv.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestStateVector:
    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            uniform_state(13)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidStateError):
            StateVector(np.array([1.0, 1.0], dtype=complex))

    def test_rejects_bad_length(self):
        with pytest.raises(InvalidStateError):
            StateVector(np.array([1.0, 0.0, 0.0], dtype=complex))


class TestRunAndMeasure:
    def test_success_probability_row(self):
        report = run_and_measure(GroverConfig(n=3, j=1), 2, ("p",))
        assert report.values["p"] == pytest.approx(121 / 128, abs=1e-12)
        assert report.engines["p"] == "oracle"

    def test_initial_product_state_row(self):
        report = run_and_measure(
            GroverConfig(n=5, j=1), 0, ("cr", "cl1", "e2", "d2"), OptimizerConfig(theta_grid=32, phi_grid=64)
        )
        assert report.values["cr"] == pytest.approx(5.0, abs=1e-10)
        assert report.values["cl1"] == pytest.approx(31.0, abs=1e-9)
        assert report.values["e2"] == pytest.approx(0.0, abs=1e-7)
        assert report.values["d2"] == pytest.approx(0.0, abs=1e-7)
        assert report.optimizer_meta["d2"]["evals"] > 0

    def test_cross_engine_identity(self):
        cfg = GroverConfig(n=8, j=3)
        report = run_and_measure(cfg, 1, ("cr",))
        assert report.values["cr"] == pytest.approx(coherence_r_ga(cfg, 1), abs=1e-10)

    def test_large_n_uses_pure_state_paths(self):
        cfg = GroverConfig(n=10, j=1)
        report = run_and_measure(cfg, 3, ("cr", "cl1", "dn"))
        assert report.values["cr"] == pytest.approx(coherence_r_ga(cfg, 3), abs=1e-10)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            run_and_measure(GroverConfig(n=13, j=1), 0)

    def test_unknown_measure(self):
        with pytest.raises(ValueError, match="unknown measure"):
            run_and_measure(GroverConfig(n=3, j=1), 0, ("qq",))

    def test_measure_outside_its_domain_is_unavailable(self):
        report = run_and_measure(GroverConfig(n=2, j=3), 0, ("e2", "svet"))
        assert report.engines == {"p": "oracle", "e2": "oracle", "svet": "unavailable"}
        assert report.values["svet"] is None
        assert report.values["e2"] == pytest.approx(0.0, abs=1e-7)

    def test_report_is_a_measure_report(self):
        report = run_and_measure(GroverConfig(n=4, j=1), 1, ("m",))
        assert isinstance(report, MeasureReport)
        assert report.r == 1
        assert report.success_probability == report.values["p"]


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

    @pytest.mark.parametrize("key", ["e2", "en", "d2", "dn", "m", "svet"])
    def test_closed_form_matches_oracle_at_minimum_n(self, key):
        measure = MEASURES[key]
        n = max(measure.min_qubits, 2)
        cfg = GroverConfig(n=n, j=1)
        opt = OptimizerConfig(theta_grid=16, phi_grid=32, restarts=4)
        for r in range(optimal_iterations(cfg) + 1):
            closed = measure.closed_form(cfg, r, opt)
            oracle = measure.oracle(evolve(cfg, r).amplitudes, cfg, opt)
            if measure.slow:
                closed, oracle = closed.value, oracle.value
            assert closed == pytest.approx(oracle, abs=1e-6)


class TestCrossValidate:
    def test_default_suite_passes(self):
        summary = cross_validate(max_n=8, j_values=(1, 2))
        assert summary.passed
        for check in summary.checks:
            assert check.max_deviation < 1e-8, check.name
            assert check.cases > 0

    def test_tiny_grid_passes(self):
        assert cross_validate(max_n=2).passed

    def test_injected_fault_is_detected(self):
        summary = cross_validate(max_n=4, fault=1e-3)
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
            "multiqubit_concurrence_forms",
            "normalization",
        ):
            assert name in broken
        # pure brute-force properties are untouched by construction
        assert "grover_step_norm" not in broken
        assert "gga_uniform_equivalence" not in broken

    def test_summary_serialization(self):
        summary = cross_validate(max_n=3)
        doc = summary.to_dict()
        assert doc["passed"] is True
        assert {c["name"] for c in doc["checks"]} == {c.name for c in summary.checks}

    def test_max_n_guard(self):
        with pytest.raises(ValueError):
            cross_validate(max_n=11)

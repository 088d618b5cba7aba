import math

import numpy as np
import pytest

from groverlab.bruteforce import evolve
from groverlab.coherence import (
    coherence_asymptotics,
    coherence_l1_ga,
    coherence_r_ga,
    cost_performance,
    in_asymptotic_regime,
)
from groverlab.errors import AsymptoticRegimeWarning
from groverlab.grover import GroverConfig, optimal_iterations, state_at, success_probability
from groverlab.linalg import DensityMatrix
from witnesses import coherence_l1, coherence_relative_entropy, relative_entropy


class TestGenericMeasures:
    def test_uniform_superposition_is_maximally_coherent(self):
        n = 3
        rho = DensityMatrix.from_pure(np.full(8, 1 / math.sqrt(8)))
        assert coherence_relative_entropy(rho) == pytest.approx(n, abs=1e-10)
        assert coherence_l1(rho) == pytest.approx(7.0, abs=1e-10)

    def test_diagonal_states_are_incoherent(self):
        rho = DensityMatrix(np.diag([0.2, 0.3, 0.1, 0.4]).astype(complex))
        assert coherence_relative_entropy(rho) == 0.0
        assert coherence_l1(rho) == 0.0

    def test_ga_state_matches_closed_form(self):
        cfg = GroverConfig(n=3, j=1)
        rho = DensityMatrix.from_pure(evolve(cfg, 1).amplitudes)
        assert coherence_relative_entropy(rho) == pytest.approx(coherence_r_ga(cfg, state_at(cfg, 1)), abs=1e-10)

    @pytest.mark.parametrize("n, j", [(2, 1), (4, 1), (5, 3), (6, 2)])
    def test_closed_form_is_the_distance_to_the_dephased_state(self, n, j):
        # C_r(rho) = S(rho || Delta(rho)), the nearest incoherent state being
        # rho with its off-diagonal entries removed
        cfg = GroverConfig(n=n, j=j)
        for r in range(optimal_iterations(cfg) + 1):
            rho = DensityMatrix.from_pure(evolve(cfg, r).amplitudes)
            dephased = DensityMatrix(np.diag(rho.matrix.diagonal()))
            expected = coherence_r_ga(cfg, state_at(cfg, r))
            assert relative_entropy(rho, dephased) == pytest.approx(expected, abs=1e-9), r


class TestRelativeEntropyDynamics:
    def test_initial_coherence_is_exactly_n(self):
        for n, j in [(2, 1), (5, 3), (11, 1), (11, 10), (20, 7)]:
            cfg = GroverConfig(n=n, j=j)
            assert coherence_r_ga(cfg, state_at(cfg, 0)) == float(n)
            assert coherence_r_ga(cfg, state_at(cfg, np.array([0, 1])))[0] == float(n)

    def test_exact_search_depletes_fully(self):
        cfg = GroverConfig(n=2, j=1)
        assert coherence_r_ga(cfg, state_at(cfg, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_independent_of_solution_placement(self):
        cfg_a, cfg_b = GroverConfig(n=5, j=2), GroverConfig(n=5, j=2, solutions=(7, 23))
        a = coherence_r_ga(cfg_a, state_at(cfg_a, 2))
        b = coherence_r_ga(cfg_b, state_at(cfg_b, 2))
        assert a == b

    def test_strictly_decreasing_over_run(self):
        for n in (11, 16, 20):
            for j in (1, 4, 10):
                cfg = GroverConfig(n=n, j=j)
                values = coherence_r_ga(cfg, state_at(cfg, np.arange(optimal_iterations(cfg) + 1)))
                assert np.all(np.diff(values) < 0.0)


class TestL1Dynamics:
    def test_initial_value(self):
        cfg = GroverConfig(n=6, j=1)
        assert coherence_l1_ga(cfg, state_at(cfg, 0)) == pytest.approx(63.0, rel=1e-12)

    def test_exact_search_depletes_fully(self):
        cfg = GroverConfig(n=2, j=1)
        assert coherence_l1_ga(cfg, state_at(cfg, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_generic_measure(self):
        cfg = GroverConfig(n=8, j=3)
        rho = DensityMatrix.from_pure(evolve(cfg, 2).amplitudes)
        assert coherence_l1_ga(cfg, state_at(cfg, 2)) == pytest.approx(coherence_l1(rho), abs=1e-10)

    def test_valid_at_optimum_past_right_angle(self):
        # at r_opt for n=3 the accumulated angle exceeds pi/2; the magnitude
        # form must still match the generic off-diagonal sum
        cfg = GroverConfig(n=3, j=1)
        r = optimal_iterations(cfg)
        rho = DensityMatrix.from_pure(evolve(cfg, r).amplitudes)
        generic = coherence_l1(rho)
        assert generic > 0
        assert coherence_l1_ga(cfg, state_at(cfg, r)) == pytest.approx(generic, abs=1e-10)


class TestAsymptotics:
    def test_zero_probability_limit(self):
        cfg = GroverConfig(n=11, j=1)
        c_r, c_l1 = coherence_asymptotics(cfg, 0.0)
        assert c_r == pytest.approx(11.0, abs=1e-12)
        assert c_l1 == pytest.approx(2048.0, abs=1e-12)

    def test_full_depletion_limit(self):
        cfg = GroverConfig(n=11, j=1)
        c_r, c_l1 = coherence_asymptotics(cfg, 1.0)
        assert c_r == pytest.approx(0.0, abs=1e-12)
        assert c_l1 == pytest.approx(0.0, abs=1e-12)

    def test_deviation_over_sweep(self):
        cfg = GroverConfig(n=11, j=1)
        s = state_at(cfg, np.arange(optimal_iterations(cfg) + 1))
        asym_r, asym_l1 = coherence_asymptotics(cfg, success_probability(cfg, s))
        dev_r = np.max(np.abs(coherence_r_ga(cfg, s) - asym_r))
        dev_l1 = np.max(np.abs(coherence_l1_ga(cfg, s) - asym_l1))
        # the linearization drops the binary-entropy term, so the absolute
        # shortfall is bounded by H(1/2) = 1 bit; against the full coherence
        # budget of log2(N) bits it stays below 10%
        assert dev_r <= 1.0 + 1e-9
        assert dev_r / cfg.n <= 0.1
        # the l1 asymptote is off by 1 at r=0 and O(sqrt(N)) mid-run
        assert dev_l1 / cfg.database_size <= 0.03

    def test_regime_warning(self):
        cfg = GroverConfig(n=4, j=8)
        assert not in_asymptotic_regime(cfg)
        with pytest.warns(AsymptoticRegimeWarning):
            coherence_asymptotics(cfg, 0.5)


class TestCostPerformance:
    def test_relative_entropy_value(self):
        assert cost_performance(GroverConfig(n=10, j=1)) == pytest.approx(0.1, abs=1e-15)

    def test_l1_value(self):
        assert cost_performance(GroverConfig(n=10, j=1), "l1") == pytest.approx(1 / 1024, abs=1e-18)

    def test_unknown_measure(self):
        with pytest.raises(ValueError):
            cost_performance(GroverConfig(n=10, j=1), "trace-norm")

    def test_half_database_warns(self):
        with pytest.warns(AsymptoticRegimeWarning):
            cost_performance(GroverConfig(n=4, j=8))

    @pytest.mark.parametrize("measure,rel_tol", [("relative-entropy", 0.02), ("l1", 0.02)])
    def test_regression_recovers_slope(self, measure, rel_tol):
        # least-squares slope of P against coherence over the sweep at N=1024
        cfg = GroverConfig(n=10, j=1)
        s = state_at(cfg, np.arange(optimal_iterations(cfg) + 1))
        p = success_probability(cfg, s)
        fn = coherence_r_ga if measure == "relative-entropy" else coherence_l1_ga
        c = fn(cfg, s)
        slope = np.polyfit(c, p, 1)[0]
        assert -slope == pytest.approx(cost_performance(cfg, measure), rel=rel_tol)


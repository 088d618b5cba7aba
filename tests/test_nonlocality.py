import math
from dataclasses import replace

import numpy as np
import pytest

from groverlab.bruteforce import MEASURES, evolve, evolve_series
from groverlab.errors import UnsupportedStructureError
from groverlab.grover import GroverConfig, optimal_iterations, reduced_density, state_at
from groverlab.linalg import DensityMatrix, pure_partial_trace
from groverlab.nonlocality import (
    CorrelationTensor,
    chsh_M,
    chsh_M_ga,
    correlation_matrix,
    correlation_tensor_3,
    svetlichny_max,
    svetlichny_max_ga,
)
from groverlab.optimizers import OptimizerConfig
from witnesses import maximally_mixed, svetlichny_expectation

SVET_MAX_GHZ = 4 * math.sqrt(2)


def ghz_density():
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1 / math.sqrt(2)
    return DensityMatrix.from_pure(v)


def bell_density():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    return DensityMatrix.from_pure(v)


class TestChsh:
    def test_uniform_two_qubit_product(self):
        plus = np.full(4, 0.5, dtype=complex)
        assert chsh_M(DensityMatrix.from_pure(plus)) == pytest.approx(1.0, abs=1e-10)
        cfg = GroverConfig(n=2, j=1)
        assert chsh_M_ga(cfg, state_at(cfg, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_bell_state_violates_maximally(self):
        assert chsh_M(bell_density()) == pytest.approx(2.0, abs=1e-10)

    def test_closed_form_matches_generic(self):
        for n in (3, 5, 8):
            cfg = GroverConfig(n=n, j=1)
            rs = np.arange(optimal_iterations(cfg) + 1)
            closed = chsh_M_ga(cfg, state_at(cfg, rs))
            for r in rs.tolist():
                rho2 = pure_partial_trace(evolve(cfg, r).amplitudes, (0, 1))
                assert closed[r] == pytest.approx(chsh_M(rho2), abs=1e-10)

    def test_large_database_asymptote(self):
        # closed-form sweep at n=24: M approaches 1 - 2 sin^2 cos^2 and
        # never signals a violation
        cfg = GroverConfig(n=24, j=1)
        s = state_at(cfg, np.arange(optimal_iterations(cfg) + 1))
        m = chsh_M_ga(cfg, s)
        asym = 1.0 - 2.0 * (s.a**2) * np.cos(s.alpha_r) ** 2
        assert np.max(np.abs(m - asym)) <= 1e-3
        assert np.max(m) <= 1.0 + 1e-9

    def test_multiple_solutions_unsupported(self):
        with pytest.raises(UnsupportedStructureError):
            cfg = GroverConfig(n=4, j=2)
            chsh_M_ga(cfg, state_at(cfg, 1))

    def test_correlation_matrix_entries(self):
        t = correlation_matrix(bell_density()).entries
        assert t[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert t[1, 1] == pytest.approx(-1.0, abs=1e-12)
        assert t[2, 2] == pytest.approx(1.0, abs=1e-12)


class TestCorrelationTensor:
    def test_ghz_pattern(self):
        t = correlation_tensor_3(ghz_density()).entries
        assert t[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        for idx in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            assert t[idx] == pytest.approx(-1.0, abs=1e-12)
        others = [
            abs(t[i, j, k])
            for i in range(3)
            for j in range(3)
            for k in range(3)
            if (i, j, k) not in [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
        ]
        assert max(others) < 1e-12

    def test_computational_basis_product(self):
        amp = np.zeros(8, dtype=complex)
        amp[0] = 1.0
        t = correlation_tensor_3(DensityMatrix.from_pure(amp)).entries
        assert t[2, 2, 2] == pytest.approx(1.0, abs=1e-12)
        nonzero = np.argwhere(np.abs(t) > 1e-12)
        assert [tuple(x) for x in nonzero] == [(2, 2, 2)]

    def test_large_database_sparsity(self):
        # at n=24 only the all-x and all-z entries survive; their limits are
        # cos^2(alpha_r) and sin^2(alpha_r) (verified against brute-force
        # partial traces at small n in test_matches_statevector)
        cfg = GroverConfig(n=24, j=1)
        r = optimal_iterations(cfg) // 2
        s = state_at(cfg, r)
        t = correlation_tensor_3(reduced_density(cfg, s, 3)).entries
        assert abs(t[0, 0, 0] - math.cos(s.alpha_r) ** 2) <= 1e-3
        assert abs(t[2, 2, 2] - s.a**2) <= 1e-3
        mask = np.ones((3, 3, 3), dtype=bool)
        mask[0, 0, 0] = mask[2, 2, 2] = False
        assert np.max(np.abs(t[mask])) <= 1e-3

    def test_matches_statevector(self):
        cfg = GroverConfig(n=6, j=1)
        for r in (0, 2, 4):
            from_struct = correlation_tensor_3(reduced_density(cfg, state_at(cfg, r), 3)).entries
            from_sv = correlation_tensor_3(
                pure_partial_trace(evolve(cfg, r).amplitudes, (0, 1, 2))
            ).entries
            assert np.max(np.abs(from_struct - from_sv)) < 1e-12

    def test_entry_bound_enforced(self):
        with pytest.raises(ValueError, match="above 1"):
            CorrelationTensor(order=2, entries=np.full((3, 3), 1.5))

    def test_dimension_guards(self):
        with pytest.raises(ValueError):
            correlation_tensor_3(maximally_mixed(4))
        with pytest.raises(ValueError):
            correlation_matrix(maximally_mixed(8))


class TestSvetlichny:
    def test_ghz_reaches_known_maximum(self):
        res = svetlichny_max(ghz_density(), OptimizerConfig(restarts=16, seed=0))
        assert res.value == pytest.approx(SVET_MAX_GHZ, abs=1e-9)
        assert res.value <= SVET_MAX_GHZ + 1e-6
        assert res.converged

    def test_product_state_within_classical_bound(self):
        amp = np.zeros(8, dtype=complex)
        amp[0] = 1.0
        res = svetlichny_max(DensityMatrix.from_pure(amp), OptimizerConfig(restarts=16, seed=0))
        assert res.value <= 4.0 + 1e-6

    def test_expectation_reproduces_optimizer_value(self):
        res = svetlichny_max(ghz_density(), OptimizerConfig(restarts=8, seed=3))
        tensor = correlation_tensor_3(ghz_density())
        assert svetlichny_expectation(tensor, res.settings) == pytest.approx(res.value, abs=1e-9)

    def test_monotone_in_restart_count(self):
        cfg = GroverConfig(n=11, j=1)
        tensor = correlation_tensor_3(reduced_density(cfg, state_at(cfg, 9), 3))
        values = [
            svetlichny_max(tensor, OptimizerConfig(restarts=k, seed=5)).value for k in (2, 6, 16)
        ]
        # each restart's path does not depend on the others, so the best
        # value over a longer prefix of restarts can only grow
        assert values[0] <= values[1] <= values[2]

    def test_search_states_show_no_genuine_nonlocality(self):
        cfg = GroverConfig(n=11, j=1)
        for r in (0, 9, 17, 26, 35):
            res = svetlichny_max_ga(cfg, r, OptimizerConfig(restarts=8, seed=0))
            assert res.value <= 4.0 + 1e-6

    def test_rows_are_bitwise_the_one_row_calls(self):
        cfg = GroverConfig(n=11, j=1)
        rs = np.arange(26)
        config = OptimizerConfig(restarts=16, seed=0)
        series = MEASURES["svet"].closed_form(cfg, state_at(cfg, rs), config)

        def bits(res):
            vecs = np.concatenate([getattr(res.settings, f) for f in ("a", "a_prime", "b", "b_prime", "c", "c_prime")])
            return res.value.hex(), [v.hex() for v in vecs.tolist()], res.optimizer_evals, res.converged

        assert list(map(bits, series)) == [bits(svetlichny_max_ga(cfg, r, config)) for r in rs.tolist()]

    def test_closed_form_reads_the_series_state(self):
        # an offset of a (as verify --inject-fault makes) must reach the column;
        # 1e-13 keeps the reduced states' trace within its tolerance
        cfg = GroverConfig(n=11, j=1)
        st = state_at(cfg, np.arange(1, 26, 5))
        config = OptimizerConfig(restarts=8, seed=0)
        values = MEASURES["svet"].series(cfg, st, config)
        shifted = MEASURES["svet"].series(cfg, replace(st, a=st.a + 1e-13), config)
        assert np.all(shifted != values)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("j", [2, 3])
    def test_multi_solution_search_states_show_no_genuine_nonlocality(self, n, j):
        # the closed form covers j = 1 only; for j > 1 the oracle searches
        # the three-qubit reduced state of every row
        cfg = GroverConfig(n=n, j=j)
        stack = evolve_series(cfg, optimal_iterations(cfg))
        results = MEASURES["svet"].oracle(stack, cfg, OptimizerConfig(restarts=16, seed=0))
        assert len(results) == stack.shape[0]
        for r, res in enumerate(results):
            assert res.value <= 4.0 + 1e-6, (r, res.value)

    def test_settings_are_unit_vectors(self):
        res = svetlichny_max(ghz_density(), OptimizerConfig(restarts=4, seed=1))
        s = res.settings
        for v in (s.a, s.a_prime, s.b, s.b_prime, s.c, s.c_prime):
            assert v.shape == (3,)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_restart_count_and_sweep_budget(self):
        tensor = correlation_tensor_3(ghz_density())
        res = svetlichny_max(tensor, OptimizerConfig(restarts=5, seed=2))
        assert res.restarts == 5
        assert 5 <= res.optimizer_evals <= 5 * OptimizerConfig().refine_maxiter
        # from a random start the first sweep moves some direction by far
        # more than the tolerance, so a one-sweep budget ends unconverged
        capped = svetlichny_max(tensor, OptimizerConfig(restarts=5, seed=2, refine_maxiter=1))
        assert not capped.converged
        assert capped.optimizer_evals == 5
        assert capped.value <= res.value

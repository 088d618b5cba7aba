import math
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverlab.bruteforce import MEASURES, evolve
from groverlab.discord import pairwise_discord_ga
from groverlab.errors import CapacityError, UnsupportedStructureError
from groverlab.gga import gga_iterate
from groverlab.grover import (
    GroverConfig,
    optimal_iteration_details,
    optimal_iterations,
    reduced_density,
    state_at,
    success_probability,
)
from groverlab.linalg import DensityMatrix, pure_partial_trace
from groverlab.nonlocality import svetlichny_max_ga
from groverlab.optimizers import OptimizerConfig
from witnesses import full_density, partial_trace


class TestConfig:
    def test_default_solutions(self):
        cfg = GroverConfig(n=4, j=3)
        assert tuple(cfg.solutions) == (0, 1, 2)
        assert cfg.database_size == 16

    def test_leading_block_is_one_form(self):
        # explicit leading indices give the default config, and a config
        # holds no tuple of j indices
        assert GroverConfig(n=4, j=3, solutions=(2, 0, 1)) == GroverConfig(n=4, j=3)
        assert GroverConfig(n=4, j=1, solutions=(0,)).solutions == range(1)
        tracemalloc.start()
        try:
            GroverConfig(n=40, j=1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_explicit_solutions_validated(self):
        assert GroverConfig(n=3, j=2, solutions=(5, 1)).solutions == (1, 5)
        with pytest.raises(ValueError):
            GroverConfig(n=3, j=2, solutions=(1, 1))
        with pytest.raises(ValueError):
            GroverConfig(n=3, j=1, solutions=(8,))

    @pytest.mark.parametrize("n,j", [(0, 1), (2, 0), (2, 4), (2, 5)])
    def test_bad_counts(self, n, j):
        with pytest.raises(ValueError):
            GroverConfig(n=n, j=j)


class TestStateAt:
    def test_uniform_start(self):
        st0 = state_at(GroverConfig(n=2, j=1), 0)
        assert st0.a == pytest.approx(0.5, abs=1e-12)
        assert st0.b == pytest.approx(0.5, abs=1e-12)

    def test_two_qubit_exact_hit(self):
        # brute-force oracle: 2-qubit search with one solution ends after one step
        dist = evolve(GroverConfig(n=2, j=1), 1)
        assert abs(dist.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)
        st1 = state_at(GroverConfig(n=2, j=1), 1)
        assert st1.a == pytest.approx(1.0, abs=1e-12)
        assert st1.b == pytest.approx(0.0, abs=1e-12)

    def test_three_qubit_two_steps(self):
        # statevector oracle frozen: P(2) = 121/128 at n=3, j=1
        st2 = state_at(GroverConfig(n=3, j=1), 2)
        assert st2.a**2 == pytest.approx(121 / 128, abs=1e-12)

    def test_negative_iteration(self):
        with pytest.raises(ValueError):
            state_at(GroverConfig(n=2, j=1), -1)
        with pytest.raises(ValueError):
            state_at(GroverConfig(n=2, j=1), np.array([0, 1, -1]))

    def test_series_matches_scalar_states(self):
        cfg = GroverConfig(n=9, j=3)
        rs = np.arange(optimal_iterations(cfg) + 1)
        series = state_at(cfg, rs)
        assert series.a.shape == series.b.shape == rs.shape
        for r in rs.tolist():
            scalar = state_at(cfg, r)
            assert series.alpha_r[r] == scalar.alpha_r
            assert (series.a[r], series.b[r]) == pytest.approx((scalar.a, scalar.b), rel=4e-16, abs=0)

    def test_rows_slice_every_field(self):
        # j and N - j are per-row fields, so a state can hold the rows of several series
        state = state_at(GroverConfig(n=9, j=3), np.arange(5))
        part = state.rows(np.array([4, 1]))
        for f in fields(state):
            assert np.array_equal(getattr(part, f.name), getattr(state, f.name)[[4, 1]]), f.name
        assert (part.j.tolist(), part.rest.tolist()) == ([3.0, 3.0], [509.0, 509.0])

    @given(st.integers(2, 24), st.integers(1, 10), st.integers(0, 60))
    @settings(max_examples=120)
    def test_normalization(self, n, j, r):
        if j >= (1 << n):
            return
        cfg = GroverConfig(n=n, j=j)
        s = state_at(cfg, r)
        assert s.a**2 + (cfg.database_size - j) * s.b**2 == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(2, 20), st.integers(1, 10))
    @settings(max_examples=60)
    def test_alpha_definition(self, n, j):
        if j >= (1 << n):
            return
        cfg = GroverConfig(n=n, j=j)
        N = cfg.database_size
        assert cfg.alpha == pytest.approx(2 * math.atan(math.sqrt(j / (N - j))), abs=1e-12)


class TestSuccessProbability:
    def test_initial_probability(self):
        cfg = GroverConfig(n=11, j=1)
        assert success_probability(cfg, state_at(cfg, 0)) == pytest.approx(1 / 2048, abs=1e-12)

    def test_exact_hit(self):
        cfg = GroverConfig(n=2, j=1)
        assert success_probability(cfg, state_at(cfg, 1)) == 1.0

    def test_against_statevector(self):
        # the full analytic-vs-oracle unitarity grid: n <= 10, j <= 4
        for n in range(2, 11):
            for j in range(1, 5):
                if j >= (1 << n):
                    continue
                cfg = GroverConfig(n=n, j=j)
                rs = np.arange(optimal_iterations(cfg) + 1)
                closed = success_probability(cfg, state_at(cfg, rs))
                dist = evolve(cfg, 0)
                for r in rs.tolist():
                    assert closed[r] == pytest.approx(dist.success_probability(), abs=1e-12)
                    dist = gga_iterate(dist, 1)

    def test_nondecreasing_up_to_optimum(self):
        for n, j in [(3, 1), (6, 2), (11, 1), (11, 10), (16, 5)]:
            cfg = GroverConfig(n=n, j=j)
            probs = success_probability(cfg, state_at(cfg, np.arange(optimal_iterations(cfg) + 1)))
            assert np.all(np.diff(probs) >= 0.0)


class TestOptimalIterations:
    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 2), (11, 35)])
    def test_known_values(self, n, expected):
        assert optimal_iterations(GroverConfig(n=n, j=1)) == expected

    @pytest.mark.parametrize("n", [2, 3, 7, 11])
    def test_oracle_scan_confirms(self, n):
        cfg = GroverConfig(n=n, j=1)
        r_opt = optimal_iterations(cfg)
        dist = evolve(cfg, 0)
        probs = []
        for _ in range(2 * r_opt + 2):
            probs.append(abs(dist.amplitudes[0]) ** 2)
            dist = gga_iterate(dist, 1)
        assert int(np.argmax(probs)) == r_opt

    def test_half_integer_tie_rounds_toward_zero(self):
        # j = N/2 makes (pi - alpha)/(2 alpha) = 1/2 exactly
        detail = optimal_iteration_details(GroverConfig(n=2, j=2))
        assert detail.exact == pytest.approx(0.5, abs=1e-15)
        assert detail.tie
        assert detail.r_opt == 0

    def test_exact_value_matches_formula(self):
        cfg = GroverConfig(n=9, j=3)
        detail = optimal_iteration_details(cfg)
        assert detail.exact == pytest.approx((math.pi - cfg.alpha) / (2 * cfg.alpha), abs=1e-12)


class TestFullDensity:
    def test_single_qubit_plus_state(self):
        cfg = GroverConfig(n=1, j=1)
        rho = full_density(cfg, state_at(cfg, 0))
        assert np.allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-12)

    def test_membership_block_pattern(self):
        cfg = GroverConfig(n=3, j=1)
        s = state_at(cfg, 1)
        m = full_density(cfg, s).matrix
        assert m[0, 0] == pytest.approx(s.a**2, abs=1e-12)
        assert np.allclose(m[0, 1:], s.a * s.b, atol=1e-12)
        assert np.allclose(m[1:, 1:], s.b**2, atol=1e-12)

    def test_matches_statevector_outer_product(self):
        cfg = GroverConfig(n=5, j=2)
        sv = evolve(cfg, 1)
        outer = np.outer(sv.amplitudes, sv.amplitudes.conj())
        assert np.max(np.abs(full_density(cfg, state_at(cfg, 1)).matrix - outer)) < 1e-12

    def test_arbitrary_solution_placement(self):
        cfg = GroverConfig(n=4, j=2, solutions=(3, 9))
        sv = evolve(cfg, 2)
        outer = np.outer(sv.amplitudes, sv.amplitudes.conj())
        assert np.max(np.abs(full_density(cfg, state_at(cfg, 2)).matrix - outer)) < 1e-12

    def test_capacity_guard(self):
        with pytest.raises(CapacityError, match="reduced_density"):
            cfg = GroverConfig(n=13, j=1)
            full_density(cfg, state_at(cfg, 0))


class TestReducedDensity:
    def test_initial_state_is_uniform(self):
        cfg = GroverConfig(n=6, j=1)
        for k in (1, 2, 3):
            m = reduced_density(cfg, state_at(cfg, 0), k).matrix
            assert np.allclose(m, 2.0**-k, atol=1e-12)

    def test_matches_partial_trace(self):
        cfg = GroverConfig(n=5, j=1)
        s = state_at(cfg, 1)
        rho = full_density(cfg, s)
        for k in range(1, 5):
            closed = reduced_density(cfg, s, k).matrix
            generic = partial_trace(rho, tuple(range(k))).matrix
            assert np.max(np.abs(closed - generic)) < 1e-12

    def test_permutation_symmetry(self):
        cfg = GroverConfig(n=6, j=1)
        s = state_at(cfg, 2)
        rho = full_density(cfg, s)
        closed = reduced_density(cfg, s, 2).matrix
        for keep in [(0, 1), (1, 4), (2, 5), (0, 5)]:
            assert np.max(np.abs(partial_trace(rho, keep).matrix - closed)) < 1e-12

    def test_single_qubit_layout(self):
        cfg = GroverConfig(n=5, j=1)
        s = state_at(cfg, 1)
        m = reduced_density(cfg, s, 1).matrix
        half = 2 ** (cfg.n - 1)
        assert m[0, 0] == pytest.approx(s.a**2 + (half - 1) * s.b**2, abs=1e-14)
        assert m[0, 1] == pytest.approx(s.a * s.b + (half - 1) * s.b**2, abs=1e-14)
        assert m[1, 1] == pytest.approx(half * s.b**2, abs=1e-14)

    def test_unsupported_structure(self):
        # j = 2^k with the leading solutions has the structured form; other solution sets do not
        for cfg in (GroverConfig(n=4, j=3), GroverConfig(n=4, solutions=(7,)), GroverConfig(4, 2, (3, 9))):
            with pytest.raises(UnsupportedStructureError, match="brute-force"):
                reduced_density(cfg, state_at(cfg, 1), 2)

    @pytest.mark.parametrize("n, j", [(3, 2), (5, 2), (5, 4), (6, 8)])
    def test_power_of_two_j_matches_partial_trace(self, n, j):
        # k kept qubits among the first n - log2 j, where the solutions agree
        cfg = GroverConfig(n=n, j=j)
        z = n - (j.bit_length() - 1)
        amps = evolve(cfg, 2).amplitudes
        for k in range(1, z + 1):
            closed = reduced_density(cfg, state_at(cfg, 2), k).matrix
            assert np.max(np.abs(closed - pure_partial_trace(amps, range(k)).matrix)) < 1e-12, k
        with pytest.raises(ValueError, match="kept-qubit"):
            reduced_density(cfg, state_at(cfg, 2), z + 1)

    @pytest.mark.parametrize("k", [0, 6, 9])
    def test_bad_k(self, k):
        cfg = GroverConfig(n=5, j=1)
        with pytest.raises(ValueError):
            reduced_density(cfg, state_at(cfg, 1), k)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_whole_register_is_the_full_density(self, n):
        cfg = GroverConfig(n=n, j=1)
        s = state_at(cfg, 1)
        assert np.array_equal(reduced_density(cfg, s, n).matrix, full_density(cfg, s).matrix)

    def test_works_beyond_statevector_capacity(self):
        cfg = GroverConfig(n=24, j=1)
        rho = reduced_density(cfg, state_at(cfg, 100), 2)
        assert rho.matrix.shape == (4, 4)


class TestTwoQubitOmegas:
    """The two-qubit reduced state: corner omega0, edge omega1 and bulk omega2 entries."""

    @staticmethod
    def omegas(cfg, r):
        m = reduced_density(cfg, state_at(cfg, r), 2).matrix
        return m, m[0, 0].real, m[0, 1].real, m[1, 1].real

    def test_initial_quarters(self):
        _, *omegas = self.omegas(GroverConfig(n=4, j=1), 0)
        assert omegas == pytest.approx([0.25, 0.25, 0.25], abs=1e-12)

    def test_matches_partial_trace_oracle(self):
        cfg = GroverConfig(n=4, j=1)
        sv = evolve(cfg, 1)
        rho = np.outer(sv.amplitudes, sv.amplitudes.conj())
        generic = partial_trace(DensityMatrix(rho), (0, 1)).matrix
        m, *_ = self.omegas(cfg, 1)
        assert np.max(np.abs(m - generic)) < 1e-12

    def test_omega_form_for_any_kept_pair(self):
        cfg = GroverConfig(n=5, j=1)
        m, *_ = self.omegas(cfg, 1)
        amps = evolve(cfg, 1).amplitudes
        for keep in [(0, 1), (1, 3), (2, 4)]:
            assert np.max(np.abs(pure_partial_trace(amps, keep).matrix - m)) < 1e-12

    def test_omega_gap_equals_ab_minus_b2_at_optimum(self):
        cfg = GroverConfig(n=11, j=1)
        r = optimal_iterations(cfg)
        m, _, omega1, omega2 = self.omegas(cfg, r)
        s = state_at(cfg, r)
        assert omega1 - omega2 == pytest.approx(s.a * s.b - s.b**2, abs=1e-14)
        generic = partial_trace(full_density(cfg, s), (0, 1)).matrix
        assert np.max(np.abs(m - generic)) < 1e-12

    def test_shape_error_below_two_qubits(self):
        cfg = GroverConfig(n=1, j=1)
        with pytest.raises(ValueError, match="kept-qubit"):
            reduced_density(cfg, state_at(cfg, 0), 2)

    @given(st.integers(2, 20), st.integers(0, 40))
    @settings(max_examples=60)
    def test_trace_invariant(self, n, r):
        _, omega0, _, omega2 = self.omegas(GroverConfig(n=n, j=1), r)
        assert omega0 + 3 * omega2 == pytest.approx(1.0, abs=1e-12)


class TestEndpointCoupling:
    def test_probability_max_aligns_with_coherence_min(self):
        from groverlab.coherence import coherence_r_ga

        for n, j in [(5, 1), (8, 2), (11, 1)]:
            cfg = GroverConfig(n=n, j=j)
            r_opt = optimal_iterations(cfg)
            s = state_at(cfg, np.arange(r_opt + 1))
            p = success_probability(cfg, s)
            c = coherence_r_ga(cfg, s)
            assert int(np.argmax(p)) == r_opt
            assert int(np.argmin(c)) == r_opt


COARSE = OptimizerConfig(theta_grid=4, phi_grid=4, restarts=2)


def _series_form(key):
    return lambda cfg: MEASURES[key].closed_form(cfg, state_at(cfg, np.arange(2)), COARSE)


# each j = 1 closed form with the fewest qubits it covers, and whether it covers every j = 2^k
J1_FORMS = [
    pytest.param(_series_form(k), m.min_qubits, m.power_of_two_j, id=k) for k, m in MEASURES.items() if not m.any_j
] + [
    pytest.param(lambda cfg: pairwise_discord_ga(cfg, 0, COARSE), 2, True, id="pairwise_discord_ga"),
    pytest.param(lambda cfg: svetlichny_max_ga(cfg, 0, COARSE), 3, False, id="svetlichny_max_ga"),
]


@pytest.mark.parametrize("form, min_qubits, power_of_two_j", J1_FORMS)
def test_j1_closed_forms_refuse_smaller_registers_and_other_j(form, min_qubits, power_of_two_j):
    # a register below the form's size has no value: one qubit has no pair for d2
    for n in range(1, min_qubits):
        with pytest.raises(ValueError, match=rf"n >= {min_qubits}|k <= {n}") as info:
            form(GroverConfig(n=n))
        assert type(info.value) is ValueError, n
    if not power_of_two_j:
        with pytest.raises(UnsupportedStructureError, match="requires j=1"):
            form(GroverConfig(n=4, j=2))
        return
    # j = 2^k: the form needs min_qubits of the n - k qubits where the two terms of the state differ
    form(GroverConfig(n=min_qubits + 1, j=2))
    with pytest.raises(ValueError, match=rf"n >= {min_qubits + 1}|k <= {min_qubits - 1}") as info:
        form(GroverConfig(n=min_qubits, j=2))
    assert type(info.value) is ValueError
    with pytest.raises(UnsupportedStructureError, match=r"requires j = 2\^k"):
        form(GroverConfig(n=4, j=3))

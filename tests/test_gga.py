import json
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverlab import gga as gga_module
from groverlab import report as report_module
from groverlab.bruteforce import evolve_series
from groverlab.errors import AmplitudeFileError, InvalidStateError, UnsupportedStructureError
from groverlab.gga import (
    AmplitudeDistribution,
    PhiFamily,
    distribution_from_json,
    gga_closed_form,
    gga_iterate,
    gga_optimal_time,
    gga_pmax,
    gga_walk,
    phi_family_delta_coherence,
    phi_family_optimal_time,
)
from groverlab.grover import GroverConfig, optimal_iteration_details
from groverlab.linalg import DensityMatrix
from groverlab.report import RunConfig, init_file_sweep, phi_sweep, write
from witnesses import (
    bits,
    closed_form_averages,
    coherence_relative_entropy,
    gga_success_probability_at,
    phi_family_distribution,
    phi_family_states,
    scalar_scan,
)


def random_real_distribution(seed, n=None, j=None):
    rng = np.random.default_rng(seed)
    n = n if n is not None else int(rng.integers(3, 11))
    N = 1 << n
    j = j if j is not None else int(rng.integers(1, min(N // 2, 8)))
    v = rng.normal(size=N)
    v /= np.linalg.norm(v)
    return AmplitudeDistribution(v, tuple(range(j)))


class TestIterate:
    def test_uniform_two_qubit_single_step(self):
        dist = gga_iterate(AmplitudeDistribution.uniform(2, (0,)), 1)
        assert dist.solution_amplitudes[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(dist.other_amplitudes, 0.0, atol=1e-12)

    def test_zero_steps_is_identity(self):
        d0 = random_real_distribution(0)
        d1 = gga_iterate(d0, 0)
        assert np.array_equal(d0.solution_amplitudes, d1.solution_amplitudes)
        assert np.array_equal(d0.other_amplitudes, d1.other_amplitudes)

    def test_negative_steps(self):
        with pytest.raises(ValueError):
            gga_iterate(AmplitudeDistribution.uniform(2, (0,)), -1)

    def test_equal_non_solutions_keep_zero_deviation(self):
        amp = 1 / math.sqrt(8)
        tail = np.full(6, amp) * math.sqrt((1 - 4 * amp**2) / (6 * amp**2))
        d = AmplitudeDistribution(np.concatenate([[2 * amp, 0.0], tail]), (0, 1))
        for r in range(1, 8):
            out = gga_iterate(d, r)
            dev = out.other_amplitudes - out.lbar
            assert np.max(np.abs(dev)) < 1e-12

    def test_matches_statevector_engine(self, fraction_grover):
        # the one Grover step against the exact rational iteration, at
        # solutions that are not the leading indices
        solutions = (5, 17, 40)
        dist = AmplitudeDistribution.uniform(6, solutions)
        for r in range(1, 8):
            dist = gga_iterate(dist, 1)
            exact = np.array([float(x) for x in fraction_grover(6, solutions, r)]) / 8
            assert dist.r == r
            assert np.max(np.abs(dist.amplitudes - exact)) < 1e-12

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_walk_yields_each_iterate(self, kind):
        d0 = random_real_distribution(3, n=6, j=3)
        if kind == "complex":
            amps = d0.amplitudes * np.exp(1j * np.linspace(0.0, 3.0, d0.size))
            d0 = AmplitudeDistribution(amps, d0.solutions)
        # each yield is read before the next step: the walk steps one array in place
        walk = [bits(amps.view(float)) for amps in gga_walk(d0, 9)]
        assert len(walk) == 10
        for r, amps in enumerate(walk):
            want = gga_iterate(d0, r)
            assert want.r == r
            assert amps == bits(want.amplitudes.view(float))

    def test_listed_walk_is_the_last_vector(self):
        # the aliasing a caller must copy around: every yield is the one array
        d0 = random_real_distribution(4, n=5, j=2)
        walk = list(gga_walk(d0, 3))
        assert all(amps is walk[-1] for amps in walk)
        assert bits(walk[0].view(float)) == bits(gga_iterate(d0, 3).amplitudes.view(float))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_evolve_series_is_the_stacked_iterates(self, n):
        # evolve_series copies each yield of the walk into its stack; so does a copied complex walk
        for j in (1, 2, 3):
            cfg = GroverConfig(n=n, j=j)
            r_max = optimal_iteration_details(cfg).r_opt + 2
            d0 = AmplitudeDistribution.uniform(n, cfg.solutions)
            want = np.stack([gga_iterate(d0, r).amplitudes for r in range(r_max + 1)])
            assert bits(evolve_series(cfg, r_max).view(float)) == bits(want.view(float))
        d0 = seeded_start(n, n, 3, "complex")
        want = np.stack([gga_iterate(d0, r).amplitudes for r in range(20)])
        assert bits(np.stack([amps.copy() for amps in gga_walk(d0, 19)]).view(float)) == bits(want.view(float))

    @given(st.integers(0, 500))
    @settings(max_examples=40)
    def test_norm_preserved(self, seed):
        d0 = random_real_distribution(seed)
        dr = gga_iterate(d0, 13)
        total = np.sum(np.abs(dr.amplitudes) ** 2)
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 500), st.integers(0, 40))
    @settings(max_examples=60)
    def test_deviation_structure(self, seed, r):
        # k deviations frozen, l deviations alternate in sign
        d0 = random_real_distribution(seed)
        dr = gga_iterate(d0, r)
        k_dev0 = d0.solution_amplitudes - d0.kbar
        k_devr = dr.solution_amplitudes - dr.kbar
        assert np.max(np.abs(k_devr - k_dev0)) < 1e-10
        l_dev0 = d0.other_amplitudes - d0.lbar
        l_devr = dr.other_amplitudes - dr.lbar
        assert np.max(np.abs(l_devr - (-1.0) ** r * l_dev0)) < 1e-10


class TestClosedForm:
    @pytest.mark.parametrize("n,j", [(4, 1), (10, 1), (10, 3)])
    def test_uniform_start_reduces_to_standard_angles(self, n, j):
        cfg = GroverConfig(n=n, j=j)
        cf = gga_closed_form(AmplitudeDistribution.uniform(n, range(j)))
        assert cf.beta == pytest.approx(cfg.alpha / 2, abs=1e-12)
        assert cf.omega == pytest.approx(cfg.alpha, abs=1e-12)

    def test_phi_family_angles(self):
        fam = PhiFamily.from_phi0(1024, 1 / math.sqrt(1024))
        cf = gga_closed_form(phi_family_distribution(fam))
        assert math.tan(cf.beta) == pytest.approx(math.sqrt(2 / 1022), abs=1e-12)
        assert math.cos(cf.omega) == pytest.approx(1 - 4 / 1024, abs=1e-12)

    def test_half_database_solutions(self):
        cf = gga_closed_form(AmplitudeDistribution.uniform(3, range(4)))
        assert cf.omega == pytest.approx(math.pi / 2, abs=1e-12)

    def test_degenerate_phase_flag(self):
        # lbar = 0: beta keeps the sign of kbar, so the closed form's averages are the iteration's
        for d, beta in [
            (AmplitudeDistribution(np.eye(8)[0], (0, 1)), math.pi / 2),
            (AmplitudeDistribution(np.array([-1.0, 0.0, 0.0, 0.0]), (0,)), -math.pi / 2),
        ]:
            cf = gga_closed_form(d)
            assert cf.degenerate_phase
            assert cf.beta == beta
            assert gga_optimal_time(d).time == 0.0
            for r in range(1, 6):
                dr = gga_iterate(d, r)
                assert closed_form_averages(cf, d.j, d.size, r) == pytest.approx((dr.kbar.real, dr.lbar.real), abs=1e-12)

    def test_complex_input_rejected(self):
        d = AmplitudeDistribution(np.array([1j, 1, 0, 0]) / math.sqrt(2), (0,))
        with pytest.raises(UnsupportedStructureError, match="real"):
            gga_closed_form(d)

    @given(st.integers(0, 500), st.integers(0, 30))
    @settings(max_examples=60)
    def test_averages_match_iteration(self, seed, r):
        d0 = random_real_distribution(seed)
        cf = gga_closed_form(d0)
        kbar, lbar = closed_form_averages(cf, d0.j, d0.size, r)
        dr = gga_iterate(d0, r)
        assert dr.kbar.real == pytest.approx(kbar, abs=1e-10)
        assert dr.lbar.real == pytest.approx(lbar, abs=1e-10)


class TestPmaxAndOptimalTime:
    def test_uniform_non_solutions_reach_one(self):
        assert gga_pmax(AmplitudeDistribution.uniform(5, (0, 1))) == pytest.approx(1.0, abs=1e-12)

    def test_concentrated_start(self):
        d = AmplitudeDistribution(np.concatenate([[0.6, 0.8], np.zeros(14)]), (0, 1))
        assert gga_pmax(d) == pytest.approx(1.0, abs=1e-12)
        t = gga_optimal_time(d)
        assert t.degenerate_phase

    def test_perturbed_uniform_matches_continuous_peak(self):
        N, j = 64, 1
        eps = 0.3
        l = np.full(N - j, 1.0)
        l[0] += eps
        l[1] -= eps
        v = np.concatenate([[1.0], l])
        v /= np.linalg.norm(v)
        d = AmplitudeDistribution(v, (0,))
        t = gga_optimal_time(d)
        peak = gga_success_probability_at(d, t.time)
        assert peak == pytest.approx(gga_pmax(d), abs=1e-9)
        # fine continuous scan cannot beat the closed-form peak
        ts = np.linspace(0, 2 * t.time + 1, 4001)
        scan = max(gga_success_probability_at(d, x) for x in ts)
        assert scan <= gga_pmax(d) + 1e-9

    def test_integer_iterations_bounded_by_pmax(self):
        for seed in range(8):
            d0 = random_real_distribution(seed)
            t = gga_optimal_time(d0)
            horizon = max(2, int(2 * t.time) + 2)
            probs = [gga_iterate(d0, r).success_probability() for r in range(horizon)]
            assert max(probs) <= gga_pmax(d0) + 1e-9

    def test_phi_family_time_value(self):
        fam = PhiFamily.from_phi0(1024, 1 / math.sqrt(1024))
        t = gga_optimal_time(phi_family_distribution(fam))
        cf = gga_closed_form(phi_family_distribution(fam))
        assert t.time == pytest.approx((math.pi / 2 - cf.beta) / cf.omega, abs=1e-12)
        assert t.time == pytest.approx(17.2657, abs=1e-3)
        assert t.method == "closed-form"
        # scanning the iterated probabilities peaks at round(t)
        probs = [gga_iterate(phi_family_distribution(fam), r).success_probability() for r in range(30)]
        assert int(np.argmax(probs)) == round(t.time)

    def test_uniform_start_matches_standard_prerounding_optimum(self):
        # the negated start is the same state: both averages negative, and the same first peak
        for n, j, sign in [(4, 1, 1.0), (10, 1, 1.0), (8, 3, 1.0), (4, 1, -1.0)]:
            cfg = GroverConfig(n=n, j=j)
            uniform = AmplitudeDistribution.uniform(n, range(j))
            t = gga_optimal_time(replace(uniform, amplitudes=sign * uniform.amplitudes))
            assert t.time == pytest.approx(optimal_iteration_details(cfg).exact, abs=1e-12)

    def test_complex_amplitudes_use_scan(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        v /= np.linalg.norm(v)
        d = AmplitudeDistribution(v, (0, 1))
        t = gga_optimal_time(d)
        assert t.method == "scan"
        peak = gga_success_probability_at(d, t.time)
        # misaligned re/im phases make the variance formula an upper bound only
        assert peak <= gga_pmax(d) + 1e-9
        ts = np.linspace(0.0, 3 * t.time + 1, 6001)
        assert peak >= max(gga_success_probability_at(d, x) for x in ts) - 1e-9
        # the envelope reproduces actual integer-step probabilities
        for r in (0, 1, 2, 5, 9):
            assert gga_success_probability_at(d, r) == pytest.approx(
                gga_iterate(d, r).success_probability(), abs=1e-10
            )

    def test_complex_scan_reads_the_start_once(self, monkeypatch):
        # the scan evaluates p(t) about 4,500 times; its constants come from
        # one read of the non-solution amplitudes, not one per evaluation
        rng = np.random.default_rng(9)
        v = rng.normal(size=64) + 1j * rng.normal(size=64)
        d = AmplitudeDistribution(v / np.linalg.norm(v), (3, 40))
        reads = []
        prop = AmplitudeDistribution.other_amplitudes
        monkeypatch.setattr(
            AmplitudeDistribution,
            "other_amplitudes",
            property(lambda self: reads.append(1) or prop.fget(self)),
        )
        assert gga_optimal_time(d).method == "scan"
        assert 1 <= len(reads) <= 2

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_complex_scan_stops_at_its_fixed_point(self, seed, monkeypatch):
        # the ternary search ends once a round leaves its bracket where it was,
        # at the time that all 200 rounds reach
        rng = np.random.default_rng(seed)
        v = rng.normal(size=1024) + 1j * rng.normal(size=1024)
        d = AmplitudeDistribution(v / np.linalg.norm(v), (0, 1))
        envelope = gga_module._success_envelope
        calls = []

        def counting(dist):
            p_at = envelope(dist)
            return lambda t, *sin: calls.append(t) or p_at(t, *sin)

        monkeypatch.setattr(gga_module, "_success_envelope", counting)
        t = gga_optimal_time(d)
        grid_points = 4097
        assert len(calls) < grid_points + 2 * 100
        # the grid is one vector call; the rest are scalar calls on the candidates and the bracket
        assert [np.shape(x) for x in calls].count((grid_points,)) == 1
        assert len(calls) < 1 + 10 + 2 * 200
        p_at = envelope(d)
        grid = np.linspace(0.0, math.pi / d.omega, grid_points)
        assert [p_at(x) for x in grid.tolist()] == [p_at(x) for x in grid]  # floats and numpy scalars alike
        best = int(np.argmax([p_at(x) for x in grid]))
        lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
        for _ in range(200):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if p_at(m1) < p_at(m2):
                lo = m1
            else:
                hi = m2
        assert t.time == 0.5 * (lo + hi)

    @pytest.mark.parametrize("seed", range(20))
    def test_complex_scan_finds_the_closed_form_peak(self, seed):
        # the two quadratures evolve independently, so p(t) = spread +
        # sum_k C_k^2 sin^2(omega t + beta_k) peaks at
        # t* = (pi - arg sum_k C_k^2 e^(2 i beta_k)) / (2 omega) mod pi/omega
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        j = int(rng.integers(1, 4))
        d = AmplitudeDistribution(v / np.linalg.norm(v), tuple(range(j)))
        N, k, l = d.size, d.solution_amplitudes.mean(), d.other_amplitudes.mean()
        z = sum(
            (j * kp**2 + (N - j) * lp**2) * np.exp(2j * math.atan2(math.sqrt(j) * kp, math.sqrt(N - j) * lp))
            for kp, lp in ((k.real, l.real), (k.imag, l.imag))
        )
        period = math.pi / d.omega
        t_star = (math.pi - np.angle(z)) / (2.0 * d.omega) % period
        scan = gga_optimal_time(d)
        assert scan.method == "scan"
        offset = (scan.time - t_star) % period
        assert min(offset, period - offset) <= 1e-7 * period
        # at the flat peak the two may differ only by rounding
        eps = np.finfo(float).eps
        assert gga_success_probability_at(d, t_star) >= gga_success_probability_at(d, scan.time) - eps

    def test_global_phase_leaves_pmax_invariant(self):
        d0 = random_real_distribution(11)
        rotated = AmplitudeDistribution(d0.amplitudes * np.exp(0.7j), d0.solutions)
        assert gga_pmax(rotated) == pytest.approx(gga_pmax(d0), abs=1e-12)


def scan_start(seed) -> AmplitudeDistribution:
    """A seeded complex start, n = 2..10 and j = 1..4 (below N) by seed: Gaussian amplitudes for an
    even seed, the benchmark's near-uniform amplitudes with phases of spread 0.5 rad for an odd one."""
    n = 2 + seed % 9
    j = min(1 + (seed // 9) % 4, (1 << n) - 1)
    rng = np.random.default_rng([seed, 37])
    if seed % 2:
        v = (1.0 + 0.3 * rng.standard_normal(1 << n)) * np.exp(0.5j * rng.standard_normal(1 << n))
    else:
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return AmplitudeDistribution(v / np.linalg.norm(v), tuple(rng.choice(1 << n, size=j, replace=False).tolist()))


def midpoint_start(i: int, n=6, j=2, phase=0.7) -> AmplitudeDistribution:
    """A complex start whose p(t) peaks halfway between scan grid points i and i + 1: a real start with
    beta = pi/2 - omega t*, t* = (i + 1/2) pi / (4096 omega), times one global phase, which leaves p(t)
    and t* as they are and gives the real and imaginary parts that one beta."""
    N = 1 << n
    omega = math.acos(1.0 - 2.0 * j / N)
    beta = math.pi / 2.0 - omega * (i + 0.5) * (math.pi / omega) / 4096
    dev = np.random.default_rng(i).normal(scale=0.3 / math.sqrt(N), size=N - j)
    dev -= dev.mean()
    C = math.sqrt(1.0 - float(np.sum(dev**2)))
    amps = np.concatenate([np.full(j, C * math.sin(beta) / math.sqrt(j)), C * math.cos(beta) / math.sqrt(N - j) + dev])
    return AmplitudeDistribution(amps / np.linalg.norm(amps) * np.exp(1j * phase), tuple(range(j)))


# a normalized complex start whose solution and non-solution averages are 0 in both parts
ZERO_AVERAGE_START = {"n": 2, "solutions": [0, 1], "amplitudes": [[0.5, 0], [-0.5, 0], [0, 0.5], [0, -0.5]]}


class TestVectorScan:
    """The complex-start scan takes its grid in one numpy pass and picks among the points near the
    vector maximum by scalar p(t): the index and the time are those of one scalar call per point."""

    def check(self, d):
        assert not d.is_real
        p_at = gga_module._success_envelope(d)
        grid = np.linspace(0.0, math.pi / d.omega, 4097)
        vector = p_at(grid, np.sin)
        best, time, scalar = scalar_scan(d)
        assert gga_module._grid_argmax(p_at, grid) == best
        opt = gga_optimal_time(d)
        assert (opt.method, opt.time) == ("scan", time)
        return best, scalar, float(np.max(np.abs(vector - scalar)) / np.max(np.abs(vector)))

    def test_seeded_starts(self):
        gaps = [self.check(scan_start(seed))[2] for seed in range(1000)]
        # the window holds the scalar argmax whenever the kernels differ by less than half of it
        assert max(gaps) < 0.5 * gga_module.SCAN_WINDOW

    @pytest.mark.parametrize("i", [0, 1000, 2047, 4095])
    def test_peak_halfway_between_grid_points(self, i):
        best, scalar, gap = self.check(midpoint_start(i))
        assert best % 4096 in (i, (i + 1) % 4096)  # p has period pi/omega: the last grid point is the first
        assert abs(scalar[i] - scalar[i + 1]) <= 1e-14 * scalar[best]  # a tie up to rounding
        assert gap < 0.5 * gga_module.SCAN_WINDOW

    def test_start_with_zero_averages(self):
        # every average component is 0: p is the constant spread, and the first grid point is taken
        d = distribution_from_json(json.dumps(ZERO_AVERAGE_START))
        best, scalar, gap = self.check(d)
        assert best == 0 and np.all(scalar == 0.5) and gap == 0.0

    def test_candidates_are_taken_by_scalar_p(self, monkeypatch):
        # a vector pass that puts its maximum at the wrong one of two near-equal points changes nothing
        d = midpoint_start(1000)
        p_at = gga_module._success_envelope(d)
        grid = np.linspace(0.0, math.pi / d.omega, 4097)
        best = scalar_scan(d)[0]
        other = 2 * 1000 + 1 - best
        lift = lambda t, sin=math.sin: p_at(t, sin) + (np.arange(t.size) == other) * 1e-15 if sin is np.sin else p_at(t)
        assert int(np.argmax(lift(grid, np.sin))) == other
        assert gga_module._grid_argmax(lift, grid) == best


class TestPhiFamily:
    def test_symmetric_point(self):
        fam = PhiFamily.from_phi0(1024, 1 / math.sqrt(1024))
        assert fam.k1 == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert fam.k2 == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_phi0_zero_amplitude(self):
        fam = PhiFamily.from_phi0(1024, 0.0)
        expected = math.sqrt(1023 / 2048) - 1 / math.sqrt(2048)
        assert fam.k1 == pytest.approx(expected, abs=1e-12)
        assert fam.k1 == pytest.approx(0.68467, abs=1e-5)

    def test_optimal_state_from_evolution(self):
        # evolve |phi_0> to the continuous optimum: solution amplitudes are
        # kbar(t_opt) plus the frozen deviations
        fam = PhiFamily.from_phi0(1024, 0.0)
        dist = phi_family_distribution(fam)
        cf = gga_closed_form(dist)
        t = gga_optimal_time(dist).time
        kbar_t, _ = closed_form_averages(cf, 2, 1024, t)
        dev = dist.solution_amplitudes.real - dist.kbar.real
        assert kbar_t + dev[0] == pytest.approx(fam.k1, abs=1e-10)
        assert kbar_t + dev[1] == pytest.approx(fam.k2, abs=1e-10)

    def test_states_normalized(self):
        fam = PhiFamily.from_phi0(256, 0.01)
        initial, optimal = phi_family_states(fam)
        assert initial.dim == 256
        assert optimal.dim == 2

    def test_delta_coherence_against_generic_measure(self):
        for N, expected in [(1024, 9.0), (4, 1.0)]:
            fam = PhiFamily.from_phi0(N, 1 / math.sqrt(N))
            initial, optimal = phi_family_states(fam)
            generic = coherence_relative_entropy(
                DensityMatrix.from_pure(initial)
            ) - coherence_relative_entropy(DensityMatrix.from_pure(optimal))
            assert phi_family_delta_coherence(fam) == pytest.approx(generic, abs=1e-9)
            assert phi_family_delta_coherence(fam) == pytest.approx(expected, abs=1e-9)

    def test_formula_matches_generic_across_family(self):
        N = 1024
        for phi0 in np.linspace(0, 1 / math.sqrt(N), 11):
            fam = PhiFamily.from_phi0(N, float(phi0))
            initial, optimal = phi_family_states(fam)
            generic = coherence_relative_entropy(
                DensityMatrix.from_pure(initial)
            ) - coherence_relative_entropy(DensityMatrix.from_pure(optimal))
            assert phi_family_delta_coherence(fam) == pytest.approx(generic, abs=1e-9)

    def test_monotone_in_phi0(self):
        N = 1024
        grid = np.linspace(0, 1 / math.sqrt(N), 50)
        depletion = []
        times = []
        for phi0 in grid:
            fam = PhiFamily.from_phi0(N, float(phi0))
            depletion.append(phi_family_delta_coherence(fam))
            times.append(gga_optimal_time(phi_family_distribution(fam)).time)
        assert all(a >= b - 1e-12 for a, b in zip(depletion, depletion[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(times, times[1:]))

    def test_invalid_phi0(self):
        with pytest.raises(ValueError):
            PhiFamily.from_phi0(1024, 0.9)
        with pytest.raises(ValueError):
            PhiFamily.from_phi0(1024, 0.05)  # phi0 > phi1
        with pytest.raises(ValueError, match="power of two"):
            PhiFamily.from_phi0(1000, 0.0)

    @pytest.mark.parametrize("N", [0, -4, 2, 3])
    def test_size_is_checked_before_arithmetic(self, N):
        # N = 0 used to divide by zero and N = -4 to blame phi0
        with pytest.raises(ValueError, match=f"database size must be a power of two >= 4, got {N}$"):
            PhiFamily.from_phi0(N, 0.0)

    def test_nan_is_rejected(self):
        half = 1 / math.sqrt(2)
        with pytest.raises(ValueError, match="phi0=nan"):
            PhiFamily.from_phi0(1024, float("nan"))
        with pytest.raises(ValueError, match="phi0=nan"):
            PhiFamily.from_phi0(1024, np.array([0.0, float("nan"), 0.01]))
        for fields in (
            dict(phi0=float("nan"), phi1=math.sqrt(2 / 1024), k1=half, k2=half),
            dict(phi0=0.0, phi1=math.sqrt(2 / 1024), k1=float("nan"), k2=half),
        ):
            with pytest.raises(InvalidStateError):
                PhiFamily(N=1024, **fields)

    def test_fields_of_two_shapes_are_rejected(self):
        fam = PhiFamily.from_phi0(64, np.linspace(0.0, 0.125, 3))
        with pytest.raises(ValueError, match="one shape"):
            PhiFamily(N=64, phi0=fam.phi0, phi1=fam.phi1, k1=fam.k1[0], k2=fam.k2)

    @pytest.mark.parametrize("n", [*range(2, 17), 64, 300, 1022])
    def test_each_row_is_its_0d_family(self, n):
        # a 0-d ufunc call and a 1-d one may run different SIMD loops
        N = 1 << n
        points = np.linspace(0.0, 1.0 / math.sqrt(N), 50)
        fam = PhiFamily.from_phi0(N, points)
        rows = [PhiFamily.from_phi0(N, phi0) for phi0 in points.tolist()]
        for field in ("phi0", "phi1", "k1", "k2"):
            assert bits(getattr(fam, field)) == bits([getattr(row, field) for row in rows]), field
        assert bits(phi_family_optimal_time(fam)) == bits([phi_family_optimal_time(row) for row in rows])
        assert bits(phi_family_delta_coherence(fam)) == bits([phi_family_delta_coherence(row) for row in rows])

    def test_sweep_holds_one_block_of_the_family(self):
        # one block of the family at a time beside the 1.6 MB phi0 column;
        # a family object per point and whole columns peaked at 12.8 MB
        run = RunConfig(command="gga", n=20, phi_points=200_000)
        tracemalloc.start()
        try:
            rows = sum(block["r_opt"].size for block in phi_sweep(run).blocks())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == 200_000
        assert peak < 4_000_000, f"{peak:,} B"

    @pytest.mark.parametrize("n", range(2, 17))
    def test_closed_form_matches_general_path(self, n):
        # the general path reads omega, beta and p_max off all N amplitudes;
        # the closed form takes omega as 2 atan sqrt(2/(N-2)) rather than
        # acos(1 - 4/N). Off the golden sizes the two may round up to 3 ulps
        # apart: 4.3e-16 at n = 13, where the closed form is 3.8e-16 and the
        # general path 1.3e-16 from a 60-digit reference
        N = 1 << n
        closed, general = [], []
        for phi0 in np.linspace(0.0, 1.0 / math.sqrt(N), 50).tolist():
            fam = PhiFamily.from_phi0(N, phi0)
            dist = phi_family_distribution(fam)
            closed.append(phi_family_optimal_time(fam))
            general.append(gga_optimal_time(dist).time)
            assert gga_pmax(dist) == pytest.approx(1.0, rel=0.0, abs=1e-12)
        if n in (6, 10, 16):  # the golden and benchmark sizes
            assert bits(closed) == bits(general)
        else:
            assert np.max(np.abs(np.subtract(closed, general)) / general) <= 5e-16


class TestJsonInterface:
    def make_doc(self, n=2, solutions=(0,), amps=None):
        N = 1 << n
        if amps is None:
            amps = [[1 / math.sqrt(N), 0.0] for _ in range(N)]
        return {"n": n, "solutions": list(solutions), "amplitudes": amps}

    def test_round_trip(self):
        doc = self.make_doc(n=3, solutions=(1, 5))
        dist = distribution_from_json(json.dumps(doc))
        assert dist.n == 3
        assert dist.solutions == (1, 5)
        assert dist.j == 2
        assert dist.size == 8
        assert np.array_equal(dist.amplitudes, np.full(8, 1 / math.sqrt(8)))

    def test_malformed_json_reports_position(self):
        with pytest.raises(AmplitudeFileError, match=r"line \d+, column \d+"):
            distribution_from_json('{"n": 2,\n "solutions": [0,]}')

    def test_missing_field(self):
        with pytest.raises(AmplitudeFileError, match="solutions"):
            distribution_from_json(json.dumps({"n": 2, "amplitudes": []}))

    def test_wrong_amplitude_count(self):
        doc = self.make_doc()
        doc["amplitudes"] = doc["amplitudes"][:-1]
        with pytest.raises(AmplitudeFileError, match="expected 4 entries"):
            distribution_from_json(json.dumps(doc))

    def test_bad_amplitude_entry(self):
        doc = self.make_doc()
        doc["amplitudes"][2] = [0.5]
        with pytest.raises(AmplitudeFileError, match=r"amplitudes\[2\]"):
            distribution_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "entry",
        [
            "[0.5, true]", '[0.5, "0.5"]', "[0.5, null]", "[0.5, NaN]", "[0.5, -Infinity]", "[0.5, 1e400]",
            f"[0.5, {10**400}]", f"[0.5, {int(sys.float_info.max) + 1}]", "[0.5, [0]]",
            "[0.5]", "[0.5, 0, 0]", '{"re": 0.5}', "0.5",
        ],
    )
    def test_bad_entry_is_named(self, entry):
        # np.array(dtype=float) would read true and "0.5" as numbers and round
        # an int just past the float range down to the largest float
        text = f'{{"n": 2, "solutions": [0], "amplitudes": [[0.5, 0], {entry}, [0.5, 0], [0.5, 0]]}}'
        with pytest.raises(AmplitudeFileError) as info:
            distribution_from_json(text)
        got = json.loads(text)["amplitudes"][1]
        assert str(info.value) == f"amplitudes[1]: expected a [re, im] pair of finite numbers, got {got!r}"

    def test_largest_float_is_a_number(self):
        # it passes the per-pair check and fails as a norm (whose square overflows, without a warning)
        doc = self.make_doc()
        doc["amplitudes"][1] = [0.0, -sys.float_info.max]
        with pytest.raises(AmplitudeFileError, match="normalized"):
            distribution_from_json(json.dumps(doc))

    def test_cells_keep_their_bits(self):
        # ints, -0.0 and floats read as complex(re, im) per pair would read them
        rng = np.random.default_rng(3)
        values = rng.standard_normal((4096, 2))
        values[:3] = 0.0
        values /= np.linalg.norm(values)
        pairs = values.tolist()
        pairs[0], pairs[1], pairs[2] = [0, 0], [-0.0, 0], [0.0, -0.0]
        dist = distribution_from_json(json.dumps({"n": 12, "solutions": [7], "amplitudes": pairs}))
        expected = np.array([complex(re, im) for re, im in pairs])
        assert bits(dist.amplitudes.view(float)) == bits(expected.view(float))

    def test_unnormalized(self):
        doc = self.make_doc()
        doc["amplitudes"][0] = [1.0, 0.0]
        with pytest.raises(AmplitudeFileError, match="normalized"):
            distribution_from_json(json.dumps(doc))

    def test_bad_solutions(self):
        doc = self.make_doc(solutions=(0, 9))
        with pytest.raises(AmplitudeFileError, match="solutions"):
            distribution_from_json(json.dumps(doc))

    @pytest.mark.parametrize("n", [3, 20000])
    def test_n_past_the_amplitude_count(self, n):
        # checked before 2^n is formed, so a huge n is a field diagnostic too
        doc = {"n": n, "solutions": [0], "amplitudes": [[1, 0], [0, 0]]}
        with pytest.raises(AmplitudeFileError, match="field 'n'"):
            distribution_from_json(json.dumps(doc))


def seeded_start(seed, n, j, kind) -> AmplitudeDistribution:
    """A normalized real or complex start of 2^n amplitudes with j seeded solutions."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n) + (1j * rng.normal(size=1 << n) if kind == "complex" else 0.0)
    return AmplitudeDistribution(v / np.linalg.norm(v), tuple(rng.choice(1 << n, size=j, replace=False).tolist()))


def walked(dist0, steps) -> list:
    """The distribution after each of 0..steps steps, each yield of the walk copied before the next step."""
    return [replace(dist0, amplitudes=amps.copy(), r=r) for r, amps in enumerate(gga_walk(dist0, steps))]


class TestInitFileStepping:
    """The init-file rows and amplitude log step a raw vector; every bit is the distributions' own."""

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n", range(3, 11))
    def test_rows_and_log_are_the_walks_bits(self, n, kind):
        for j in (1, 2, 3):
            dist0 = seeded_start(100 * n + j, n, j, kind)
            t = gga_optimal_time(dist0).time
            for r_max in sorted({max(math.ceil(t) - 1, 0), math.ceil(t) + 2}):  # below and above ceil(t)
                run = RunConfig(command="gga", r_max=r_max, fmt="json", init_file="start.json")
                result = init_file_sweep(run, dist0)
                walk = walked(dist0, max(r_max, math.ceil(t)))
                rows = result.join()
                want = {
                    "p": [d.success_probability() for d in walk[: r_max + 1]],
                    "kbar_re": [d.kbar.real for d in walk[: r_max + 1]],
                    "kbar_im": [d.kbar.imag for d in walk[: r_max + 1]],
                    "lbar_re": [d.lbar.real for d in walk[: r_max + 1]],
                    "lbar_im": [d.lbar.imag for d in walk[: r_max + 1]],
                }
                assert {key: bits(rows[key]) for key in want} == {key: bits(v) for key, v in want.items()}
                extra = result.extra_metadata
                ends = [walk[math.floor(t)].success_probability(), walk[math.ceil(t)].success_probability()]
                assert bits([extra["p_floor"], extra["p_ceil"]]) == bits(ends)
                log = list(extra["amplitudes_per_step"])
                assert [entry["r"] for entry in log] == list(range(r_max + 1))
                for entry, d in zip(log, walk):
                    assert bits(entry["solution_amplitudes"]) == bits(d.solution_amplitudes.view(float))
                    assert bits(entry["other_amplitudes"]) == bits(d.other_amplitudes.view(float))

    def test_rows_come_in_blocks_of_the_walks_bits(self, monkeypatch):
        # each block's rows are computed as it is yielded; p_floor and p_ceil come from their own walk
        monkeypatch.setattr(report_module, "_BLOCK_ROWS", 8)
        dist0 = seeded_start(5, 5, 2, "complex")
        t = gga_optimal_time(dist0).time
        run = RunConfig(command="gga", r_max=30, fmt="csv", init_file="start.json")
        result = init_file_sweep(run, dist0)
        blocks = list(result.blocks())
        assert [block["r"].tolist() for block in blocks] == [list(range(s, min(s + 8, 31))) for s in range(0, 31, 8)]
        walk = walked(dist0, 30)
        rows = result.join()
        assert bits(rows["p"]) == bits([d.success_probability() for d in walk])
        assert bits(rows["lbar_im"]) == bits([d.lbar.imag for d in walk])
        extra = result.extra_metadata
        ends = [walk[math.floor(t)].success_probability(), walk[math.ceil(t)].success_probability()]
        assert bits([extra["p_floor"], extra["p_ceil"]]) == bits(ends)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_only_the_start_is_a_distribution(self, monkeypatch, fmt):
        built = []
        post_init = AmplitudeDistribution.__post_init__
        monkeypatch.setattr(AmplitudeDistribution, "__post_init__", lambda self: built.append(1) or post_init(self))
        for kind in ("real", "complex"):
            start = seeded_start(7, 6, 2, kind)
            pairs = start.amplitudes.view(float).reshape(-1, 2).tolist()
            built.clear()
            dist0 = distribution_from_json(json.dumps({"n": 6, "solutions": list(start.solutions), "amplitudes": pairs}))
            run = RunConfig(command="gga", r_max=30, fmt=fmt, init_file="start.json")
            chars = []
            write(init_file_sweep(run, dist0), run, lambda text: chars.append(len(text)))
            assert sum(chars) > 0
            assert len(built) == 1, kind


class TestDistributionInvariants:
    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidStateError):
            AmplitudeDistribution(np.array([1.0, 1.0]), (0,))

    def test_rejects_mismatched_j(self):
        # j must leave at least one non-solution amplitude, and count each index once
        with pytest.raises(InvalidStateError):
            AmplitudeDistribution(np.array([1.0, 0.0]), (0, 1))
        with pytest.raises(InvalidStateError):
            AmplitudeDistribution(np.array([1.0, 0.0]), (0, 0))

import math

import numpy as np
import pytest

from groverlab import discord
from groverlab.bruteforce import MEASURES, evolve
from groverlab.discord import (
    _bloch_blocks,
    _conditional_entropy,
    genuine_discord_ga,
    genuine_discord_partition_minima,
    pairwise_discord,
    pairwise_discord_ga,
    pairwise_discord_series,
)
from groverlab.errors import UnsupportedStructureError
from groverlab.grover import GroverConfig, optimal_iterations, reduced_density, state_at
from groverlab.linalg import DensityMatrix, pure_partial_trace, von_neumann_entropy
from groverlab.optimizers import OptimizerConfig
from witnesses import maximally_mixed, projector_conditional_entropy, row_partition_minimum

FAST = OptimizerConfig(theta_grid=32, phi_grid=64)


def bell_density():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    return DensityMatrix.from_pure(v)


def random_product_density(rng):
    def single():
        psi = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = psi @ psi.conj().T
        return m / m.trace()

    return DensityMatrix(np.kron(single(), single()))


class TestPairwiseDiscord:
    def test_product_state_is_classical(self):
        rng = np.random.default_rng(0)
        sol = pairwise_discord(random_product_density(rng), FAST)
        assert sol.value == pytest.approx(0.0, abs=1e-7)

    def test_bell_state_discord_is_one(self):
        sol = pairwise_discord(bell_density())
        assert sol.value == pytest.approx(1.0, abs=1e-7)
        assert sol.converged

    def test_hundred_product_states_nonnegative_and_zero(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            sol = pairwise_discord(random_product_density(rng), FAST)
            assert sol.value >= -1e-9
            assert sol.value <= 1e-7

    def test_refinement_never_worsens_grid(self):
        cfg = GroverConfig(n=9, j=1)
        rho = reduced_density(cfg, state_at(cfg, 5), 2)
        grid_only = pairwise_discord(rho, OptimizerConfig(refine_maxiter=0))
        refined = pairwise_discord(rho, OptimizerConfig())
        assert refined.value <= grid_only.value + 1e-12

    def test_measured_subsystem_symmetry(self):
        # the search state's two-qubit marginal is permutation symmetric, so
        # measuring either side gives the same discord
        cfg = GroverConfig(n=8, j=1)
        for r in (2, 6):
            rho = reduced_density(cfg, state_at(cfg, r), 2)
            swapped = DensityMatrix(
                rho.matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
            )
            a = pairwise_discord(rho, FAST).value
            b = pairwise_discord(swapped, FAST).value
            assert a == pytest.approx(b, abs=1e-7)

    def test_ga_sweep_shape(self):
        cfg = GroverConfig(n=11, j=1)
        r_opt = optimal_iterations(cfg)
        values = [pairwise_discord_ga(cfg, r, FAST).value for r in range(0, r_opt + 1, 5)]
        assert values[0] == pytest.approx(0.0, abs=1e-7)
        assert max(values) > 0.05
        assert values[-1] < 0.05

    def test_fine_grid_oracle_agreement(self):
        # independent dense-grid minimization, no refinement stage
        cfg = GroverConfig(n=11, j=1)
        fine = OptimizerConfig(theta_grid=1024, phi_grid=2048, refine_maxiter=0)
        for r in (5, 17, 30):
            rho = reduced_density(cfg, state_at(cfg, r), 2)
            default = pairwise_discord(rho)
            oracle = pairwise_discord(rho, fine)
            assert default.value == pytest.approx(oracle.value, abs=1e-4)

    def test_grid_rows_past_half_pi_repeat_earlier_rows(self):
        # (theta, phi) and (pi - theta, phi + pi) are one measurement, which is
        # why the coarse grid keeps only its rows theta <= pi/2
        rho = reduced_density(GroverConfig(n=11), state_at(GroverConfig(n=11), 20), 2).matrix
        thetas = np.linspace(0.0, math.pi, 64, endpoint=False)
        phis = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
        grid = projector_conditional_entropy(rho, *np.meshgrid(thetas, phis, indexing="ij"))
        mirrored = np.roll(grid[:0:-1], -64, axis=1)  # row 64 - i, phi shifted by pi
        assert np.abs(grid[1:] - mirrored).max() < 1e-12

    def test_grid_evals_cover_half_the_theta_rows(self):
        sol = pairwise_discord(bell_density(), OptimizerConfig(theta_grid=32, phi_grid=64, refine_maxiter=0))
        assert sol.optimizer_evals == 17 * 64
        odd = pairwise_discord(bell_density(), OptimizerConfig(theta_grid=32, phi_grid=63, refine_maxiter=0))
        assert odd.optimizer_evals == 32 * 63  # phi + pi is off an odd grid: every row counts

    def test_optimizer_metadata(self):
        sol = pairwise_discord(bell_density(), FAST)
        assert sol.optimizer_evals > (32 // 2 + 1) * 64  # the grid rows theta <= pi/2, then the stencils
        assert 0.0 <= sol.theta <= math.pi
        assert 0.0 <= sol.phi < 2.0 * math.pi

    def test_refinement_budget_exhausted_is_not_converged(self):
        cfg = GroverConfig(n=6, j=1)
        rho = reduced_density(cfg, state_at(cfg, 2), 2)
        capped = pairwise_discord(rho, OptimizerConfig(refine_maxiter=1))
        assert not capped.converged
        full = pairwise_discord(rho, OptimizerConfig())
        assert full.converged
        assert full.value <= capped.value

    def test_minimum_next_to_the_pole(self):
        # At n = 11, r = 32 the best measurement lies at theta ~ 0.009 from
        # sigma_z (theta = 0 or pi/2), where the grid's best point is sigma_z
        # with an arbitrary phi. The refinement must still reach the minimum
        # of a fine grid around the pole.
        cfg = GroverConfig(n=11, j=1)
        rho = reduced_density(cfg, state_at(cfg, 32), 2)
        sol = pairwise_discord(rho)
        thetas = np.linspace(0.0, 0.05, 401)
        phis = np.linspace(0.0, 2.0 * math.pi, 721)
        fine = projector_conditional_entropy(rho.matrix, *np.meshgrid(thetas, phis, indexing="ij"))
        s_b = von_neumann_entropy(DensityMatrix(np.einsum("abad->bd", rho.matrix.reshape(2, 2, 2, 2))))
        assert sol.value <= fine.min() + s_b - von_neumann_entropy(rho) + 1e-12

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            pairwise_discord(maximally_mixed(8))


def bits(sol):
    return sol.value.hex(), sol.theta.hex(), sol.phi.hex(), sol.optimizer_evals, sol.converged


def oracle_pair_states():
    """Reduced (0, 1) states of j > 1 statevectors, complex as the oracle path builds them."""
    cases = [(4, 2, 1), (5, 3, 1), (5, 3, 2), (7, 5, 2)]
    return [pure_partial_trace(evolve(GroverConfig(n=n, j=j), r).amplitudes, (0, 1)) for n, j, r in cases]


def random_states(rng, count):
    """Random full-rank complex two-qubit density matrices, as a (count, 4, 4) stack."""
    g = rng.normal(size=(count, 4, 4)) + 1j * rng.normal(size=(count, 4, 4))
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]


def bloch(theta, phi):
    """Bloch vectors of the measurements (theta, phi), stacked on a last axis."""
    return np.stack([np.sin(2 * theta) * np.cos(phi), np.sin(2 * theta) * np.sin(phi), np.cos(2 * theta)], axis=-1)


class TestConditionalEntropy:
    """The Bloch-block kernel against the projector form of sum_i p_i S(rho_{A|i})."""

    def test_sphere_grid_matches_projectors(self):
        rho = random_states(np.random.default_rng(11), 100)
        TH, PH = np.meshgrid(np.linspace(0.0, math.pi / 2, 17), np.linspace(0.0, 2 * math.pi, 32, endpoint=False), indexing="ij")
        got = _conditional_entropy(*_bloch_blocks(rho), np.broadcast_to(bloch(TH, PH).reshape(-1, 3), (100, TH.size, 3)))
        want = np.stack([projector_conditional_entropy(m, TH, PH).ravel() for m in rho])
        assert np.abs(got - want).max() < 1e-14

    def test_xz_circle_matches_projectors(self):
        # the x and z blocks with n = (sin w, cos w) measure at Bloch angle w, i.e. theta = w / 2, phi = 0
        rho = random_states(np.random.default_rng(12), 100)
        w = np.linspace(0.0, math.pi, 64, endpoint=False)
        P, R = _bloch_blocks(rho)
        got = _conditional_entropy(P, R[:, ::2], np.broadcast_to(np.stack([np.sin(w), np.cos(w)], axis=-1), (100, w.size, 2)))
        want = np.stack([projector_conditional_entropy(m, w / 2, np.zeros_like(w)) for m in rho])
        assert np.abs(got - want).max() < 1e-14

    def test_reported_measurement_gives_the_value(self):
        # on complex j > 1 states the value is the projector form's conditional
        # entropy at the reported angles, plus S(rho_B) - S(rho_AB)
        for rho in oracle_pair_states():
            sol = pairwise_discord(rho)
            s_b = von_neumann_entropy(DensityMatrix(np.einsum("abad->bd", rho.matrix.reshape(2, 2, 2, 2))))
            cond = projector_conditional_entropy(rho.matrix, sol.theta, sol.phi)
            assert sol.converged
            assert sol.value == pytest.approx(cond + s_b - von_neumann_entropy(rho), abs=1e-14)


def series_rows():
    """(cfg, r array): every n = 2..15, 20, 30, 50, nine r up to min(r_opt, 60) each."""
    for n in [*range(2, 16), 20, 30, 50]:
        cfg = GroverConfig(n=n)
        top = min(optimal_iterations(cfg), 60)
        yield cfg, np.unique(np.linspace(0, top, 9).round().astype(int))


class TestPairwiseDiscordSeries:
    def test_never_above_the_two_dimensional_search(self):
        # the series searches the x-z circle only; on the search states the
        # sphere's minimum lies on it, so the result may not exceed the
        # 2-D grid-plus-stencil search by more than rounding
        for cfg, rs in series_rows():
            series = pairwise_discord_series(cfg, state_at(cfg, rs))
            for r, sol in zip(rs.tolist(), series):
                sphere = pairwise_discord(reduced_density(cfg, state_at(cfg, r), 2))
                assert sol.value <= sphere.value + 1e-12, (cfg.n, r)
                assert sol.converged

    @pytest.mark.parametrize("config", [OptimizerConfig(), FAST, OptimizerConfig(theta_grid=7, refine_tol=1e-5)])
    def test_rows_are_bitwise_the_one_row_calls(self, config):
        for n, top in ((11, 25), (30, 60)):
            cfg = GroverConfig(n=n)
            rs = np.arange(top + 1)
            series = pairwise_discord_series(cfg, state_at(cfg, rs), config)
            assert list(map(bits, series)) == [bits(pairwise_discord_ga(cfg, r, config)) for r in rs.tolist()]

    def test_closed_form_is_one_series_call(self, monkeypatch):
        calls = []
        original = discord.pairwise_discord_series
        monkeypatch.setattr(discord, "pairwise_discord_series", lambda *a: calls.append(a) or original(*a))
        cfg = GroverConfig(n=9)
        values = MEASURES["d2"].closed_form(cfg, state_at(cfg, np.arange(13)), FAST)
        assert len(calls) == 1 and len(values) == 13

    def test_refinement_budget_exhausted_is_not_converged(self):
        cfg = GroverConfig(n=6)
        st = state_at(cfg, np.arange(4))
        assert not any(sol.converged for sol in pairwise_discord_series(cfg, st, OptimizerConfig(refine_maxiter=1)))
        assert all(sol.converged for sol in pairwise_discord_series(cfg, st, OptimizerConfig(refine_maxiter=0)))

    def test_evals_and_angles(self):
        # 32 distinct measurements on the 64-point circle grid, then 24 levels
        # of 5 points from spacing 2 pi / 64 down to 1e-8
        cfg = GroverConfig(n=11)
        for sol in pairwise_discord_series(cfg, state_at(cfg, np.arange(26))):
            assert sol.optimizer_evals == 32 + 5 * 24
            assert sol.phi == 0.0
            assert 0.0 <= sol.theta <= math.pi

    def test_multiple_solutions_unsupported(self):
        cfg = GroverConfig(n=4, j=2)
        with pytest.raises(UnsupportedStructureError):
            pairwise_discord_series(cfg, state_at(cfg, np.arange(2)))


class TestGenuineDiscord:
    def test_initial_state_uncorrelated(self):
        cfg = GroverConfig(n=5, j=1)
        assert genuine_discord_ga(cfg, state_at(cfg, 0)) == pytest.approx(0.0, abs=1e-7)

    def test_equals_single_qubit_entropy(self):
        for n, r in [(4, 1), (6, 2), (9, 7)]:
            cfg = GroverConfig(n=n, j=1)
            s = state_at(cfg, r)
            closed = genuine_discord_ga(cfg, s)
            assert closed == pytest.approx(von_neumann_entropy(reduced_density(cfg, s, 1)), abs=1e-10)
            oracle = von_neumann_entropy(pure_partial_trace(evolve(cfg, r).amplitudes, (0,)))
            assert closed == pytest.approx(oracle, abs=1e-10)

    def test_rises_then_falls_at_eleven_qubits(self):
        cfg = GroverConfig(n=11, j=1)
        r_opt = optimal_iterations(cfg)
        values = genuine_discord_ga(cfg, state_at(cfg, np.arange(r_opt + 1)))
        peak = int(np.argmax(values))
        assert 0 < peak < r_opt
        assert values[0] == pytest.approx(0.0, abs=1e-7)
        assert values[-1] < 0.05

    def test_multiple_solutions_unsupported(self):
        with pytest.raises(UnsupportedStructureError):
            cfg = GroverConfig(n=4, j=2)
            genuine_discord_ga(cfg, state_at(cfg, 1))


class TestPartitionMinimum:
    def test_three_qubits_split_one_two(self):
        cfg = GroverConfig(n=3, j=1)
        # at r=0 every partition ties at zero entropy, so the argmin is only
        # meaningful once the state is entangled
        for r in (1, 2):
            _, partition, _ = row_partition_minimum(cfg, r)
            assert partition == (2, 1)
        assert genuine_discord_partition_minima(cfg, [0])[0] == pytest.approx(0.0, abs=1e-9)

    def test_initial_state_zero_for_every_partition(self):
        value, _, entropy_by_size = row_partition_minimum(GroverConfig(n=5, j=1), 0)
        assert value == pytest.approx(0.0, abs=1e-9)
        assert all(s == pytest.approx(0.0, abs=1e-9) for s in entropy_by_size.values())

    def test_exhaustive_minimum_matches_closed_form(self):
        # ten partitions of six qubits with at least two blocks
        cfg = GroverConfig(n=6, j=1)
        value = genuine_discord_partition_minima(cfg, [2])[0]
        assert value == pytest.approx(genuine_discord_ga(cfg, state_at(cfg, 2)), abs=1e-9)

    def test_partition_count(self):
        from groverlab.discord import _partitions_with_two_parts

        assert len(_partitions_with_two_parts(6)) == 10
        assert all(sum(p) == 6 and len(p) >= 2 for p in _partitions_with_two_parts(6))

    def test_matches_closed_form_across_runs(self):
        for n in (4, 7, 10):
            cfg = GroverConfig(n=n, j=1)
            rs = np.arange(optimal_iterations(cfg) + 1)
            closed = genuine_discord_ga(cfg, state_at(cfg, rs))
            minima = genuine_discord_partition_minima(cfg, rs)
            for r in rs.tolist():
                assert minima[r] == pytest.approx(closed[r], abs=1e-9)
                # the one-r witness agrees with the stacked minimum
                assert row_partition_minimum(cfg, r)[0] == pytest.approx(minima[r], abs=1e-12)

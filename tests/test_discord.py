import math
import tracemalloc

import numpy as np
import pytest

from groverlab import discord
from groverlab.bruteforce import MEASURES, evolve, evolve_series
from groverlab.discord import (
    _bloch_blocks,
    _conditional_entropy,
    genuine_discord_ga,
    genuine_discord_partition_minima,
    pairwise_discord,
    pairwise_discord_closed_form,
    pairwise_discord_ga,
    pairwise_discord_rows,
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
        # (theta, phi) and (pi - theta, phi + pi) are one measurement, and so
        # are the antipodes (theta, phi) and (pi/2 - theta, phi + pi), which is
        # why the coarse grid keeps only its rows theta <= pi/4
        rho = reduced_density(GroverConfig(n=11), state_at(GroverConfig(n=11), 20), 2).matrix
        thetas = np.linspace(0.0, math.pi, 64, endpoint=False)
        phis = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
        grid = projector_conditional_entropy(rho, *np.meshgrid(thetas, phis, indexing="ij"))
        mirrored = np.roll(grid[:0:-1], -64, axis=1)  # row 64 - i, phi shifted by pi
        assert np.abs(grid[1:] - mirrored).max() < 1e-12
        antipodes = np.roll(grid[15::-1], -64, axis=1)  # rows pi/4 < theta <= pi/2: row 32 - i, phi shifted by pi
        assert np.abs(grid[17:33] - antipodes).max() < 1e-12

    @pytest.mark.parametrize("theta_grid, phi_grid, evals", [(32, 64, 576), (32, 63, 567), (30, 64, 512), (3, 5, 5)])
    def test_grid_evals_cover_one_hemisphere(self, theta_grid, phi_grid, evals):
        # the rows theta <= pi/4 at any parity of PHI; below THETA = 4 only the pole row
        config = OptimizerConfig(theta_grid=theta_grid, phi_grid=phi_grid, refine_maxiter=0)
        sol = pairwise_discord(bell_density(), config)
        assert sol.optimizer_evals == evals == (theta_grid // 4 + 1) * phi_grid

    def test_optimizer_metadata(self):
        sol = pairwise_discord(bell_density(), FAST)
        assert sol.optimizer_evals > (32 // 4 + 1) * 64  # the grid rows theta <= pi/4, then the stencils
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
    """The fields of a one-state solution, floats as their exact hex."""
    return sol.value.hex(), sol.theta.hex(), sol.phi.hex(), sol.optimizer_evals, sol.converged


def row_bits(sol):
    """bits of each row of a columnar solution; its evals and `converged` are one scalar for all rows."""
    assert type(sol.optimizer_evals) is int and type(sol.converged) is bool
    angles = zip(sol.value.tolist(), sol.theta.tolist(), sol.phi.tolist())
    return [(v.hex(), t.hex(), p.hex(), sol.optimizer_evals, sol.converged) for v, t, p in angles]


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


class TestPairwiseDiscordRows:
    """The stack search, which the d2 oracle runs, against the one-state search."""

    @pytest.mark.parametrize("points", [None, 5000, 1])
    @pytest.mark.parametrize("config", [OptimizerConfig(), FAST, OptimizerConfig(theta_grid=31, phi_grid=63, refine_tol=1e-5)])
    def test_rows_are_bitwise_the_one_state_calls(self, config, points, monkeypatch):
        stacks = [DensityMatrix(np.stack([rho.matrix for rho in oracle_pair_states()]))]
        stacks.append(DensityMatrix(random_states(np.random.default_rng(5), 9)))
        stacks.append(pure_partial_trace(evolve_series(GroverConfig(n=6, j=2), 6), (0, 1)))
        want = [[bits(pairwise_discord(DensityMatrix(m), config)) for m in rho.matrix] for rho in stacks]
        if points is not None:  # 1 point: a row a block; 5,000: 2, 8 or 9 rows by config
            monkeypatch.setattr(discord, "_SEARCH_POINTS", points)
        assert [row_bits(pairwise_discord_rows(rho, config)) for rho in stacks] == want

    def test_oracle_is_one_search_per_series(self, monkeypatch):
        calls = []
        original = discord._search
        monkeypatch.setattr(discord, "_search", lambda *a: calls.append(a) or original(*a))
        cfg = GroverConfig(n=6, j=2)
        values = MEASURES["d2"].oracle(evolve_series(cfg, 6), cfg, FAST)
        assert len(calls) == 1 and len(values) == 7


def series_rows():
    """(cfg, r array): every n = 2..15, 20, 30, 50, nine r up to min(r_opt, 60) each."""
    for n in [*range(2, 16), 20, 30, 50]:
        cfg = GroverConfig(n=n)
        top = min(optimal_iterations(cfg), 60)
        yield cfg, np.unique(np.linspace(0, top, 9).round().astype(int))


def power_of_two_series():
    """(cfg, every r up to r_opt) for n = 2..12 and j in {1, 2, 4, 8} with z = n - log2 j >= 2."""
    for n in range(2, 13):
        for j in (1, 2, 4, 8):
            if n - (j.bit_length() - 1) >= 2:
                cfg = GroverConfig(n=n, j=j)
                yield cfg, np.arange(optimal_iterations(cfg) + 1)


# |closed form - sphere search| on a row; the largest gap measured over
# power_of_two_series is 6.6e-15 (n = 11, j = 2), the search's own rounding
CLOSED_FORM_ATOL = 2e-14


class TestPairwiseDiscordSeries:
    """The d2 closed form over a series of rows (`pairwise_discord_closed_form`) against the sphere search."""

    def test_matches_the_sphere_search_on_the_statevector(self):
        for cfg, rs in power_of_two_series():
            closed = pairwise_discord_closed_form(cfg, state_at(cfg, rs))
            search = pairwise_discord_rows(pure_partial_trace(evolve_series(cfg, int(rs[-1])), (0, 1)))
            assert search.converged
            assert np.abs(closed - search.value).max() <= CLOSED_FORM_ATOL, (cfg.n, cfg.j)

    def test_never_above_the_two_dimensional_search(self):
        # the closed form is the least conditional entropy over every
        # measurement (Koashi-Winter), so a search of the sphere on the
        # structured pair may not end below it by more than rounding, also past
        # the statevector cap
        for cfg, rs in series_rows():
            closed = pairwise_discord_closed_form(cfg, state_at(cfg, rs))
            for r, value in zip(rs.tolist(), closed.tolist()):
                sphere = pairwise_discord_ga(cfg, r)
                assert value <= sphere.value + CLOSED_FORM_ATOL, (cfg.n, r)
                assert sphere.value - value <= CLOSED_FORM_ATOL, (cfg.n, r)

    @pytest.mark.parametrize("config", [OptimizerConfig(), FAST, OptimizerConfig(theta_grid=7, refine_tol=1e-5)])
    def test_rows_are_bitwise_the_one_row_calls(self, config):
        # the d2 entry reads no optimizer setting, and each row has the bits of its one-row state
        for n, j, top in ((11, 1, 25), (30, 1, 60), (30, 4, 60)):
            cfg = GroverConfig(n=n, j=j)
            rs = np.arange(top + 1)
            series = MEASURES["d2"].closed_form(cfg, state_at(cfg, rs), config)
            rows = [pairwise_discord_closed_form(cfg, state_at(cfg, r)) for r in rs.tolist()]
            assert [v.hex() for v in series.tolist()] == [float(v).hex() for v in rows]

    def test_closed_form_is_one_series_call(self, monkeypatch):
        # one closed-form call per series, and no search
        calls = []
        original = discord.pairwise_discord_closed_form
        monkeypatch.setattr(discord, "pairwise_discord_closed_form", lambda *a: calls.append(a) or original(*a))
        monkeypatch.setattr(discord, "_search", None)
        cfg = GroverConfig(n=9)
        values = MEASURES["d2"].closed_form(cfg, state_at(cfg, np.arange(13)), FAST)
        assert len(calls) == 1 and len(values) == 13

    def test_refinement_budget_exhausted_is_not_converged(self):
        # the benchmark's checker needs an unconverged one-row search to report it
        cfg = GroverConfig(n=6)
        assert not pairwise_discord_ga(cfg, 2, OptimizerConfig(refine_maxiter=1)).converged
        assert pairwise_discord_ga(cfg, 2, OptimizerConfig(refine_maxiter=0)).converged
        full = pairwise_discord_ga(cfg, 2)
        assert full.converged
        assert abs(full.value - pairwise_discord_closed_form(cfg, state_at(cfg, 2))) <= CLOSED_FORM_ATOL

    def test_evals_and_angles(self):
        # the hemisphere's 2,176 grid points, then 24 levels of 25 stencil
        # points, from spacing 2 pi / 64 down to 1e-8
        for cfg in (GroverConfig(n=11), GroverConfig(n=11, j=4)):
            for r in (0, 5, 20):
                sol = pairwise_discord_ga(cfg, r)
                assert sol.optimizer_evals == 2176 + 25 * 24
                assert 0.0 <= sol.theta <= math.pi and 0.0 <= sol.phi < 2.0 * math.pi

    def test_rows_do_not_depend_on_the_block_size(self):
        # a sweep takes d2 on blocks of rows (`report._BLOCK_ROWS`): any split gives the same bits
        cfg = GroverConfig(n=9, j=2)
        st = state_at(cfg, np.arange(optimal_iterations(cfg) + 1))
        whole = pairwise_discord_closed_form(cfg, st)
        for size in (1, 7):
            parts = [pairwise_discord_closed_form(cfg, st.rows(slice(s, s + size))) for s in range(0, len(st.r), size)]
            assert np.concatenate(parts).tobytes() == whole.tobytes()

    def test_search_memory_is_bounded_by_the_block(self):
        # no search and no matrix: the 6,434 rows at n = 26 peaked at 0.6 MiB,
        # a dozen arrays of one float a row
        cfg = GroverConfig(n=26)
        st = state_at(cfg, np.arange(optimal_iterations(cfg) + 1))
        tracemalloc.start()
        try:
            values = pairwise_discord_closed_form(cfg, st)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == st.r.shape
        assert peak < 2**20

    def test_long_series_builds_no_object_per_row(self):
        # the 205,888 rows of n = 36 as one float array; it peaked at 19 MiB,
        # a dozen arrays of one float a row
        cfg = GroverConfig(n=36)
        st = state_at(cfg, np.arange(optimal_iterations(cfg) + 1))
        tracemalloc.start()
        try:
            values = pairwise_discord_closed_form(cfg, st)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == (205_888,) and values.dtype == float
        assert peak < 24 * 2**20

    def test_empty_series_gives_empty_columns(self):
        cfg = GroverConfig(n=5)
        assert pairwise_discord_closed_form(cfg, state_at(cfg, np.arange(0))).shape == (0,)
        empty = pure_partial_trace(np.zeros((0, 16), dtype=complex), (0, 1))
        sol = pairwise_discord_rows(empty, FAST)
        assert sol.value.shape == sol.theta.shape == sol.phi.shape == (0,)

    def test_multiple_solutions_unsupported(self):
        # j = 2^k with the leading solutions only, and at least two differing qubits
        refused = (GroverConfig(n=4, j=3), GroverConfig(n=4, j=2, solutions=(3, 9)), GroverConfig(n=4, solutions=(7,)))
        for form in (
            lambda cfg: pairwise_discord_closed_form(cfg, state_at(cfg, np.arange(2))),
            lambda cfg: pairwise_discord_ga(cfg, 1),
        ):
            for cfg in refused:
                with pytest.raises(UnsupportedStructureError, match=r"requires j = 2\^k"):
                    form(cfg)
            with pytest.raises(ValueError):
                form(GroverConfig(n=2, j=2))
        # the sweep's engines: the closed form where it holds, else the oracle up to its cap
        assert MEASURES["d2"].engine(GroverConfig(n=13, j=8)) == "analytic"
        assert MEASURES["d2"].engine(GroverConfig(n=3, j=4)) == "oracle"
        assert MEASURES["d2"].engine(GroverConfig(n=12, j=3)) == "oracle"
        assert MEASURES["d2"].engine(GroverConfig(n=13, j=3)) == "unavailable"


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

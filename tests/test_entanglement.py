import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from groverlab import entanglement
from groverlab.bruteforce import evolve, evolve_series
from groverlab.entanglement import (
    _cut_keys,
    _cut_places,
    _spread,
    concurrence_multiqubit_ga,
    concurrence_two_qubit,
    concurrence_two_qubit_ga,
    multiqubit_concurrence_pure,
)
from groverlab.errors import CapacityError, NumericalConsistencyError, UnsupportedStructureError
from groverlab.gga import gga_iterate
from groverlab.grover import GroverConfig, optimal_iterations, reduced_density, state_at
from groverlab.linalg import DensityMatrix, pure_partial_trace
from witnesses import (
    bits,
    enumerated_multiqubit_concurrence,
    maximally_mixed,
    pure_subsystem_purity,
    subset_concurrence,
)


def bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    return DensityMatrix.from_pure(v)


class TestWootters:
    def test_bell_state_is_maximal(self):
        assert concurrence_two_qubit(bell_state()) == pytest.approx(1.0, abs=1e-10)

    def test_product_pure_state_is_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            b = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            assert concurrence_two_qubit(DensityMatrix.from_pure(v)) == pytest.approx(0.0, abs=1e-7)

    def test_werner_state_threshold(self):
        # Werner states are entangled iff p > 1/3, concurrence (3p-1)/2
        bell = bell_state().matrix
        for p in (0.2, 0.5, 0.9):
            rho = DensityMatrix(p * bell + (1 - p) * np.eye(4) / 4)
            expected = max(0.0, (3 * p - 1) / 2)
            assert concurrence_two_qubit(rho) == pytest.approx(expected, abs=1e-10)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            concurrence_two_qubit(maximally_mixed(8))


class TestPairwiseGA:
    def test_initial_state_unentangled(self):
        cfg = GroverConfig(n=5, j=1)
        assert concurrence_two_qubit_ga(cfg, state_at(cfg, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_exact_search_ends_unentangled(self):
        cfg = GroverConfig(n=2, j=1)
        assert concurrence_two_qubit_ga(cfg, state_at(cfg, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_omega_gap(self):
        cfg = GroverConfig(n=5, j=1)
        s = state_at(cfg, 1)
        m = reduced_density(cfg, s, 2).matrix
        assert concurrence_two_qubit_ga(cfg, s) == pytest.approx(2 * abs(m[0, 1] - m[1, 1]), abs=1e-14)

    def test_matches_wootters_on_oracle_state(self):
        for n in (3, 5, 7):
            cfg = GroverConfig(n=n, j=1)
            rs = np.arange(optimal_iterations(cfg) + 1)
            closed = concurrence_two_qubit_ga(cfg, state_at(cfg, rs))
            for r in rs.tolist():
                rho2 = pure_partial_trace(evolve(cfg, r).amplitudes, (0, 1))
                assert closed[r] == pytest.approx(concurrence_two_qubit(rho2), abs=1e-8)

    def test_rises_then_falls(self):
        cfg = GroverConfig(n=11, j=1)
        r_opt = optimal_iterations(cfg)
        values = concurrence_two_qubit_ga(cfg, state_at(cfg, np.arange(r_opt + 1)))
        peak = int(np.argmax(values))
        assert 0 < peak < r_opt
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[-1] < 0.05

    def test_multiple_solutions_unsupported(self):
        with pytest.raises(UnsupportedStructureError):
            cfg = GroverConfig(n=4, j=2)
            concurrence_two_qubit_ga(cfg, state_at(cfg, 1))

    def test_one_qubit_register_has_no_pair(self):
        cfg = GroverConfig(n=1, j=1)
        with pytest.raises(ValueError, match="n >= 2"):
            concurrence_two_qubit_ga(cfg, state_at(cfg, 0))


class TestMultiqubitGA:
    def test_initial_product_state(self):
        cfg = GroverConfig(n=6, j=1)
        assert concurrence_multiqubit_ga(cfg, state_at(cfg, 0)) == pytest.approx(0.0, abs=1e-9)

    def test_purity_sum_equals_polynomial(self):
        # the closed-form polynomial in (a, b) against the subset-enumerated
        # purity-deficit sum, over whole runs up to the statevector cap
        for n in (4, 6, 8, 10, 12):
            cfg = GroverConfig(n=n, j=1)
            rs = np.arange(optimal_iterations(cfg) + 1)
            closed = concurrence_multiqubit_ga(cfg, state_at(cfg, rs))
            dist = evolve(cfg, 0)
            for r in rs.tolist():
                if r > 0:
                    dist = gga_iterate(dist, 1)
                assert closed[r] == pytest.approx(multiqubit_concurrence_pure(dist.amplitudes), abs=1e-9)

    def test_against_subset_enumeration_oracle(self):
        for n in (3, 5, 7):
            cfg = GroverConfig(n=n, j=1)
            for r in range(optimal_iterations(cfg) + 1):
                oracle = multiqubit_concurrence_pure(evolve(cfg, r).amplitudes)
                assert concurrence_multiqubit_ga(cfg, state_at(cfg, r)) == pytest.approx(oracle, abs=1e-6)

    def test_structured_purities_match_statevector(self):
        cfg = GroverConfig(n=6, j=1)
        amps = evolve(cfg, 2).amplitudes
        for k in range(1, 6):
            oracle = pure_subsystem_purity(amps, tuple(range(k)))
            assert reduced_density(cfg, state_at(cfg, 2), k).purity() == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("n", [19, 25, 27, 29, 31, 33, 37, 39])
    def test_initial_state_is_product_at_every_n(self, n):
        # the exact-rational form crashed here on rounding noise in (a, b)
        cfg = GroverConfig(n=n, j=1)
        assert concurrence_multiqubit_ga(cfg, state_at(cfg, 0)) <= 1e-15

    @given(n=st.integers(2, 60), frac=st.floats(0.0, 1.0))
    def test_finite_and_in_range_up_to_sixty_qubits(self, n, frac):
        cfg = GroverConfig(n=n, j=1)
        r = round(frac * optimal_iterations(cfg))
        first, value = concurrence_multiqubit_ga(cfg, state_at(cfg, np.array([0, r])))
        assert math.isfinite(value)
        assert 0.0 <= value <= 2.0
        assert first <= 1e-15

    def test_rises_then_falls_at_eleven_qubits(self):
        cfg = GroverConfig(n=11, j=1)
        r_opt = optimal_iterations(cfg)
        values = concurrence_multiqubit_ga(cfg, state_at(cfg, np.arange(r_opt + 1)))
        peak = int(np.argmax(values))
        assert 0 < peak < r_opt
        assert values[0] == pytest.approx(0.0, abs=1e-6)
        assert values[-1] < 0.05

    def test_multiple_solutions_unsupported(self):
        with pytest.raises(UnsupportedStructureError):
            cfg = GroverConfig(n=4, j=3)
            concurrence_multiqubit_ga(cfg, state_at(cfg, 1))

    def test_oracle_capacity_guard(self):
        with pytest.raises(CapacityError):
            multiqubit_concurrence_pure(np.full(1 << 13, 2.0**-6.5))

    def test_oracle_handles_arbitrary_solutions(self):
        cfg = GroverConfig(n=4, j=2, solutions=(5, 11))
        value = multiqubit_concurrence_pure(evolve(cfg, 1).amplitudes)
        assert value >= 0.0


def random_state(n, rng):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


class TestBatchedOracle:
    """The stacked-Gram `en` oracle against a sum over every proper subset, one purity per call."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_per_subset_witness_on_random_states(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(2):
            amps = random_state(n, rng)
            assert multiqubit_concurrence_pure(amps) == pytest.approx(subset_concurrence(amps), abs=1e-12)

    def test_matches_per_subset_witness_on_scattered_solutions(self):
        for n in (4, 5, 6):
            cfg = GroverConfig(n=n, j=2, solutions=(5, 11))
            for r in range(optimal_iterations(cfg) + 1):
                amps = evolve(cfg, r).amplitudes
                assert multiqubit_concurrence_pure(amps) == pytest.approx(subset_concurrence(amps), abs=1e-12)

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_real_state_is_independent_of_dtype(self, n):
        amps = np.random.default_rng(n).normal(size=1 << n)
        amps /= np.linalg.norm(amps)
        assert multiqubit_concurrence_pure(amps) == multiqubit_concurrence_pure(amps.astype(complex))

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_one_cut_per_block_changes_nothing(self, n, monkeypatch):
        rng = np.random.default_rng(400 + n)
        states = [random_state(n, rng), evolve(GroverConfig(n=n, j=3), 2).amplitudes]
        batched = [multiqubit_concurrence_pure(amps) for amps in states]
        monkeypatch.setattr(entanglement, "BLOCK_AMPLITUDES", 1)
        assert [multiqubit_concurrence_pure(amps) for amps in states] == batched

    def test_negative_radicand_is_rejected(self):
        # an unnormalized vector has purities above 1 on every cut
        with pytest.raises(NumericalConsistencyError, match="negative radicand"):
            multiqubit_concurrence_pure(np.full(1 << 4, 0.5))

    def test_length_must_be_a_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            multiqubit_concurrence_pure(np.full(12, 12**-0.5))


def leading_series(n, j):
    cfg = GroverConfig(n=n, j=j)
    return evolve_series(cfg, optimal_iterations(cfg))


class TestCutClasses:
    """One Gram per class of equivalent cuts gives every value the bits of one Gram per cut."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_every_leading_series_matches_the_enumeration(self, n):
        for j in range(1, min(16, (1 << n) - 1) + 1):
            stack = leading_series(n, j)
            assert bits(multiqubit_concurrence_pure(stack)) == bits(enumerated_multiqubit_concurrence(stack)), j

    @pytest.mark.parametrize("n", [11, 12])
    def test_oracle_cap_rows_match_the_enumeration(self, n):
        for j in (1, 2, 3, 5):
            stack = leading_series(n, j)
            stack = stack[[0, 1, 2, stack.shape[0] - 1]]
            assert bits(multiqubit_concurrence_pure(stack)) == bits(enumerated_multiqubit_concurrence(stack)), j

    def test_scattered_and_random_stacks_match_the_enumeration(self):
        rng = np.random.default_rng(29)
        stacks = [evolve_series(GroverConfig(n=7, j=2, solutions=(1, 127)), 8)]
        for n in (3, 6, 9):
            real = rng.normal(size=(3, 1 << n))
            stacks += [real, real + 1j * rng.normal(size=real.shape)]
        for stack in stacks:
            stack = stack / np.linalg.norm(stack, axis=1, keepdims=True)
            assert bits(multiqubit_concurrence_pure(stack)) == bits(enumerated_multiqubit_concurrence(stack))

    @pytest.mark.parametrize("j", range(1, 17))
    def test_leading_solutions_share_the_top_qubits(self, j):
        n = 8
        labels = entanglement._exchange_labels(leading_series(n, j), n)
        top = n - (j - 1).bit_length()
        assert np.all(labels[:top] == 0)
        if j == 3:
            assert labels[6] == labels[7] != 0
        if j == 5:
            assert labels[6] == labels[7] and len({0, labels[5], labels[6]}) == 3

    @pytest.mark.parametrize("n", [6, 8])
    def test_interleaved_classes_key_both_sides_in_qubit_order(self, n):
        # a random value per orbit of the exchanges within the even and within
        # the odd qubits: cuts whose kept labels agree can still order the
        # other side's labels differently, and then their sums differ in the last bits
        x = np.arange(1 << n)
        even, odd = [sum((x >> (n - 1 - q)) & 1 for q in range(start, n, 2)) for start in (0, 1)]
        for seed in range(3):
            rng = np.random.default_rng(seed)
            values = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
            for stack in (values[:, even, odd], values.real[:, even, odd]):
                stack = stack / np.linalg.norm(stack, axis=1, keepdims=True)
                assert entanglement._exchange_labels(stack, n).tolist() == [0, 1] * (n // 2)
                assert bits(multiqubit_concurrence_pure(stack)) == bits(enumerated_multiqubit_concurrence(stack))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_integer_keys_partition_cuts_as_label_rows_do(self, n):
        # the same classes, numbered alike, with the same first cut of each
        rng = np.random.default_rng(30 + n)
        vectors = [np.zeros(n, dtype=int), np.full(n, n - 1), np.arange(n), rng.permutation(n)]
        for distinct in rng.integers(1, n + 1, size=6):
            vectors.append(rng.choice(rng.choice(n, size=distinct, replace=False), size=n))
        for labels in vectors:
            for k in range(1, n // 2 + 1):
                keep, rest = _cut_places(n, k)
                rows = np.concatenate([labels[keep], labels[rest]], axis=1)
                _, reps, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
                keys = _cut_keys(labels, keep)
                _, key_reps, key_inverse = np.unique(keys, return_index=True, return_inverse=True)
                assert key_reps.tolist() == reps.tolist(), (labels, k)
                assert key_inverse.tolist() == inverse.reshape(-1).tolist(), (labels, k)

    def test_one_ulp_per_qubit_leaves_no_class(self, monkeypatch):
        # row q moves the amplitude of the basis state with only qubit q set,
        # so no two qubits can be exchanged, and every cut is its own class
        n = 6
        stack = leading_series(n, 1)
        for q in range(n - 1):
            x = 1 << (n - 1 - q)
            stack[q, x] = np.nextafter(stack[q, x].real, np.inf)
        assert entanglement._exchange_labels(stack, n).tolist() == list(range(n))
        spread = []
        monkeypatch.setattr(entanglement, "_spread", lambda q, n: spread.append(q.shape[0]) or _spread(q, n))
        assert bits(multiqubit_concurrence_pure(stack)) == bits(enumerated_multiqubit_concurrence(stack))
        assert spread[::2] == [math.comb(n, k) for k in (1, 2)] + [math.comb(n - 1, 2)]

    def test_two_leading_solutions_take_two_grams_per_k(self, monkeypatch):
        n = 12
        spread = []
        monkeypatch.setattr(entanglement, "_spread", lambda q, n: spread.append(q.shape) or _spread(q, n))
        multiqubit_concurrence_pure(evolve_series(GroverConfig(n=n, j=2), 2))
        # one (kept, other) pair of gather tables per k, each over its representatives
        assert spread[::2] == [(2, k) for k in range(1, n // 2 + 1)]

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverlab.errors import InvalidStateError
from groverlab.linalg import (
    DensityMatrix,
    _adjoint_gap,
    _schmidt_gram,
    PureState,
    binary_entropy,
    pure_partial_trace,
    pure_subsystem_entropy,
    shannon_entropy,
    von_neumann_entropy,
)
from witnesses import maximally_mixed, n_qubits, partial_trace, pure_subsystem_purity, relative_entropy


def random_density(dim, rng, rank=None):
    rank = rank or dim
    psi = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = psi @ psi.conj().T
    return DensityMatrix(m / m.trace())


def random_pure(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


class TestDensityMatrixInvariants:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvalidStateError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidStateError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative_spectrum(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(InvalidStateError, match="eigenvalue"):
            DensityMatrix(m).eigenvalues()

    def test_pure_state_normalization(self):
        with pytest.raises(InvalidStateError, match="normalized"):
            PureState(np.array([1.0, 1.0]))

    def test_rejects_nan_as_pure_state_does(self):
        with pytest.raises(InvalidStateError, match="normalized"):
            PureState(np.full(4, np.nan))
        with pytest.raises(InvalidStateError, match="Hermitian"):
            DensityMatrix(np.full((2, 2), np.nan))
        stack = np.stack([np.eye(2) / 2, np.diag([np.nan, 0.5])])  # one bad matrix of a stack
        with pytest.raises(InvalidStateError, match="Hermitian"):
            DensityMatrix(stack)
        with pytest.raises(InvalidStateError, match="Hermitian"):
            pure_partial_trace(np.full(4, np.nan), (0,))

    def test_matrices_are_readonly(self):
        rho = maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0


@pytest.mark.parametrize("shape", [(1, 1), (7, 7), (256, 256), (300, 300), (5, 64, 64), (2, 3, 8, 8), (1000, 8, 8)])
def test_adjoint_gap_is_the_max_over_every_pair(shape):
    # the rows of each block are compared with the later columns only; the
    # maximum, NaN and inf included, is that of the whole m - m^dag
    rng = np.random.default_rng(shape[-1] + len(shape))
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    hermitian = (m + m.conj().swapaxes(-1, -2)) / 2
    stacks = [m, hermitian]
    for special in (np.nan, np.inf, -np.inf, complex(np.inf, np.nan), complex(0.0, np.inf)):
        for base in (m, hermitian):
            bad = base.copy()
            bad.flat[rng.integers(bad.size)] = special
            stacks.append(bad)
    both = hermitian.copy()  # inf at (x, y) and (y, x): inf - inf is NaN
    x, y = rng.integers(shape[-1], size=2)
    both[..., x, y] = both[..., y, x] = np.inf
    stacks.append(both)
    for stack in stacks:
        with np.errstate(invalid="ignore"):  # inf - inf
            want = np.max(np.abs(stack - stack.conj().swapaxes(-1, -2)))
            assert float(_adjoint_gap(stack)).hex() == float(want).hex()


class TestVonNeumannEntropy:
    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(maximally_mixed(2)) == pytest.approx(1.0, abs=1e-12)

    def test_pure_projector_is_zero(self):
        rng = np.random.default_rng(3)
        rho = DensityMatrix.from_pure(random_pure(8, rng))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)

    def test_unbalanced_diagonal(self):
        # independent scalar oracle for H(1/4)
        expected = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)
        assert von_neumann_entropy(rho) == pytest.approx(0.811278, abs=1e-6)

    def test_additivity_on_products(self):
        rng = np.random.default_rng(11)
        a = random_density(4, rng)
        b = random_density(2, rng)
        prod = DensityMatrix(np.kron(a.matrix, b.matrix))
        assert von_neumann_entropy(prod) == pytest.approx(
            von_neumann_entropy(a) + von_neumann_entropy(b), abs=1e-10
        )


class TestBinaryEntropy:
    def test_symmetry_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_high_precision_value(self):
        import mpmath

        x = mpmath.mpf("0.468766")
        expected = float(-(x * mpmath.log(x, 2) + (1 - x) * mpmath.log(1 - x, 2)))
        assert binary_entropy(0.468766) == pytest.approx(expected, abs=1e-14)
        assert binary_entropy(0.468766) == pytest.approx(0.99718, abs=1e-5)

    @pytest.mark.parametrize("x", [-0.01, 1.01, 2.0, np.nan, [0.5, np.nan]])
    def test_domain_error(self, x):
        with pytest.raises(ValueError):
            binary_entropy(x)

    def test_tolerated_rounding_overshoot(self):
        assert binary_entropy(1.0 + 1e-13) == 0.0

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_symmetry_and_bounds(self, x):
        h = binary_entropy(x)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


class TestPartialTrace:
    def test_product_state_factorizes(self):
        zero = np.array([1.0, 0.0], dtype=complex)
        plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        rho = DensityMatrix.from_pure(np.kron(zero, plus))
        kept = partial_trace(rho, (0,))
        assert np.allclose(kept.matrix, np.outer(zero, zero), atol=1e-12)
        kept_b = partial_trace(rho, (1,))
        assert np.allclose(kept_b.matrix, np.outer(plus, plus), atol=1e-12)

    def test_bell_state_reduces_to_mixed(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / math.sqrt(2)
        kept = partial_trace(DensityMatrix.from_pure(bell), (0,))
        assert np.allclose(kept.matrix, np.eye(2) / 2, atol=1e-12)

    def test_big_endian_convention(self):
        # |01>: qubit 0 (most significant bit) is |0>, qubit 1 is |1>
        amp = np.zeros(4, dtype=complex)
        amp[1] = 1.0
        rho = DensityMatrix.from_pure(amp)
        q0 = partial_trace(rho, (0,)).matrix
        q1 = partial_trace(rho, (1,)).matrix
        assert q0[0, 0] == pytest.approx(1.0)
        assert q1[1, 1] == pytest.approx(1.0)

    def test_dim_not_power_of_two(self):
        rho = maximally_mixed(3)
        with pytest.raises(ValueError, match="power of two"):
            partial_trace(rho, (0,))

    @pytest.mark.parametrize("keep", [(), (0, 0), (1, 0), (0, 5)])
    def test_bad_keep(self, keep):
        rho = maximally_mixed(4)
        with pytest.raises(IndexError):
            partial_trace(rho, keep)

    @given(st.integers(0, 1000))
    @settings(max_examples=30)
    def test_stepwise_equals_joint(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        rho = random_density(1 << n, rng, rank=2)
        keep = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        joint = partial_trace(rho, keep)
        # removing absent qubits highest-first leaves the current index of
        # every remaining qubit equal to its original index
        stepwise = rho
        for q in sorted(set(range(n)) - set(keep), reverse=True):
            current = n_qubits(stepwise)
            stepwise = partial_trace(stepwise, tuple(i for i in range(current) if i != q))
        assert np.allclose(stepwise.matrix, joint.matrix, atol=1e-12)

    def test_pure_partial_trace_matches_projector_route(self):
        rng = np.random.default_rng(5)
        amps = random_pure(32, rng)
        for keep in [(0,), (2, 4), (0, 1, 3)]:
            direct = pure_partial_trace(amps, keep)
            via_proj = partial_trace(DensityMatrix.from_pure(amps), keep)
            assert np.allclose(direct.matrix, via_proj.matrix, atol=1e-12)

    def test_pure_subsystem_purity(self):
        rng = np.random.default_rng(6)
        amps = random_pure(64, rng)
        for keep in [(0,), (1, 3), (0, 2, 5)]:
            rho_k = pure_partial_trace(amps, keep)
            assert pure_subsystem_purity(amps, keep) == pytest.approx(rho_k.purity(), abs=1e-12)


class TestPureSubsystemEntropy:
    @staticmethod
    def every_keep(n):
        return [tuple(q for q in range(n) if mask >> q & 1) for mask in range(1, 1 << n)]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_reduced_spectrum_on_random_states(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            amps = random_pure(1 << n, rng)
            for keep in self.every_keep(n):
                expected = von_neumann_entropy(pure_partial_trace(amps, keep))
                assert pure_subsystem_entropy(amps, keep) == pytest.approx(expected, abs=1e-12)

    def test_whole_register_is_pure(self):
        amps = random_pure(64, np.random.default_rng(7))
        assert pure_subsystem_entropy(amps, range(6)) == pytest.approx(0.0, abs=1e-12)

    def test_product_state_has_no_entanglement(self):
        rng = np.random.default_rng(8)
        amps = np.array([1.0 + 0j])
        for _ in range(5):
            amps = np.kron(amps, random_pure(2, rng))
        for keep in self.every_keep(5):
            assert pure_subsystem_entropy(amps, keep) == pytest.approx(0.0, abs=1e-12)

    def test_gram_is_the_smaller_factor(self):
        amps = random_pure(1 << 6, np.random.default_rng(9))
        for keep in [(0,), (1, 4), (0, 2, 5), (0, 1, 2, 3), tuple(range(6))]:
            width = 1 << min(len(keep), 6 - len(keep))
            assert _schmidt_gram(amps, keep).shape == (width, width)


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rng = np.random.default_rng(17)
        rho = random_density(4, rng)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_maximally_mixed(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        assert relative_entropy(rho, maximally_mixed(2)) == pytest.approx(1.0, abs=1e-12)

    def test_kl_oracle(self):
        expected = 0.7 * math.log2(0.7 / 0.5) + 0.3 * math.log2(0.3 / 0.5)
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        sigma = maximally_mixed(2)
        assert relative_entropy(rho, sigma) == pytest.approx(expected, abs=1e-12)
        assert relative_entropy(rho, sigma) == pytest.approx(0.118709, abs=1e-6)

    def test_support_violation_is_infinite(self):
        rho = maximally_mixed(2)
        sigma = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        assert relative_entropy(rho, sigma) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            relative_entropy(maximally_mixed(2), maximally_mixed(4))

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            assert relative_entropy(random_density(4, rng), random_density(4, rng)) >= 0.0


class TestEigendecompositionReconstruction:
    @pytest.mark.parametrize("dim", [2, 4, 16, 64, 256])
    def test_reconstruction(self, dim):
        rng = np.random.default_rng(dim)
        rho = random_density(dim, rng)
        w, v = np.linalg.eigh(rho.matrix)
        rebuilt = (v * w) @ v.conj().T
        assert np.max(np.abs(rho.matrix - rebuilt)) < 1e-10


def test_shannon_entropy_uniform():
    assert shannon_entropy(np.full(8, 1 / 8)) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("p", [[np.nan, 1.0], [[0.5, 0.5], [np.nan, 1.0]]], ids=["vector", "stack"])
def test_shannon_entropy_rejects_nan(p):
    with pytest.raises(InvalidStateError):
        shannon_entropy(p)


def test_pure_state_entropy_prints_zero():
    # every term is 0 log 1 = 0, and their negated sum -0.0 reads 0
    assert f"{shannon_entropy(np.eye(4)[2]):.12g}" == "0"
    assert [f"{h:.12g}" for h in shannon_entropy(np.eye(4)[[0, 3]])] == ["0", "0"]
    assert f"{von_neumann_entropy(DensityMatrix.from_pure([0.0, 1.0])):.12g}" == "0"

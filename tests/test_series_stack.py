"""The series-stacked oracle: every stack row equals the one-statevector path bit for bit."""

import itertools

import numpy as np
import pytest

from groverlab.bruteforce import _IDENTITY_TOLERANCES, MEASURES, _check_series, evolve, evolve_series
from groverlab.errors import InvalidStateError
from groverlab.grover import GroverConfig, optimal_iterations
from groverlab.linalg import DensityMatrix, pure_partial_trace, shannon_entropy
from witnesses import bits, row_check_series, row_oracle, row_partial_trace

FAST_ORACLES = ("p", "cr", "cl1", "e2", "en", "dn", "m")


def random_stack(n, rows, rng, complex_amplitudes):
    amps = rng.standard_normal((rows, 1 << n))
    if complex_amplitudes:
        amps = amps + 1j * rng.standard_normal((rows, 1 << n))
    return (amps / np.linalg.norm(amps, axis=1, keepdims=True)).astype(complex)


def stacks():
    """Seeded real and complex stacks of 1-5 rows at n = 2..8, and each n's Grover series."""
    for n in range(2, 9):
        rng = np.random.default_rng(700 + n)
        cfg = GroverConfig(n=n, j=2, solutions=(1, (1 << n) - 1))
        for rows, kind in itertools.product(range(1, 6), ("real", "complex")):
            yield pytest.param(cfg, random_stack(n, rows, rng, kind == "complex"), id=f"n{n}-{kind}-{rows}")
        grover = GroverConfig(n=n, j=1)
        # at n = 2, r = 1 is the basis state |00>: zeros in every reduction
        yield pytest.param(grover, evolve_series(grover, optimal_iterations(grover)), id=f"n{n}-grover")


@pytest.mark.parametrize("cfg, stack", stacks())
def test_stacked_oracles_match_rows_bit_for_bit(cfg, stack):
    for key in FAST_ORACLES:
        got = MEASURES[key].oracle(stack, cfg, None)
        assert np.shape(got) == (stack.shape[0],), key
        assert bits(got) == bits([row_oracle(key, row, cfg) for row in stack]), key


@pytest.mark.parametrize("fault", [0.0, 1e-3])
def test_identity_deviations_match_the_row_loop(fault):
    # every deviation of every identity, not only the maxima verify prints
    for n in range(2, 8):
        for j, requested in ((1, True), (2, True), (3, False)):
            if j >= 1 << n:
                continue
            cfg = GroverConfig(n=n, j=j)
            got, want = ({name: [] for name in _IDENTITY_TOLERANCES} for _ in range(2))
            _check_series(cfg, requested, True, fault, got)
            row_check_series(cfg, requested, True, fault, want)
            for name in _IDENTITY_TOLERANCES:
                assert sorted(bits(got[name])) == sorted(bits(want[name])), (n, j, name)


def test_series_stack_rows_are_the_stepped_statevectors():
    cfg = GroverConfig(n=7, j=3, solutions=(2, 50, 99))
    stack = evolve_series(cfg, 6)
    for r in range(7):
        assert np.array_equal(stack[r], evolve(cfg, r).amplitudes)


@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_partial_trace_matches_rows_for_every_small_keep(n):
    rng = np.random.default_rng(800 + n)
    for kind in ("real", "complex"):
        stack = random_stack(n, 4, rng, kind == "complex")
        for k in range(1, min(n, 3) + 1):  # k = n is the whole register
            for keep in itertools.combinations(range(n), k):
                got = pure_partial_trace(stack, keep).matrix
                assert got.shape == (4, 1 << k, 1 << k)
                for row, m in zip(stack, got):
                    assert bits(m.view(float)) == bits(row_partial_trace(row, keep).matrix.view(float)), keep


def test_partial_trace_rejects_one_keep_per_row():
    # one qubit list is shared by every row of a stack; a (rows, k) keep is no such list
    stack = random_stack(5, 3, np.random.default_rng(9), True)
    for keeps in ([(0, 3), (1, 2), (2, 4)], np.array([[0, 3], [1, 2], [2, 4]])):
        with pytest.raises(IndexError):
            pure_partial_trace(stack, keeps)


def _error(m):
    with pytest.raises(InvalidStateError) as info:
        DensityMatrix(m)
    return str(info.value)


@pytest.mark.parametrize("bad", [1, 3])
def test_bad_slice_raises_the_one_matrix_error(bad):
    good = pure_partial_trace(random_stack(4, 4, np.random.default_rng(bad), True), (0, 1)).matrix.copy()
    skew = good.copy()
    skew[bad, 0, 1] += 1e-6  # no longer Hermitian
    assert "not Hermitian" in _error(skew[bad])
    assert _error(skew) == _error(skew[bad])
    heavy = good.copy()
    heavy[bad] *= 1.01  # trace 1.01
    assert "trace is" in _error(heavy[bad])
    assert _error(heavy) == _error(heavy[bad])


def test_stack_entropy_sums_rows_with_zeros_as_vectors():
    # zeros are terms 0 log 1 = 0 in a vector as in a stack row, so a row with
    # zeros between its terms pairs them in the sum exactly as the vector does
    v = np.random.default_rng(1).random(8)
    spaced = np.zeros(16)
    spaced[::2] = v / v.sum()
    p = np.array([spaced, np.full(16, 1 / 16), np.eye(16)[3]])
    assert bits(shannon_entropy(p)) == bits([shannon_entropy(row) for row in p])
    assert bits(shannon_entropy(p[2:])) == bits([0.0])

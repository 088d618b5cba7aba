"""Concurrence: two-qubit spin-flip formula and the n-qubit purity-deficit bound."""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import CapacityError, NumericalConsistencyError
from .grover import CAPACITY_QUBITS, GroverConfig, SymmetricGAState, _require_domain
from .linalg import DensityMatrix

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)

RADICAND_TOL = 1e-10


def concurrence_two_qubit(rho2: DensityMatrix):
    """Spin-flip concurrence max{0, l1 - l2 - l3 - l4}; one value per matrix of a stack.

    The l_i are computed as eigenvalues of the Hermitian matrix
    sqrt(rho) rho_tilde sqrt(rho), which shares its spectrum with
    rho rho_tilde but avoids the ill-conditioned nonsymmetric solver.
    """
    if rho2.dim != 4:
        raise ValueError(f"two-qubit concurrence needs a 4x4 state, got dim {rho2.dim}")
    m = rho2.matrix
    tilde = _YY @ m.conj() @ _YY
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    sqrt_m = (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    herm = sqrt_m @ tilde @ sqrt_m
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(herm), 0.0, None))
    # [()] turns the 0-d result of one matrix back into a scalar
    return np.maximum(0.0, lam[..., 3] - lam[..., 2] - lam[..., 1] - lam[..., 0])[()]


def concurrence_two_qubit_ga(cfg: GroverConfig, st: SymmetricGAState):
    """Pairwise concurrence 2|ab - b^2| for the single-solution search."""
    _require_domain(cfg, "concurrence_two_qubit_ga", min_qubits=2)
    return 2.0 * np.abs(st.a * st.b - np.square(st.b))


def _multiqubit_radicand(n: int, st: SymmetricGAState):
    """sum_k C(n,k) (1 - Tr rho_k^2) over all cuts of the j=1 search state.

    The state is beta|+>^n + c|0>^n with beta = b sqrt(N) and c = a - b, a
    two-term product superposition: each k-qubit cut has the purity deficit
    2 beta^2 c^2 (1 - 2^-k)(1 - 2^-(n-k)), and the sum over cuts is
    2 beta^2 c^2 (2^n - 2 (3/2)^n + 1) (Carvalho, Mintert, Buchleitner,
    PRL 93, 230501, 2004). Nonnegative by construction.
    """
    beta = st.b * math.sqrt(2.0**n)
    c = st.a - st.b
    return 2.0 * np.square(beta * c) * (2.0**n - 2.0 * 1.5**n + 1.0)


def concurrence_multiqubit_ga(cfg: GroverConfig, st: SymmetricGAState):
    """Upper-bound n-qubit concurrence (2/sqrt(N)) sqrt(sum of purity deficits), j=1."""
    _require_domain(cfg, "concurrence_multiqubit_ga", min_qubits=2)
    return 2.0 / math.sqrt(cfg.database_size) * np.sqrt(_multiqubit_radicand(cfg.n, st))


# Amplitudes gathered per stacked Gram, summed over the rows of a stack: a
# block holds 2^14 >> n (cut, row) pairs, at least one. At n = 12 it was as
# fast as any block from 2^12 to 2^17 amplitudes; larger blocks only add to
# the peak memory.
BLOCK_AMPLITUDES = 1 << 14


@lru_cache(maxsize=None)
def _cut_places(n: int, k: int) -> tuple:
    """Indices of the kept and the other qubits of each k-qubit cut; qubit 0 is the top bit.

    Each cut is counted once, by its smaller side: every k-subset for
    k < n/2 and, for k = n/2, the subsets that hold qubit 0. Both arrays
    are int16, one row per cut, in ascending qubit order, and read-only.
    """
    first = (0,) if 2 * k == n else ()
    kept = [first + c for c in itertools.combinations(range(len(first), n), k - len(first))]
    rest = [[q for q in range(n) if q not in c] for c in kept]
    tables = np.array(kept, dtype=np.int16), np.array(rest, dtype=np.int16)
    for t in tables:
        t.setflags(write=False)  # shared by every caller through the cache
    return tables


def _spread(qubits: np.ndarray, n: int) -> np.ndarray:
    """t[c, x]: the sum of the place values 2^(n-1-q) of the qubits q in row c that the bits of x select."""
    t = np.zeros((qubits.shape[0], 1), dtype=np.int16)
    for q in qubits.T:
        t = np.concatenate([t, t + (1 << (n - 1 - q))[:, None]], axis=1)
    return t


def _exchange_labels(states: np.ndarray, n: int) -> np.ndarray:
    """Each qubit's class: the first earlier class representative whose swap with it leaves every row equal."""
    psi = states.reshape((-1,) + (2,) * n)
    labels = []
    for q in range(n):
        same = (p for p in dict.fromkeys(labels) if np.array_equal(psi, psi.swapaxes(1 + p, 1 + q)))
        labels.append(next(same, q))  # a qubit that matches no class opens its own
    return np.array(labels)


def _cut_keys(labels: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Each cut's class as one integer: the labels of its kept, then of its other qubits, as base-n digits.

    `keep` holds the kept qubits of one cut per row; each side is read in
    ascending qubit order. Labels lie below n, so the key is below
    n^n <= 12^12 < 2^63, and keys order as the label rows do
    lexicographically. Two cuts with one key map onto each other by a
    permutation within classes.
    """
    n = labels.size
    kept = np.zeros((keep.shape[0], n), dtype=bool)
    np.put_along_axis(kept, keep, True, axis=1)
    key = np.zeros(keep.shape[0], dtype=np.int64)
    for column in labels[np.argsort(~kept, axis=1, kind="stable")].T:  # kept qubits first
        key = key * n + column
    return key


def multiqubit_concurrence_pure(amplitudes: np.ndarray):
    """Brute-force purity-deficit concurrence: sums 1 - Tr rho_S^2 over every proper qubit subset S.

    A pure state gives a subset and its complement the same purity, so each
    cut is evaluated once, through its smaller side S of k <= n/2 qubits, and
    counted twice. For each k the cuts are gathered in blocks into a stack of
    2^k x 2^(n-k) matrices a (rows over S) and Tr rho_S^2 = sum |a a^dag|^2 is
    taken for the whole stack at once. Takes one state or a (rows, 2^n) stack,
    which shares each block's gather index, and gives one value per state; a
    real state is worked in real arithmetic.

    Qubits whose exchange leaves every row exactly equal form classes, found
    on the amplitudes. Two cuts whose kept and other qubits carry the same
    class labels in order map onto each other by a permutation within
    classes, which fixes the stack, so their gathered matrices are equal
    entry for entry: one Gram per class of cuts gives every cut's bits.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    size = amps.shape[-1]
    n = size.bit_length() - 1
    if 1 << n != size:
        raise ValueError(f"amplitude length {size} is not a power of two")
    if n > CAPACITY_QUBITS:
        raise CapacityError(f"subset enumeration capped at {CAPACITY_QUBITS} qubits, got {n}")
    states = amps.reshape(-1, size)
    labels = _exchange_labels(states, n)
    radicand = np.zeros(states.shape[0])
    real = ~states.imag.any(axis=1)
    for rows, group in ((real, states.real), (~real, states)):
        if rows.any() and n > 1:  # one qubit has no cut
            radicand[rows] = 2.0 * _deficit_sums(np.ascontiguousarray(group[rows]), n, labels)
    if np.any(radicand < -RADICAND_TOL):
        raise NumericalConsistencyError(f"negative radicand {radicand.min():.3e}")
    value = 2.0 / math.sqrt(size) * np.sqrt(np.maximum(radicand, 0.0))
    # [()] turns the 0-d result of one state back into a scalar
    return value.reshape(amps.shape[:-1])[()]


def _deficit_sums(states: np.ndarray, n: int, labels: np.ndarray) -> np.ndarray:
    """Each row's sum of 1 - Tr rho_S^2 over the cuts of _cut_places, in their order, one Gram per class."""
    tables, classes = [], []
    for k in range(1, n // 2 + 1):
        keep, rest = _cut_places(n, k)
        _, reps, inverse = np.unique(_cut_keys(labels, keep), return_index=True, return_inverse=True)
        classes.append(sum(t.shape[0] for t, _ in tables) + inverse)
        tables.append((_spread(keep[reps], n), _spread(rest[reps], n)))
    classes = np.concatenate(classes)
    pairs = max(1, BLOCK_AMPLITUDES >> n)  # (cut, row) pairs per gather
    sums = []
    for first in range(0, states.shape[0], pairs):
        rows = states[first : first + pairs]
        block = max(1, pairs // rows.shape[0])
        deficits = []
        for keep, rest in tables:
            for start in range(0, keep.shape[0], block):
                cuts = slice(start, start + block)
                a = rows.take(keep[cuts, :, None] + rest[cuts, None, :], axis=1)
                g = a @ a.conj().swapaxes(-1, -2)
                deficits.append(1.0 - (g * g.conj()).real.sum(axis=(-2, -1)))
        # take copies in C order, so each row adds its cuts in the order of one Gram per cut
        sums.append(np.concatenate(deficits, axis=1).take(classes, axis=1).sum(axis=1))
    return np.concatenate(sums)

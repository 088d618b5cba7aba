"""Dense complex-matrix substrate: states, entropies and partial traces.

A float64 stack of amplitudes or a float64 density matrix stays real; every
other input is taken as complex. All entropies are in bits (base-2
logarithms). The computational-basis index is the big-endian bit string of
qubit states: qubit 0 is the most significant bit of the basis index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
NORM_TOL = 1e-12
# Eigenvalues in (-EIG_CLIP, 0) are treated as exact zeros; anything more
# negative is rejected rather than silently accepted.
EIG_CLIP = 1e-10


def _dtype(x) -> type:
    """float for a float64 array, which stays real; complex for any other input."""
    return float if np.asarray(x).dtype == np.float64 else complex


def _clip_spectrum(eigenvalues: np.ndarray, context: str) -> np.ndarray:
    if not eigenvalues.min(initial=0.0) >= -EIG_CLIP:  # NaN fails too
        raise InvalidStateError(
            f"{context}: eigenvalue {eigenvalues.min():.3e} below -{EIG_CLIP:g}"
        )
    return np.clip(eigenvalues, 0.0, None)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 1:
            raise InvalidStateError("amplitudes must be a nonempty 1-d vector")
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm2 - 1.0) <= NORM_TOL:
            raise InvalidStateError(f"state not normalized: sum |a|^2 = {norm2!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


# Elements compared with the adjoint per block of rows. The temporaries of a
# whole 256 x 256 matrix are mapped afresh, page by page, on every check; in
# blocks of this size the check of such a matrix took half the time.
_ADJOINT_BLOCK = 1 << 13


def _adjoint_gap(m: np.ndarray) -> float:
    """max |m - m^dag| over a square matrix or a stack of them, taken in blocks of rows.

    |m_xy - conj(m_yx)| is symmetric in x and y, so the block of rows
    [s, s + rows) is compared only with the columns from s on: each pair
    once, and the same maximum.
    """
    d = m.shape[-1]
    rows = max(1, _ADJOINT_BLOCK * d // max(m.size, 1))
    gaps = [
        np.max(np.abs(m[..., s : s + rows, s:] - m[..., s:, s : s + rows].conj().swapaxes(-1, -2)), initial=0.0)
        for s in range(0, d, rows)
    ]
    return float(np.max(gaps))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace complex matrix, or a stack of them along leading axes.

    A float64 matrix is kept real: a real symmetric matrix is Hermitian.
    Hermiticity and trace are validated on construction, once for a whole
    stack. Positivity is enforced wherever the spectrum is actually
    computed, via the clipping rule in :func:`_clip_spectrum`. For a stack,
    `eigenvalues` and `purity` have one row or value per matrix.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=_dtype(self.matrix))
        if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
            raise InvalidStateError(f"density matrix must be square, got shape {m.shape}")
        # every check is `not <=`, so NaN fails it
        herm = _adjoint_gap(m)
        if not herm <= HERMITIAN_TOL:
            raise InvalidStateError(f"matrix not Hermitian: max |m - m^dag| = {herm:.3e}")
        tr = np.asarray(np.trace(m, axis1=-2, axis2=-1))
        off = ~(np.abs(tr - 1.0) <= TRACE_TOL)
        if np.any(off):
            raise InvalidStateError(f"trace is {tr[off][0]!r}, expected 1")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @classmethod
    def from_pure(cls, amplitudes) -> "DensityMatrix":
        if isinstance(amplitudes, PureState):
            return amplitudes.projector()
        return PureState(np.asarray(amplitudes)).projector()

    def eigenvalues(self) -> np.ndarray:
        """Real spectrum, ascending, with tiny negatives clipped to zero."""
        return _clip_spectrum(np.linalg.eigvalsh(self.matrix), "DensityMatrix spectrum")

    def purity(self):
        # [()] turns the 0-d result of one matrix back into a scalar
        return np.sum(np.abs(self.matrix) ** 2, axis=(-2, -1))[()]


def binary_entropy(x):
    """Binary Shannon entropy H(x) in bits, with H(0) = H(1) = 0; elementwise on arrays."""
    x = np.asarray(x, dtype=float)
    if not np.all((-NORM_TOL <= x) & (x <= 1.0 + NORM_TOL)):  # NaN fails too
        raise ValueError(f"binary_entropy argument outside [0, 1]: {x!r}")
    x = np.clip(x, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    # [()] turns the 0-d result of a scalar argument back into a scalar
    return np.where((x == 0.0) | (x == 1.0), 0.0, h)[()]


def shannon_entropy(probabilities):
    """Shannon entropy in bits (0 log 0 := 0) of a probability vector, or of each row of a stack."""
    p = _clip_spectrum(np.asarray(probabilities, dtype=float), "probability vector")
    h = -np.sum(p * np.log2(np.where(p > 0.0, p, 1.0)), axis=-1)
    # -0.0 and rounding below zero read 0; [()] turns a vector's 0-d result into a scalar
    return np.where(h <= 0.0, 0.0, h)[()]


def von_neumann_entropy(rho: DensityMatrix):
    """-Tr(rho log2 rho) evaluated on the clipped spectrum; one value per matrix of a stack."""
    return shannon_entropy(rho.eigenvalues())


def _check_keep(n: int, keep) -> tuple[int, ...]:
    keep = tuple(keep)
    if not keep:
        raise IndexError("keep must name at least one qubit")
    if any(not isinstance(q, (int, np.integer)) for q in keep):
        raise IndexError(f"keep indices must be integers, got {keep!r}")
    if list(keep) != sorted(set(keep)):
        raise IndexError(f"keep must be strictly increasing, got {keep!r}")
    if keep[0] < 0 or keep[-1] >= n:
        raise IndexError(f"keep {keep!r} out of range for {n} qubits")
    return keep


def _split(amplitudes: np.ndarray, keep) -> np.ndarray:
    """Pure n-qubit states (..., 2^n) as (..., 2^k, 2^(n-k)) matrices, rows over `keep`.

    `keep` is one strictly increasing qubit list, shared by every state. A
    float64 stack stays real.
    """
    amps = np.asarray(amplitudes, dtype=_dtype(amplitudes))
    lead, size = amps.shape[:-1], amps.shape[-1]
    n = size.bit_length() - 1
    if 1 << n != size:
        raise ValueError(f"amplitude length {size} is not a power of two")
    keep = _check_keep(n, keep)
    k = len(keep)
    axes = len(lead)
    moved = np.moveaxis(amps.reshape(lead + (2,) * n), [axes + q for q in keep], range(axes, axes + k))
    return moved.reshape(lead + (1 << k, 1 << (n - k)))


def pure_partial_trace(amplitudes: np.ndarray, keep) -> DensityMatrix:
    """Reduced state of a pure n-qubit state, or of each row of a stack, without the full projector.

    A float64 stack gives a real matrix, a a^T. np.conj copies a real a (the method a.conj()
    returns a itself), so numpy runs a GEMM: an array times its own transpose goes to its syrk
    path, one triangle and then a strided copy to the other, which took up to five times as long.
    """
    a = _split(amplitudes, keep)
    adjoint = np.conj(a).swapaxes(-1, -2)
    if a.shape[-1] == 1:  # the whole register: the outer product of each row
        return DensityMatrix(a * adjoint)
    return DensityMatrix(a @ adjoint)


def _schmidt_gram(amplitudes: np.ndarray, keep) -> np.ndarray:
    """The smaller of a a^dag and a^dag a for a = _split(amplitudes, keep).

    Both have the nonzero spectrum of rho_keep, so this Gram is at most
    min(2^k, 2^(n-k)) wide; it is 1 x 1 when `keep` is every qubit.
    """
    a = _split(amplitudes, keep)
    if a.shape[-2] <= a.shape[-1]:
        return a @ a.conj().swapaxes(-1, -2)
    return a.conj().swapaxes(-1, -2) @ a


def pure_subsystem_entropy(amplitudes: np.ndarray, keep):
    """S(rho_keep) in bits for a pure state, or each row of a stack, from the smaller Gram factor."""
    return shannon_entropy(np.linalg.eigvalsh(_schmidt_gram(amplitudes, keep)))

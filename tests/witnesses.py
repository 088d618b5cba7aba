"""Witnesses that the package itself no longer needs.

The identity suite works on amplitudes, so these general-state routines
live here, where tests use them as independent checks of the pure-state
and closed-form paths. The GGA closed-form averages and the phi-family
state pair are here for the same reason: only tests compare with them.
"""

import math

import numpy as np

from groverlab.gga import GGAClosedForm, PhiFamily, phi_family_distribution
from groverlab.linalg import (
    DensityMatrix,
    PureState,
    _check_keep,
    shannon_entropy,
    von_neumann_entropy,
)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduce an n-qubit state to the qubits in `keep` (strictly increasing)."""
    n = rho.n_qubits
    keep = _check_keep(n, keep)
    if len(keep) == n:
        return rho
    tensor = rho.matrix.reshape((2,) * (2 * n))
    row_idx = list(range(n))
    col_idx = [n + q if q in keep else q for q in range(n)]
    out_idx = [q for q in keep] + [n + q for q in keep]
    reduced = np.einsum(tensor, row_idx + col_idx, out_idx)
    k = len(keep)
    return DensityMatrix(reduced.reshape(2**k, 2**k))


def coherence_relative_entropy(rho: DensityMatrix) -> float:
    """S(rho_diag) - S(rho): distance to the nearest incoherent state, in bits."""
    diag = np.clip(rho.matrix.diagonal().real, 0.0, None)
    return max(0.0, shannon_entropy(diag) - von_neumann_entropy(rho))


def coherence_l1(rho: DensityMatrix) -> float:
    """Sum of the magnitudes of all off-diagonal entries."""
    m = np.abs(rho.matrix)
    return max(0.0, float(m.sum() - m.trace()))


def closed_form_averages(cf: GGAClosedForm, j: int, N: int, r: float) -> tuple[float, float]:
    """(kbar, lbar) predicted at (possibly continuous) iteration r."""
    phase = cf.omega * r + cf.beta
    return (
        cf.C / math.sqrt(j) * math.sin(phase),
        cf.C / math.sqrt(N - j) * math.cos(phase),
    )


def phi_family_states(fam: PhiFamily) -> tuple[PureState, PureState]:
    """(initial state as a length-N vector, optimal-time state k1|0> + k2|1>)."""
    return phi_family_distribution(fam), PureState(np.array([fam.k1, fam.k2], dtype=complex))

"""Dense density-matrix witnesses that the package itself no longer needs.

The identity suite works on amplitudes, so these general-state routines
live here, where tests use them as independent checks of the pure-state
and closed-form paths.
"""

import numpy as np

from groverlab.linalg import DensityMatrix, _check_keep, shannon_entropy, von_neumann_entropy


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

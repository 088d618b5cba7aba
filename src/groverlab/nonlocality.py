"""Bell-type nonlocality criteria: the two-qubit CHSH quantity M(rho) and
numerical maximization of the tripartite Svetlichny expectation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grover import GroverConfig, SymmetricGAState, _reduced_entries, _require_domain, reduced_density, state_at
from .linalg import DensityMatrix
from .optimizers import OptimizerConfig

_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

_PAIR_OPS = np.array([[np.kron(si, sj) for sj in _PAULI] for si in _PAULI])
_TRIPLE_OPS = np.array(
    [[[np.kron(np.kron(si, sj), sk) for sk in _PAULI] for sj in _PAULI] for si in _PAULI]
)

ENTRY_TOL = 1e-10
# The most (state, restart) pairs one Svetlichny block ascends at once.
_SVET_PAIRS = 1 << 12


@dataclass(frozen=True, eq=False)
class CorrelationTensor:
    """Pauli correlation expectations: 3x3 matrix (order 2) or 3x3x3 tensor (order 3).

    `entries` may carry leading axes: a stack of tensors, one per state.
    """

    order: int
    entries: np.ndarray

    def __post_init__(self):
        if self.order not in (2, 3):
            raise ValueError(f"order must be 2 or 3, got {self.order}")
        entries = np.ascontiguousarray(self.entries, dtype=float)
        if entries.shape[entries.ndim - self.order :] != (3,) * self.order:
            raise ValueError(f"expected shape {(3,) * self.order}, got {entries.shape}")
        if np.max(np.abs(entries), initial=0.0) > 1.0 + ENTRY_TOL:
            raise ValueError(f"correlation entry {np.max(np.abs(entries))!r} above 1")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


def correlation_matrix(rho2: DensityMatrix) -> CorrelationTensor:
    """T_ij = Tr rho (sigma_i x sigma_j), for one state or each of a stack."""
    if rho2.dim != 4:
        raise ValueError(f"correlation matrix needs a 4x4 state, got dim {rho2.dim}")
    t = np.einsum("ijab,...ba->...ij", _PAIR_OPS, rho2.matrix).real
    return CorrelationTensor(order=2, entries=t)


def correlation_tensor_3(rho3: DensityMatrix) -> CorrelationTensor:
    """All 27 expectations T_ijk = Tr(sigma_i x sigma_j x sigma_k rho), for one state or each of a stack."""
    if rho3.dim != 8:
        raise ValueError(f"tripartite tensor needs an 8x8 state, got dim {rho3.dim}")
    t = np.einsum("ijkab,...ba->...ijk", _TRIPLE_OPS, rho3.matrix).real
    return CorrelationTensor(order=3, entries=t)


def chsh_M(rho2: DensityMatrix):
    """Sum of the two largest eigenvalues of T^T T; CHSH is violated iff M > 1. One value per state of a stack."""
    t = correlation_matrix(rho2).entries
    u = np.linalg.eigvalsh(t.swapaxes(-1, -2) @ t)  # ascending
    # [()] turns the 0-d result of one state back into a scalar
    return (u[..., -1] + u[..., -2])[()]


def chsh_M_ga(cfg: GroverConfig, st: SymmetricGAState):
    """Closed-form M from the two-qubit reduced entries o0, o1, o2 (j=1); cross-check of chsh_M."""
    _require_domain(cfg, "chsh_M_ga", min_qubits=2)
    o0, o1, o2 = _reduced_entries(cfg.n, st, 2)
    lam1 = 2.0 * o2 - 2.0 * o1
    disc = (
        np.square(o0) + 20.0 * np.square(o1) + 25.0 * np.square(o2)
        - 4.0 * o0 * o1 - 6.0 * o0 * o2 - 20.0 * o1 * o2
    )
    root = np.sqrt(np.maximum(disc, 0.0))
    s = o0 + 2.0 * o1 + o2
    lam2 = (s - root) / 2.0
    lam3 = (s + root) / 2.0
    return np.where(lam1 <= lam2, np.square(lam2), np.square(lam1)) + np.square(lam3)


@dataclass(frozen=True, eq=False)
class SvetlichnySettings:
    """Unit measurement directions (a, a', b, b', c, c') of the three parties: (3,) vectors
    for one state, (states, 3) arrays for a stack."""

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray
    c: np.ndarray
    c_prime: np.ndarray


@dataclass(frozen=True, eq=False)
class SvetlichnyResult:
    """The best restart's value, settings, sweeps summed over all restarts, and whether the best
    restart converged: scalars for one state, columns with one entry per state for a stack."""

    value: float
    settings: SvetlichnySettings
    restarts: int
    optimizer_evals: int
    converged: bool


def _dot(u, v):
    uv = u * v
    return uv[..., 0, :] + uv[..., 1, :] + uv[..., 2, :]


def _party_fields(T, q, r):
    """Coefficient vectors (v, v') of one party's pair in S = P.v + P'.v'.

    T[i, j, k, p] has the party's index first; q and r are the other two
    parties' pairs in order, [0 or 1, component, pair p] like the result, and
    S = P[Q(R + R') + Q'(R - R')] + P'[Q(R - R') - Q'(R + R')]. Each sum runs
    elementwise over all pairs in a fixed order (k, then j), so a pair's
    result does not depend on how many pairs are stacked with it.
    """
    z = np.empty_like(r)
    np.add(r[0], r[1], out=z[0])
    np.subtract(r[0], r[1], out=z[1])
    # m[s, i, j, p] = sum_k T[i, j, k, p] z[s, k, p]
    m = T[:, :, 0] * z[:, None, None, 0]
    m += T[:, :, 1] * z[:, None, None, 1]
    m += T[:, :, 2] * z[:, None, None, 2]
    # w[t, s, i, p] = sum_j m[s, i, j, p] q[t, j, p]
    w = m[..., 0, :] * q[:, None, None, 0]
    w += m[..., 1, :] * q[:, None, None, 1]
    w += m[..., 2, :] * q[:, None, None, 2]
    fields = np.empty_like(r)
    np.add(w[0, 0], w[1, 1], out=fields[0])
    np.subtract(w[0, 1], w[1, 0], out=fields[1])
    return fields


def svetlichny_max_rows(
    rho3: DensityMatrix | CorrelationTensor, config: OptimizerConfig | None = None
) -> SvetlichnyResult:
    """Seeded multi-start maximization of <S> over all measurement settings
    for each state or order-3 tensor of a stack, as one columnar result.

    S is linear in each party's pair of directions, so with the other two
    pairs fixed the best pair is the normalized coefficient vectors (a zero
    vector keeps its direction). Each restart starts from six random unit
    vectors drawn from default_rng([seed, restart]) and sweeps
    A,A' -> B,B' -> C,C' until no direction moves by more than `refine_tol`
    in a sweep (converged) or `refine_maxiter` sweeps have run. The
    (state, restart) pairs run in lockstep, in blocks of at most
    `_SVET_PAIRS` pairs and at least one state's restarts, yet each pair's
    path does not depend on the others: a state's result is the same in any
    stack, and its value (a lower bound on the true maximum) is exactly
    monotone in the restart count. Since S -> -S under (a, a') -> (-a, -a'),
    this also maximizes |<S>|.
    """
    config = config or OptimizerConfig()
    tensor = rho3 if isinstance(rho3, CorrelationTensor) else correlation_tensor_3(rho3)
    if tensor.order != 3:
        raise ValueError("Svetlichny maximization needs order-3 tensors")
    entries, restarts = tensor.entries.reshape(-1, 3, 3, 3), config.restarts
    # starts[party, k, :, restart] is a, a', b, b', c, c' for (party, k) in order
    starts = np.stack([np.random.default_rng([config.seed, i]).normal(size=(3, 2, 3)) for i in range(restarts)], -1)
    starts /= np.sqrt(_dot(starts, starts))[..., None, :]
    others = ((1, 2), (0, 2), (0, 1))
    block = max(1, _SVET_PAIRS // restarts)
    best_value, best_evals = np.empty(len(entries)), np.empty(len(entries), dtype=int)
    best_converged, best_settings = np.empty(len(entries), dtype=bool), np.empty((6, len(entries), 3))
    for first in range(0, len(entries), block):
        states = entries[first : first + block]
        # tensors[party][..., pair] has the party's index first; pair = state * restarts + restart
        tensors = [np.repeat(np.moveaxis(states, (party + 1, 0), (0, -1)), restarts, axis=-1) for party in range(3)]
        vecs = np.tile(starts, len(states))
        fields = _party_fields(tensors[0], vecs[1], vecs[2])
        values = _dot(vecs[0, 0], fields[0]) + _dot(vecs[0, 1], fields[1])
        sweeps, converged = np.zeros(values.size, dtype=int), np.zeros(values.size, dtype=bool)
        active, x = np.arange(values.size), vecs.copy()
        for sweep in range(1, config.refine_maxiter + 1):
            last = x.copy()
            for party, (q, r) in enumerate(others):
                fields = _party_fields(tensors[party], x[q], x[r])
                norms = np.sqrt(_dot(fields, fields))
                np.divide(fields, norms[:, None], out=x[party], where=norms[:, None] > 0.0)
            done = np.max(np.abs(x - last), axis=(0, 1, 2)) <= config.refine_tol
            # the active pairs are written back and compacted only when some finish or the sweeps run out
            if done.any() or sweep == config.refine_maxiter:
                vecs[..., active], values[active], sweeps[active] = x, norms[0] + norms[1], sweep
                converged[active[done]] = True
                active, x, tensors = active[~done], x[..., ~done], [t[..., ~done] for t in tensors]
                if active.size == 0:
                    break
        rows = slice(first, first + len(states))
        best = np.arange(len(states)) * restarts + np.argmax(values.reshape(len(states), restarts), axis=1)
        best_value[rows], best_converged[rows] = values[best], converged[best]
        best_evals[rows] = sweeps.reshape(len(states), restarts).sum(axis=1)
        best_settings[:, rows] = vecs[..., best].reshape(6, 3, len(states)).transpose(0, 2, 1)
    settings = SvetlichnySettings(*best_settings)
    return SvetlichnyResult(best_value, settings, restarts, best_evals, best_converged)


def svetlichny_max(rho3: DensityMatrix | CorrelationTensor, config: OptimizerConfig | None = None) -> SvetlichnyResult:
    """svetlichny_max_rows of one three-qubit state or order-3 tensor, its columns read at their one row."""
    tensor = rho3 if isinstance(rho3, CorrelationTensor) else correlation_tensor_3(rho3)
    if tensor.entries.shape != (3, 3, 3):
        raise ValueError("Svetlichny maximization needs one order-3 tensor")
    res = svetlichny_max_rows(tensor, config)
    settings = SvetlichnySettings(*(v[0] for v in vars(res.settings).values()))
    return SvetlichnyResult(res.value.item(), settings, res.restarts, res.optimizer_evals.item(), res.converged.item())


def svetlichny_max_series(cfg: GroverConfig, st: SymmetricGAState, config: OptimizerConfig | None = None):
    """svetlichny_max_rows of the structured three-qubit reduced state at each row of a series state (j=1)."""
    _require_domain(cfg, "svetlichny_max_series", min_qubits=3)
    return svetlichny_max_rows(reduced_density(cfg, st, 3), config)


def svetlichny_max_ga(cfg: GroverConfig, r: int, config: OptimizerConfig | None = None) -> SvetlichnyResult:
    """Svetlichny maximization on the structured three-qubit reduced state (j=1)."""
    _require_domain(cfg, "svetlichny_max_ga", min_qubits=3)
    return svetlichny_max(reduced_density(cfg, state_at(cfg, r), 3), config)

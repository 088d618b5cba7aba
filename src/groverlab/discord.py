"""Quantum discord: pairwise projective-measurement minimization and the
genuine multipartite correlation of the pure search state."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, NumericalConsistencyError, UnsupportedStructureError
from .grover import (
    CAPACITY_QUBITS,
    GroverConfig,
    SymmetricGAState,
    _reduced_matrix,
    _require_leading_single_solution,
    reduced_density,
    state_at,
)
from .linalg import DensityMatrix, _clip_spectrum, von_neumann_entropy
from .nonlocality import _PAULI
from .optimizers import OptimizerConfig

_TINY = 1e-300

DELTA_TOL = 1e-10


@dataclass(frozen=True)
class DiscordSolution:
    """Minimized discord with the optimal measurement angles on subsystem B."""

    value: float
    theta: float
    phi: float
    optimizer_evals: int
    converged: bool

    def __post_init__(self):
        if self.value < -1e-9:
            raise NumericalConsistencyError(f"discord {self.value:.3e} below -1e-9")


def _subtract_block_entropy(total: np.ndarray, p: np.ndarray, det: np.ndarray) -> None:
    """total -= sum_k lam_k log2(lam_k / p), lam_k the eigenvalues of 2x2 blocks of trace p, determinant det."""
    gap = np.sqrt(np.clip(p * p - 4.0 * det, 0.0, None))
    for lam in ((p + gap) / 2.0, (p - gap) / 2.0):
        lam = np.clip(lam, 0.0, None)
        ratio = lam / np.clip(p, _TINY, None)
        total -= lam * np.log2(np.clip(ratio, _TINY, None))


_BLOCK_OPS = np.stack([np.eye(2, dtype=complex), *_PAULI])


def _bloch_blocks(rho: np.ndarray) -> tuple:
    """(P, R) of a stack of two-qubit states: P = rho_A / 2, R[:, k] = Tr_B[(1 x sigma_k) rho] / 2.

    Each 2x2 Hermitian block is stored as its (00, 11, Re 01, Im 01) entries.
    Measuring B along the Bloch vector n leaves A in the unnormalized states
    P + n.R and P - n.R (Luo, PRA 77, 042303, 2008).
    """
    # m[i, k, a, a'] = sum_{b, b'} sigma_k[b, b'] rho[i, (a, b'), (a', b)] / 2
    m = np.einsum("kcd,iadbc->ikab", _BLOCK_OPS, rho.reshape(-1, 2, 2, 2, 2)) / 2.0
    blocks = np.stack([m[..., 0, 0].real, m[..., 1, 1].real, m[..., 0, 1].real, m[..., 0, 1].imag], axis=-1)
    return blocks[:, 0], blocks[:, 1:]


def _conditional_entropy(P: np.ndarray, R: np.ndarray, n: np.ndarray) -> np.ndarray:
    """sum_i p_i S(rho_{A|i}) at the unit Bloch vectors n (rows, k, d), row i of n measuring B of state i.

    n runs along the first d directions of R (`_bloch_blocks`), so R[:, ::2]
    with n = (sin w, cos w) measures on the x-z circle at Bloch angle w.
    """
    turn = n[..., 0, None] * R[:, None, 0]
    for k in range(1, n.shape[-1]):
        turn = turn + n[..., k, None] * R[:, None, k]
    total = np.zeros(n.shape[:-1])
    for m in (P[:, None] + turn, P[:, None] - turn):
        det = m[..., 0] * m[..., 1] - m[..., 2] * m[..., 2] - m[..., 3] * m[..., 3]
        _subtract_block_entropy(total, m[..., 0] + m[..., 1], det)
    return total


_STENCIL = np.arange(-2.0, 3.0)


def _stencil(theta: float, phi: float, h: float):
    """(theta, phi, unit Bloch vector) of each point of a 5x5 stencil of spacing h around (theta, phi).

    The stencil lies in the tangent plane of the measurement's Bloch vector
    (polar angle 2 theta, azimuth phi), so it stays regular at the poles,
    where phi alone would not move the measurement. The returned angles have
    theta in [0, pi/2]; (theta, phi) and (pi - theta, phi + pi) are the same
    measurement.
    """
    ct, st = math.cos(2.0 * theta), math.sin(2.0 * theta)
    cp, sp = math.cos(phi), math.sin(phi)
    bloch = np.array([st * cp, st * sp, ct])
    e_theta = np.array([ct * cp, ct * sp, -st])
    e_phi = np.array([-sp, cp, 0.0])
    u = h * _STENCIL[:, None, None]
    v = h * _STENCIL[None, :, None]
    m = (bloch + u * e_theta + v * e_phi).reshape(-1, 3)
    thetas = 0.5 * np.arctan2(np.hypot(m[:, 0], m[:, 1]), m[:, 2])
    return thetas, np.arctan2(m[:, 1], m[:, 0]), m / np.linalg.norm(m, axis=-1, keepdims=True)


def _entropy_rows(eigenvalues: np.ndarray) -> np.ndarray:
    """von_neumann_entropy of each row's spectrum: the clipped eigenvalues, 0 log 0 = 0."""
    p = _clip_spectrum(eigenvalues, "DensityMatrix spectrum")
    return np.maximum(0.0, -np.sum(p * np.log2(np.where(p > 0.0, p, 1.0)), axis=-1))


def _discord_values(best: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """best + S(rho_B) - S(rho_AB) for a stack of two-qubit states, a value in [-1e-9, 0) taken as 0."""
    s_ab = _entropy_rows(np.linalg.eigvalsh(rho))
    s_b = _entropy_rows(np.linalg.eigvalsh(np.einsum("iabad->ibd", rho.reshape(-1, 2, 2, 2, 2))))
    value = best + s_b - s_ab
    value[(-1e-9 <= value) & (value < 0.0)] = 0.0
    return value


def pairwise_discord(rho2: DensityMatrix, config: OptimizerConfig | None = None) -> DiscordSolution:
    """Discord of a two-qubit state with projective measurement on subsystem B.

    D = min_{theta,phi} sum_i p_i S(rho_{A|i}) + S(rho_B) - S(rho_AB), the
    measurement (theta, phi) being B's Bloch vector
    (sin 2 theta cos phi, sin 2 theta sin phi, cos 2 theta).
    The minimization runs a coarse grid (theta_grid x phi_grid; with an even
    phi_grid only its rows theta <= pi/2, as the others repeat them), then refines
    on a 5x5 stencil around the best point, starting from the grid's spacing
    on the Bloch sphere and halving it at each level. The stencil holds the
    current point and a move needs a strict improvement, so refinement never
    worsens the grid optimum. It converges when the spacing reaches
    `refine_tol`; after `refine_maxiter` levels it stops unconverged,
    reported through `converged`, never as an exception. The angles are
    reported with theta in [0, pi] and phi in [0, 2 pi).
    """
    if rho2.dim != 4:
        raise ValueError(f"pairwise discord needs a 4x4 state, got dim {rho2.dim}")
    config = config or OptimizerConfig()
    rho = rho2.matrix[None]
    P, R = _bloch_blocks(rho)

    thetas = np.linspace(0.0, math.pi, config.theta_grid, endpoint=False)
    if config.phi_grid % 2 == 0:  # phi + pi is on the grid: row pi - theta repeats row theta
        thetas = thetas[: config.theta_grid // 2 + 1]
    phis = np.linspace(0.0, 2.0 * math.pi, config.phi_grid, endpoint=False)
    TH, PH = (a.ravel() for a in np.meshgrid(thetas, phis, indexing="ij"))
    bloch = np.stack([np.sin(2.0 * TH) * np.cos(PH), np.sin(2.0 * TH) * np.sin(PH), np.cos(2.0 * TH)], axis=-1)
    grid = _conditional_entropy(P, R, bloch[None])[0]
    i = int(np.argmin(grid))
    best_cond, best_theta, best_phi = float(grid[i]), float(TH[i]), float(PH[i])
    evals = grid.size

    h = max(2.0 * math.pi / config.theta_grid, 2.0 * math.pi / config.phi_grid)
    for _ in range(config.refine_maxiter):
        if h <= config.refine_tol:
            break
        stencil_thetas, stencil_phis, bloch = _stencil(best_theta, best_phi, h)
        values = _conditional_entropy(P, R, bloch[None])[0]
        evals += values.size
        i = int(np.argmin(values))
        if values[i] < best_cond:
            best_cond = float(values[i])
            best_theta, best_phi = float(stencil_thetas[i]), float(stencil_phis[i])
        h /= 2.0
    converged = config.refine_maxiter == 0 or h <= config.refine_tol
    best_phi %= 2.0 * math.pi
    if best_phi == 2.0 * math.pi:  # a tiny negative azimuth rounds up to 2 pi
        best_phi = 0.0

    value = float(_discord_values(np.array([best_cond]), rho)[0])
    return DiscordSolution(
        value=value, theta=best_theta, phi=best_phi, optimizer_evals=evals, converged=converged
    )


def pairwise_discord_series(cfg: GroverConfig, st: SymmetricGAState, config: OptimizerConfig | None = None) -> list:
    """pairwise_discord of the structured two-qubit state at every r of a series (j=1, n >= 2).

    The reduced states are real, so the conditional entropy is even in the
    measurement's Bloch y component and the x-z great circle (phi = 0) is
    stationary in it; the search runs on that circle alone. A coarse grid of
    Bloch angles (spacing 2 pi / theta_grid, each measurement once) covers
    every row in one call; then a 5-point stencil around each row's best
    angle refines all rows in lockstep, halving the spacing at each level,
    with a move needing a strict improvement, until the spacing reaches
    `refine_tol` or `refine_maxiter` levels ran. Each row's arithmetic is
    its own, so a row's result does not depend on the rest of the series.
    Returns one DiscordSolution per r, with phi = 0 and theta in [0, pi].
    """
    _require_leading_single_solution(cfg, "pairwise_discord_series")
    config = config or OptimizerConfig()
    rho = _reduced_matrix(cfg.n, st, 2, dtype=float).reshape(-1, 4, 4)
    rows = np.arange(rho.shape[0])
    P, R = _bloch_blocks(rho)
    R = R[:, ::2]  # the x and z blocks: the circle's Bloch vector is (sin w, cos w)

    def circle(w):
        return _conditional_entropy(P, R, np.stack([np.sin(w), np.cos(w)], axis=-1))

    angles = np.linspace(0.0, 2.0 * math.pi, config.theta_grid, endpoint=False)
    angles = angles[angles < math.pi]  # w and w + pi are one measurement
    grid = circle(np.broadcast_to(angles, (rows.size, angles.size)))
    best = grid.argmin(axis=1)
    best_cond, best_w = grid[rows, best], angles[best]
    evals = angles.size

    h = 2.0 * math.pi / config.theta_grid
    for _ in range(config.refine_maxiter):
        if h <= config.refine_tol:
            break
        w = best_w[:, None] + h * _STENCIL
        values = circle(w)
        evals += _STENCIL.size
        i = values.argmin(axis=1)
        better = values[rows, i] < best_cond
        best_cond = np.where(better, values[rows, i], best_cond)
        best_w = np.where(better, w[rows, i], best_w)
        h /= 2.0
    converged = config.refine_maxiter == 0 or h <= config.refine_tol

    value = _discord_values(best_cond, rho)
    thetas = (best_w % (2.0 * math.pi)) / 2.0
    return [
        DiscordSolution(value=v, theta=t, phi=0.0, optimizer_evals=evals, converged=converged)
        for v, t in zip(value.tolist(), thetas.tolist())
    ]


def pairwise_discord_ga(cfg: GroverConfig, r: int, config: OptimizerConfig | None = None) -> DiscordSolution:
    """pairwise_discord_series at the one iteration r."""
    return pairwise_discord_series(cfg, state_at(cfg, [r]), config)[0]


def genuine_discord_ga(cfg: GroverConfig, st: SymmetricGAState):
    """Genuine n-partite correlation S(rho_1) = H(p) for j=1.

    rho_1 has the eigenvalues (1 +- sqrt(1 - x))/2 with x = 4(2^(n-1) - 1)(ab - b^2)^2.
    The small one is taken as p = x / (2(1 + sqrt(1 - x))) and H(p) with
    log1p for its (1 - p) term, so neither loses digits when p is small.
    """
    if cfg.j != 1:
        raise UnsupportedStructureError(f"genuine discord closed form requires j=1, got j={cfg.j}")
    gap = st.a * st.b - np.square(st.b)
    # multiplied in this order, x stays a normal float up to n = 1022
    x = 4.0 * (2.0 ** (cfg.n - 1) - 1.0) * gap * gap
    if np.any((x < -DELTA_TOL) | (x > 1.0 + DELTA_TOL)):
        raise NumericalConsistencyError(f"discriminant outside [0, 1]: {1.0 - x!r}")
    x = np.clip(x, 0.0, 1.0)
    p = x / (2.0 * (1.0 + np.sqrt(1.0 - x)))
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -p * np.log2(p) - (1.0 - p) * np.log1p(-p) / math.log(2.0)
    # [()] turns the 0-d result of a scalar state back into a scalar
    return np.where(p == 0.0, 0.0, h)[()]


@lru_cache(maxsize=None)
def _partitions_with_two_parts(n: int) -> tuple[tuple[int, ...], ...]:
    """Descending integer partitions of n with at least two parts."""

    def gen(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - part, part):
                yield (part,) + rest

    return tuple(p for p in gen(n, n - 1))


def _block_entropies(cfg: GroverConfig, rs) -> dict:
    """S(rho_k) for k = 1..n-1 at each r of rs, one array per k.

    Permutation symmetry of the search state makes block entropies depend
    only on block size. The global state is pure, so S(rho_k) = S(rho_{n-k}):
    only k <= n/2 is evaluated, by exact diagonalization of the materialized
    reduced matrices, one stacked spectrum per k of the series state of rs.
    """
    if cfg.n > CAPACITY_QUBITS:
        raise CapacityError(f"partition minimization capped at {CAPACITY_QUBITS} qubits, got n={cfg.n}")
    st = state_at(cfg, np.ravel(rs))
    half = {k: von_neumann_entropy(reduced_density(cfg, st, k)) for k in range(1, cfg.n // 2 + 1)}
    return {k: half[min(k, cfg.n - k)] for k in range(1, cfg.n)}


def genuine_discord_partition_minima(cfg: GroverConfig, rs) -> np.ndarray:
    """Half the least sum_i S(rho_{k_i}) over the partitions of n (two or more blocks) at each r of rs.

    Block entropies depend only on block size, so compositions collapse to
    integer partitions (`_block_entropies`); one numpy pass per partition.
    """
    entropy = _block_entropies(cfg, rs)
    totals = [sum(entropy[k] for k in parts) for parts in _partitions_with_two_parts(cfg.n)]
    return np.min(totals, axis=0) / 2.0

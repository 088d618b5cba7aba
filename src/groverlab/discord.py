"""Quantum discord: pairwise projective-measurement minimization and the
genuine multipartite correlation of the pure search state."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import CapacityError, NumericalConsistencyError
from .grover import (
    CAPACITY_QUBITS,
    GroverConfig,
    SymmetricGAState,
    _require_domain,
    reduced_density,
    state_at,
)
from .linalg import DensityMatrix, shannon_entropy, von_neumann_entropy
from .nonlocality import _PAULI
from .optimizers import OptimizerConfig

_TINY = 1e-300

DELTA_TOL = 1e-10


@dataclass(frozen=True)
class DiscordSolution:
    """Minimized discord with the optimal measurement angles on subsystem B: floats for one
    state, columns with one entry per state for a stack. The evaluations and `converged`
    hold for every state, as the states of a stack are searched in lockstep."""

    value: float
    theta: float
    phi: float
    optimizer_evals: int
    converged: bool

    def __post_init__(self):
        least = np.min(self.value, initial=np.inf)
        if least < -1e-9:
            raise NumericalConsistencyError(f"discord {least:.3e} below -1e-9")

    def first(self) -> "DiscordSolution":
        """The solution of the first state of a stack, with float fields."""
        return replace(self, value=self.value.item(0), theta=self.theta.item(0), phi=self.phi.item(0))


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
    """sum_i p_i S(rho_{A|i}) at the unit Bloch vectors n (rows, k, d) along the first d directions of R,
    row i of n measuring B of state i."""
    # turn[c, i, g] = sum_k R[i, k, c] n[i, g, k]: each product runs over all rows i and points g
    Rc = R.transpose(2, 1, 0)[..., None]
    turn = Rc[:, 0] * n[..., 0]
    for k in range(1, n.shape[-1]):
        turn += Rc[:, k] * n[..., k]
    m = np.empty((2, *turn.shape))  # the blocks P + n.R and P - n.R, entry c second
    np.add(P.T[..., None], turn, out=m[0])
    np.subtract(P.T[..., None], turn, out=m[1])
    p, det = m[:, 0] + m[:, 1], m[:, 0] * m[:, 1] - m[:, 2] * m[:, 2] - m[:, 3] * m[:, 3]
    gap = np.sqrt(np.maximum(p * p - 4.0 * det, 0.0))
    lam = np.empty((2, 2, *p.shape[1:]))  # lam[b, k] = block b's eigenvalues, the larger first
    np.add(p, gap, out=lam[:, 0])
    np.subtract(p, gap, out=lam[:, 1])
    lam /= 2.0
    np.maximum(lam, 0.0, out=lam)
    terms = lam * np.log2(np.maximum(lam / np.maximum(p, _TINY)[:, None], _TINY))
    return 0.0 - terms[0, 0] - terms[0, 1] - terms[1, 0] - terms[1, 1]  # in the order of lam


_STENCIL = np.arange(-2.0, 3.0)

# Grid points one block of rows holds in every temporary of the search: 15
# rows of the default 2,176-point hemisphere, so the memory of a long stack
# does not grow with its row count.
_SEARCH_POINTS = 2**15


def _sphere_stencil(at: np.ndarray, h: float):
    """(theta, phi) and unit Bloch vector of each point of a 5x5 stencil of spacing h around each row's (theta, phi).

    The stencil lies in the tangent plane of the measurement's Bloch vector
    (polar angle 2 theta, azimuth phi), so it stays regular at the poles,
    where phi alone would not move the measurement. The angles have theta in
    [0, pi/2]; (theta, phi) and (pi - theta, phi + pi) are one measurement.
    """
    cs = np.empty((len(at), 2, 2))  # cs[row] = (cos, sin) of 2 theta, then of phi
    np.cos(at * (2.0, 1.0), out=cs[..., 0])
    np.sin(at * (2.0, 1.0), out=cs[..., 1])
    frame = np.zeros((len(at), 3, 3))  # frame[row] = the Bloch vector, its unit theta and phi tangents
    np.multiply(cs[:, 0, ::-1, None], cs[:, 1, None], out=frame[:, :2, :2])  # (sin, cos) 2 theta x (cos, sin) phi
    np.multiply(cs[:, 0], (1.0, -1.0), out=frame[:, :2, 2])  # z components: cos 2 theta, -sin 2 theta
    np.multiply(cs[:, 1, ::-1], (-1.0, 1.0), out=frame[:, 2, :2])  # e_phi = (-sin phi, cos phi, 0)
    f, steps = frame[:, None, None], h * _STENCIL
    m = (f[..., 0, :] + steps[:, None, None] * f[..., 1, :] + steps[:, None] * f[..., 2, :]).reshape(len(at), -1, 3)
    angles = np.empty((*m.shape[:-1], 2))
    np.arctan2(np.hypot(m[..., 0], m[..., 1]), m[..., 2], out=angles[..., 0])
    angles[..., 0] *= 0.5
    np.arctan2(m[..., 1], m[..., 0], out=angles[..., 1])
    m /= np.sqrt(np.add.reduce(m * m, axis=-1, keepdims=True))  # the bits of np.linalg.norm
    return angles, m


def _search(stack: np.ndarray, grid: tuple, h: float, config: OptimizerConfig):
    """Discord of a (rows, 4, 4) stack of two-qubit states, each minimized over B's measurements, all in lockstep.

    Each row starts at the best point of `grid`, (angles (g, 2), unit Bloch
    vectors (g, 3)); then `_sphere_stencil(best, h)` gives each row's points
    around its best angles, and a move needs a strict improvement, so
    refinement never worsens the grid optimum. h halves at each level until it
    reaches `refine_tol` (converged) or `refine_maxiter` levels ran. Blocks of
    rows hold at most `_SEARCH_POINTS` grid points (at least one row), and no
    row's arithmetic depends on the other rows or on the blocks. A value in
    [-1e-9, 0) is taken as 0. Returns (values, best (rows, 2), evals, converged).
    """
    spacings = []
    while len(spacings) < config.refine_maxiter and h > config.refine_tol:
        spacings.append(h)
        h /= 2.0
    params, units = grid
    block = max(1, _SEARCH_POINTS // len(units))
    values, best = [np.zeros(0)], [np.zeros((0, 2))]
    for start in range(0, len(stack), block):
        rho = stack[start : start + block]
        P, R = _bloch_blocks(rho)
        row = np.arange(len(rho))
        cond = _conditional_entropy(P, R, np.broadcast_to(units, (len(rho), *units.shape)))
        i = cond.argmin(axis=1)
        low, at = cond[row, i], params[i]
        for step in spacings:
            points, n = _sphere_stencil(at, step)
            cond = _conditional_entropy(P, R, n)
            i = cond.argmin(axis=1)
            least = cond[row, i]
            better = least < low
            low = np.where(better, least, low)
            at = np.where(better[:, None], points[row, i], at)
        s_ab = shannon_entropy(np.linalg.eigvalsh(rho))
        s_b = shannon_entropy(np.linalg.eigvalsh(np.einsum("iabad->ibd", rho.reshape(-1, 2, 2, 2, 2))))
        values.append(low + s_b - s_ab)
        best.append(at)
    value = np.concatenate(values)
    value[(-1e-9 <= value) & (value < 0.0)] = 0.0
    evals = len(units) + len(spacings) * _STENCIL.size**2  # a stencil has 5 points along each angle
    return value, np.concatenate(best), evals, config.refine_maxiter == 0 or h <= config.refine_tol


def pairwise_discord_rows(rho: DensityMatrix, config: OptimizerConfig | None = None) -> DiscordSolution:
    """pairwise_discord of each state of a stack of two-qubit states, all searched at once, as one columnar result."""
    if rho.dim != 4:
        raise ValueError(f"pairwise discord needs a 4x4 state, got dim {rho.dim}")
    config = config or OptimizerConfig()
    stack = rho.matrix.reshape(-1, 4, 4)
    # Bloch polar angles 2 theta <= pi/2: n and -n are one measurement, so one hemisphere holds them all
    thetas = np.linspace(0.0, math.pi, config.theta_grid, endpoint=False)[: config.theta_grid // 4 + 1]
    phis = np.linspace(0.0, 2.0 * math.pi, config.phi_grid, endpoint=False)
    TH, PH = (a.ravel() for a in np.meshgrid(thetas, phis, indexing="ij"))
    bloch = np.stack([np.sin(2.0 * TH) * np.cos(PH), np.sin(2.0 * TH) * np.sin(PH), np.cos(2.0 * TH)], axis=-1)
    h = max(2.0 * math.pi / config.theta_grid, 2.0 * math.pi / config.phi_grid)
    values, best, evals, converged = _search(stack, (np.stack([TH, PH], axis=-1), bloch), h, config)
    phis = best[:, 1] % (2.0 * math.pi)
    phis[phis == 2.0 * math.pi] = 0.0  # a tiny negative azimuth rounds up to 2 pi
    return DiscordSolution(values, best[:, 0], phis, evals, converged)


def pairwise_discord(rho2: DensityMatrix, config: OptimizerConfig | None = None) -> DiscordSolution:
    """Discord of a two-qubit state with projective measurement on subsystem B.

    D = min_{theta,phi} sum_i p_i S(rho_{A|i}) + S(rho_B) - S(rho_AB), the
    measurement (theta, phi) being B's Bloch vector
    (sin 2 theta cos phi, sin 2 theta sin phi, cos 2 theta), minimized by
    `_search` from the grid rows theta <= pi/4 (one Bloch hemisphere, as n
    and -n are one measurement). An unconverged search is reported through
    `converged`, never as an exception. The angles are reported with theta in
    [0, pi] and phi in [0, 2 pi). The one-state case of `pairwise_discord_rows`.
    """
    return pairwise_discord_rows(rho2, config).first()


def pairwise_discord_ga(cfg: GroverConfig, r: int, config: OptimizerConfig | None = None) -> DiscordSolution:
    """pairwise_discord of the structured pair `reduced_density(cfg, state_at(cfg, r), 2)`: the sphere
    search that checks `pairwise_discord_closed_form` (j = 2^k leading solutions, n - k >= 2)."""
    return pairwise_discord(reduced_density(cfg, state_at(cfg, r), 2), config)


def _small_eigenvalue_entropy(x, q=1.0) -> tuple:
    """(p, H(p) + p log2 q) of the spectrum (1 -+ sqrt(1 - x))/2, x = 4 det in [0, 1]: the small eigenvalue
    p = x / (2(1 + sqrt(1 - x))), H's (1 - p) term with log1p and its p term as -p log2(p / q), so none
    loses digits when p is small; both are 0 where p is. q = 1 gives H(p) itself."""
    if np.any((x < -DELTA_TOL) | (x > 1.0 + DELTA_TOL)):
        raise NumericalConsistencyError(f"discriminant outside [0, 1]: {1.0 - x!r}")
    x = np.clip(x, 0.0, 1.0)
    p = x / (2.0 * (1.0 + np.sqrt(1.0 - x)))
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -p * np.log2(p / q) - (1.0 - p) * np.log1p(-p) / math.log(2.0)
    return p, np.where(p == 0.0, 0.0, h)


def pairwise_discord_closed_form(cfg: GroverConfig, st: SymmetricGAState):
    """pairwise_discord of qubits 0 and 1 in closed form, for j = 2^k leading solutions and z = n - k >= 2.

    The state is beta |+>^n + c |0>^z |+>^k (beta = sqrt(N) b, c = a - sqrt(j) b), and
    R, the other z - 2 differing qubits, holds two states. So D(A|B) = S(B) - S(AB) +
    E_F(rho_AR) (M. Koashi and A. Winter, PRA 69, 022309, 2004), each term the entropy
    of a two-level spectrum with x = 4 det: x_B = 2q(1 - 2^(1-z)), x_AB = 3q(1 - 2^(2-z))
    and Wootters' squared concurrence x_E = q(1 - 2^(2-z)) (PRL 80, 2245, 1998), with
    q = beta^2 c^2. As p(1 - p) = x/4, the signed sum of the small eigenvalues is q 2^-z
    plus their signed squares: the log2 q parts of the -p log2 p terms are taken from
    it, so a small d2 cancels no digits.
    """
    z = cfg.n - _require_domain(cfg, "pairwise_discord_closed_form", 2, power_of_two=True)
    c = st.a - math.sqrt(cfg.j) * st.b
    q = float(cfg.database_size) * st.b * st.b * c * c  # in this order no factor leaves the normal range before q
    terms = ((1.0, 2.0 * (1.0 - 2.0 ** (1 - z))), (-1.0, 3.0 * (1.0 - 2.0 ** (2 - z))), (1.0, 1.0 - 2.0 ** (2 - z)))
    value, mass = 0.0, q * 2.0**-z
    for sign, weight in terms:  # S(B), -S(AB) and E_F, each with x = weight q
        p, h = _small_eigenvalue_entropy(weight * q, q)
        value, mass = value + sign * h, mass + sign * p * p
    # every term is 0 where q is; [()] turns the 0-d result of a scalar state back into a scalar
    return (value - np.log2(np.where(q > 0.0, q, 1.0)) * mass)[()]


def genuine_discord_ga(cfg: GroverConfig, st: SymmetricGAState):
    """Genuine n-partite correlation S(rho_1) = H(p) for j=1.

    rho_1 has the eigenvalues (1 +- sqrt(1 - x))/2 with x = 4(2^(n-1) - 1)(ab - b^2)^2,
    its entropy taken by `_small_eigenvalue_entropy`.
    """
    _require_domain(cfg, "genuine_discord_ga")
    gap = st.a * st.b - np.square(st.b)
    # multiplied in this order, x stays a normal float up to n = 1022
    x = 4.0 * (2.0 ** (cfg.n - 1) - 1.0) * gap * gap
    return _small_eigenvalue_entropy(x)[1][()]


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
    _require_domain(cfg, "genuine_discord_partition_minima")
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

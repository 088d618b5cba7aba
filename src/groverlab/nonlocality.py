"""Bell-type nonlocality criteria: the two-qubit CHSH quantity M(rho) and
numerical maximization of the tripartite Svetlichny expectation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import UnsupportedStructureError
from .grover import GroverConfig, SymmetricGAState, _reduced_entries, reduced_density, state_at
from .linalg import DensityMatrix
from .optimizers import OptimizerConfig, restart_rng

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


@dataclass(frozen=True, eq=False)
class CorrelationTensor:
    """Pauli correlation expectations: 3x3 matrix (order 2) or 3x3x3 tensor (order 3)."""

    order: int
    entries: np.ndarray

    def __post_init__(self):
        if self.order not in (2, 3):
            raise ValueError(f"order must be 2 or 3, got {self.order}")
        entries = np.ascontiguousarray(self.entries, dtype=float)
        if entries.shape != (3,) * self.order:
            raise ValueError(f"expected shape {(3,) * self.order}, got {entries.shape}")
        if np.max(np.abs(entries)) > 1.0 + ENTRY_TOL:
            raise ValueError(f"correlation entry {np.max(np.abs(entries))!r} above 1")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


def correlation_matrix(rho2: DensityMatrix) -> CorrelationTensor:
    """T_ij = Tr rho (sigma_i x sigma_j)."""
    if rho2.dim != 4:
        raise ValueError(f"correlation matrix needs a 4x4 state, got dim {rho2.dim}")
    t = np.einsum("ijab,ba->ij", _PAIR_OPS, rho2.matrix).real
    return CorrelationTensor(order=2, entries=t)


def correlation_tensor_3(rho3: DensityMatrix) -> CorrelationTensor:
    """All 27 expectations T_ijk = Tr(sigma_i x sigma_j x sigma_k rho)."""
    if rho3.dim != 8:
        raise ValueError(f"tripartite tensor needs an 8x8 state, got dim {rho3.dim}")
    t = np.einsum("ijkab,ba->ijk", _TRIPLE_OPS, rho3.matrix).real
    return CorrelationTensor(order=3, entries=t)


def chsh_M(rho2: DensityMatrix) -> float:
    """Sum of the two largest eigenvalues of T^T T; CHSH is violated iff M > 1."""
    t = correlation_matrix(rho2).entries
    u = np.sort(np.linalg.eigvalsh(t.T @ t))
    return float(u[-1] + u[-2])


def chsh_M_ga(cfg: GroverConfig, st: SymmetricGAState):
    """Closed-form M from the two-qubit reduced entries o0, o1, o2 (j=1); cross-check of chsh_M."""
    if cfg.j != 1:
        raise UnsupportedStructureError(f"the CHSH closed form requires j=1, got j={cfg.j}")
    if cfg.n < 2:
        raise ValueError(f"two-qubit reduction needs n >= 2, got n={cfg.n}")
    o0, o1, o2 = _reduced_entries(cfg.n, st, 2)
    lam1 = 2.0 * o2 - 2.0 * o1
    disc = (
        o0**2 + 20.0 * o1**2 + 25.0 * o2**2
        - 4.0 * o0 * o1 - 6.0 * o0 * o2 - 20.0 * o1 * o2
    )
    root = np.sqrt(np.maximum(disc, 0.0))
    s = o0 + 2.0 * o1 + o2
    lam2 = (s - root) / 2.0
    lam3 = (s + root) / 2.0
    # [()] turns the 0-d result of a scalar state back into a scalar
    return np.where(lam1 <= lam2, lam2**2 + lam3**2, lam1**2 + lam3**2)[()]


@dataclass(frozen=True, eq=False)
class SvetlichnySettings:
    """Measurement directions achieving the reported Svetlichny expectation."""

    a: np.ndarray
    a_prime: np.ndarray
    c: np.ndarray
    c_prime: np.ndarray
    d: np.ndarray
    d_prime: np.ndarray
    t: float


@dataclass(frozen=True, eq=False)
class SvetlichnyResult:
    value: float
    settings: SvetlichnySettings
    restarts: int
    optimizer_evals: int
    converged: bool


def _unit(theta: float, phi: float) -> tuple:
    s = math.sin(theta)
    return (s * math.cos(phi), s * math.sin(phi), math.cos(theta))


def _cross(u, v) -> tuple:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _frame_perp(d) -> tuple:
    ref = (1.0, 0.0, 0.0) if abs(d[0]) < 0.9 else (0.0, 1.0, 0.0)
    e1 = _cross(d, ref)
    norm = math.sqrt(e1[0] ** 2 + e1[1] ** 2 + e1[2] ** 2)
    e1 = (e1[0] / norm, e1[1] / norm, e1[2] / norm)
    return e1, _cross(d, e1)


def _settings_from_params(x) -> tuple:
    c = _unit(x[0], x[1])
    cp = _unit(x[2], x[3])
    d = _unit(x[4], x[5])
    e1, e2 = _frame_perp(d)
    cc, sc = math.cos(x[6]), math.sin(x[6])
    dp = (cc * e1[0] + sc * e2[0], cc * e1[1] + sc * e2[1], cc * e1[2] + sc * e2[2])
    return c, cp, d, dp, float(x[7])


def _contract(t_rows, d, c) -> tuple:
    # w_i = sum_jk T_ijk d_j c_k, unrolled: the optimizer calls this in a hot loop.
    out = []
    for rows in t_rows:
        acc = 0.0
        for dj, row in zip(d, rows):
            acc += dj * (row[0] * c[0] + row[1] * c[1] + row[2] * c[2])
        out.append(acc)
    return tuple(out)


def _svetlichny_from_params(t_rows, x) -> tuple:
    # For fixed (c, c', d, d', t) the optimal first-qubit directions a, a' are
    # the normalized contracted vectors, so only 8 parameters are searched.
    c, cp, d, dp, t = _settings_from_params(x)
    st, ct = math.sin(t), math.cos(t)
    w_dpcp = _contract(t_rows, dp, cp)
    w_dc = _contract(t_rows, d, c)
    w_dpc = _contract(t_rows, dp, c)
    w_dcp = _contract(t_rows, d, cp)
    v_a = tuple(st * w_dpcp[i] + ct * w_dc[i] for i in range(3))
    v_ap = tuple(st * w_dpc[i] - ct * w_dcp[i] for i in range(3))
    value = 2.0 * (
        math.sqrt(v_a[0] ** 2 + v_a[1] ** 2 + v_a[2] ** 2)
        + math.sqrt(v_ap[0] ** 2 + v_ap[1] ** 2 + v_ap[2] ** 2)
    )
    return value, v_a, v_ap


def svetlichny_expectation(tensor: CorrelationTensor, settings: SvetlichnySettings) -> float:
    """<B_S> = 2[(<AD'C'> sin t - <A'DC'> cos t) + (<A'D'C> sin t + <ADC> cos t)].

    Every term is a full-weight Pauli product, so the expectation depends on
    the state only through the tripartite correlation tensor.
    """
    if tensor.order != 3:
        raise ValueError("Svetlichny expectation needs an order-3 tensor")
    T = tensor.entries
    triple = lambda x, y, z: float(np.einsum("ijk,i,j,k->", T, x, y, z))
    st, ct = math.sin(settings.t), math.cos(settings.t)
    return 2.0 * (
        triple(settings.a, settings.d_prime, settings.c_prime) * st
        - triple(settings.a_prime, settings.d, settings.c_prime) * ct
        + triple(settings.a_prime, settings.d_prime, settings.c) * st
        + triple(settings.a, settings.d, settings.c) * ct
    )


def svetlichny_max(
    rho3: DensityMatrix | CorrelationTensor, config: OptimizerConfig | None = None
) -> SvetlichnyResult:
    """Seeded multi-start maximization of |<B_S>| over all measurement settings.

    Each restart runs Nelder-Mead from an independent start drawn from
    default_rng([seed, restart]); the reported value is a lower bound on the
    true maximum and is monotone in the restart count at fixed seed.
    """
    config = config or OptimizerConfig()
    tensor = rho3 if isinstance(rho3, CorrelationTensor) else correlation_tensor_3(rho3)
    if tensor.order != 3:
        raise ValueError("Svetlichny maximization needs an order-3 tensor")
    t_rows = tuple(tuple(tuple(row) for row in plane) for plane in tensor.entries.tolist())

    def negated(x):
        return -_svetlichny_from_params(t_rows, x)[0]

    best_val = -math.inf
    best_x = None
    evals = 0
    converged = False
    scale = np.array([math.pi, 2 * math.pi, math.pi, 2 * math.pi, math.pi, 2 * math.pi, 2 * math.pi, math.pi])
    for i in range(config.restarts):
        x0 = restart_rng(config, i).uniform(0.0, 1.0, size=8) * scale
        res = minimize(
            negated,
            x0,
            method="Nelder-Mead",
            options={"fatol": 1e-9, "xatol": 1e-4, "maxiter": 600, "maxfev": 900},
        )
        evals += int(res.nfev)
        converged = converged or bool(res.success)
        if -res.fun > best_val:
            best_val = -res.fun
            best_x = res.x
    value, v_a, v_ap = _svetlichny_from_params(t_rows, best_x)
    c, cp, d, dp, t = _settings_from_params(best_x)
    norm_a = math.sqrt(sum(x * x for x in v_a))
    norm_ap = math.sqrt(sum(x * x for x in v_ap))
    fallback = np.array([0.0, 0.0, 1.0])
    settings = SvetlichnySettings(
        a=np.array(v_a) / norm_a if norm_a > 0 else fallback,
        a_prime=np.array(v_ap) / norm_ap if norm_ap > 0 else fallback,
        c=np.array(c),
        c_prime=np.array(cp),
        d=np.array(d),
        d_prime=np.array(dp),
        t=float(t),
    )
    return SvetlichnyResult(
        value=float(value),
        settings=settings,
        restarts=config.restarts,
        optimizer_evals=evals,
        converged=converged,
    )


def svetlichny_max_ga(
    cfg: GroverConfig, r: int, config: OptimizerConfig | None = None
) -> SvetlichnyResult:
    """Svetlichny maximization on the structured three-qubit reduced state (j=1)."""
    if cfg.n < 3:
        raise ValueError(f"tripartite reduction needs n >= 3, got n={cfg.n}")
    return svetlichny_max(reduced_density(cfg, state_at(cfg, r), 3), config)

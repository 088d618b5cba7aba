"""Closed-form Grover engine in the two-dimensional invariant subspace.

The state after r iterations is sin(alpha_r)|X> + cos(alpha_r)|Xperp>
with alpha_r = (r + 1/2) alpha and alpha = 2 arctan sqrt(j/(N-j)), so the
solution amplitude a and per-item non-solution amplitude b determine every
structured density matrix without touching the 2^n-dimensional space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import UnsupportedStructureError
from .linalg import DensityMatrix

# The one qubit cap: the largest register any path materializes as 2^n
# amplitudes or a 2^n x 2^n matrix (statevector oracle, dense densities,
# subset enumerations).
CAPACITY_QUBITS = 12
# The largest n whose closed-form rows are all finite in double precision:
# at n = 1023 the genuine-discord factor 4 (2^(n-1) - 1) overflows, and
# beyond that N = 2^n itself no longer converts to a float.
FLOAT_SAFE_QUBITS = 1022


@dataclass(frozen=True)
class GroverConfig:
    """Search-problem description: n qubits, j solutions (the leading 0..j-1 held as range(j)), optional indices."""

    n: int
    j: int = 1
    solutions: tuple[int, ...] | range | None = None
    alpha: float = field(init=False, repr=False, compare=False)  # 2 atan sqrt(j/(N-j)), once per config

    def __post_init__(self):
        if not 1 <= self.n <= FLOAT_SAFE_QUBITS:
            raise ValueError(f"qubit count must lie in 1..{FLOAT_SAFE_QUBITS}, got {self.n}")
        N = 1 << self.n
        if not 1 <= self.j < N:
            raise ValueError(f"solution count must satisfy 1 <= j < {N}, got {self.j}")
        if self.solutions is None:
            object.__setattr__(self, "solutions", range(self.j))
        else:
            sols = tuple(sorted(set(int(s) for s in self.solutions)))
            if len(sols) != self.j:
                raise ValueError(f"expected {self.j} distinct solutions, got {self.solutions!r}")
            if sols[0] < 0 or sols[-1] >= N:
                raise ValueError(f"solution indices out of range 0..{N - 1}: {sols!r}")
            # j distinct indices >= 0 whose largest is j - 1 are exactly 0..j-1
            object.__setattr__(self, "solutions", range(self.j) if sols[-1] == self.j - 1 else sols)
        object.__setattr__(self, "alpha", 2.0 * math.atan2(math.sqrt(self.j), math.sqrt(N - self.j)))

    @property
    def database_size(self) -> int:
        # Python integers are exact at any n; formulas convert to float ratios.
        return 1 << self.n


@dataclass(frozen=True)
class SymmetricGAState:
    """Two-amplitude representation (a, b) of the GA state after r iterations.

    `r`, `j`, `rest` (N - j as a float), `alpha_r`, `a` and `b` are arrays of
    one shape when the state was built for an array of iteration counts, so a
    closed form evaluated on it gives a whole series at once, or the rows of
    several series, each with its own j. Closed forms square with np.square, a
    multiplication, never with **, which on a numpy scalar is libm pow(): so a
    one-row slice of a series state gives that row's bits.
    """

    r: np.ndarray
    j: np.ndarray
    rest: np.ndarray
    alpha_r: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def rows(self, s) -> "SymmetricGAState":
        """The rows `s` (an index, a slice or an index array) of a series state as a state of their own."""
        return SymmetricGAState(*(np.ravel(getattr(self, f.name))[s] for f in fields(self)))


@dataclass(frozen=True)
class OptimalIteration:
    """Rounded stopping time with the pre-rounding value and tie flag."""

    r_opt: int
    exact: float
    tie: bool


def state_at(cfg: GroverConfig, r) -> SymmetricGAState:
    """Amplitudes after r Grover iterations, r an integer or an integer array, in one numpy pass at any N."""
    r = np.asarray(r)
    if np.any(r < 0):
        raise ValueError(f"iteration count must be >= 0, got {r.min()}")
    return _rows_state([cfg], np.zeros(r.shape, dtype=int), r)


def _rows_state(cfgs, series, r) -> SymmetricGAState:
    """The state of rows r >= 0, row i in the series cfgs[series[i]]: alpha per series from
    `GroverConfig.alpha` (math.atan2, not numpy's SIMD arctan2), N - j rounded once from exact ints."""
    per_series = zip(*((c.alpha, float(c.j), float(c.database_size - c.j)) for c in cfgs))
    alpha, j, rest = (np.array(x)[series] for x in per_series)
    alpha_r = (r + 0.5) * alpha
    return SymmetricGAState(r=r, j=j, rest=rest, alpha_r=alpha_r, a=np.sin(alpha_r), b=np.cos(alpha_r) / np.sqrt(rest))


def success_probability(cfg: GroverConfig, st: SymmetricGAState):
    """P = sin^2(alpha_r) = a^2; `cfg` is taken so every closed form reads (cfg, st)."""
    return np.square(st.a)


def _peak_time(beta, omega):
    """The first t >= 0 where sin(omega t + beta)^2 peaks, ((pi/2 - beta)/omega) mod (pi/omega),
    elementwise on arrays. GA's stopping time is the case beta = alpha/2, omega = alpha."""
    return ((math.pi / 2.0 - beta) / omega) % (math.pi / omega)


def optimal_iteration_details(cfg: GroverConfig) -> OptimalIteration:
    """Closest integer to the first peak (pi - alpha)/(2 alpha); half-integer ties round toward zero."""
    exact = _peak_time(cfg.alpha / 2.0, cfg.alpha)  # >= 0, as every first peak is
    floor = math.floor(exact)
    frac = exact - floor
    tie = abs(frac - 0.5) < 1e-12
    return OptimalIteration(r_opt=floor if tie or frac < 0.5 else floor + 1, exact=exact, tie=tie)


def optimal_iterations(cfg: GroverConfig) -> int:
    return optimal_iteration_details(cfg).r_opt


def _leading_log2_j(cfg: GroverConfig) -> int | None:
    """k when cfg's solutions are the leading 0..j-1 with j = 2^k, else None."""
    k = cfg.j.bit_length() - 1
    return k if cfg.solutions == range(1 << k) else None


def _require_domain(cfg: GroverConfig, what: str, min_qubits: int = 1, power_of_two: bool = False) -> int:
    """Check that the closed form `what` covers cfg (j = 1, or if `power_of_two` the solutions 0..j-1 with
    j = 2^k) with `min_qubits` of the n - k qubits where the solutions agree, and return k = log2 j."""
    k = _leading_log2_j(cfg) if power_of_two else 0 if cfg.j == 1 else None
    if k is None:
        raise UnsupportedStructureError(
            f"{what} requires {'j = 2^k with the solutions 0..j-1' if power_of_two else 'j=1'} "
            f"(got j={cfg.j}, solutions={cfg.solutions}); fall back to the brute-force engine"
        )
    if cfg.n - k < min_qubits:
        raise ValueError(f"{what} needs n >= {min_qubits + k}, got n={cfg.n}")
    return k


def _reduced_entries(n: int, st: SymmetricGAState, k: int, j: int = 1) -> tuple:
    """(corner, edge, bulk) entries of `reduced_density`'s matrix; arrays for a series state."""
    d = 2.0 ** (n - k)
    rest = (d - j) * np.square(st.b)
    return np.square(st.a) + rest, math.sqrt(j) * (st.a * st.b) + rest, d * np.square(st.b)


def _reduced_matrix(n: int, st: SymmetricGAState, k: int, j: int = 1) -> np.ndarray:
    """The k-qubit reduced matrix of `_reduced_entries`; a (rows, 2^k, 2^k) stack for a series state."""
    corner, edge, bulk = (np.asarray(x) for x in _reduced_entries(n, st, k, j))
    m = np.empty(bulk.shape + (1 << k, 1 << k), dtype=complex)
    m[...] = bulk[..., None, None]
    m[..., 0, :] = edge[..., None]
    m[..., :, 0] = edge[..., None]
    m[..., 0, 0] = corner
    return m


def reduced_density(cfg: GroverConfig, st: SymmetricGAState, k: int) -> DensityMatrix:
    """Structured k-qubit reduced state for j = 2^k' leading solutions; a stack for a series state.

    With rest = (2^(n-k) - j) b^2: entry(0,0) = a^2 + rest, first row/column
    sqrt(j) ab + rest, all others 2^(n-k) b^2. Valid for arbitrary n since
    only a, b and 2^(n-k) enter. Identical for every choice of k kept qubits
    among the first n - k', where the solutions agree (all n at j = 1).
    """
    z = cfg.n - _require_domain(cfg, "reduced_density", power_of_two=True)
    if not 1 <= k <= z:
        raise ValueError(f"kept-qubit count must satisfy 1 <= k <= {z}, got {k}")
    return DensityMatrix(_reduced_matrix(cfg.n, st, k, cfg.j))

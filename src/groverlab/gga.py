"""Generalized Grover search from arbitrary initial amplitude distributions.

One iteration flips the sign of every solution amplitude and then reflects
all N amplitudes about their global average. Averages over solutions and
non-solutions evolve sinusoidally with angular step omega and phase beta;
individual deviations from the averages are frozen (solutions) or alternate
in sign (non-solutions).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .errors import AmplitudeFileError, InvalidStateError, UnsupportedStructureError
from .grover import GroverConfig
from .linalg import NORM_TOL, PureState, binary_entropy, shannon_entropy

REAL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class AmplitudeDistribution(PureState):
    """All N = 2^n amplitudes in basis order, the solution indices and the iteration r.

    The solution amplitudes k_i and non-solution amplitudes l_i are read off
    the one vector, so normalization is checked once, by PureState.
    """

    solutions: tuple[int, ...]
    r: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.size & (self.size - 1):
            raise InvalidStateError(f"amplitude length {self.size} is not a power of two")
        sols = tuple(sorted(set(int(s) for s in self.solutions)))
        if len(sols) != len(self.solutions) or not 0 < len(sols) < self.size:
            raise InvalidStateError(
                f"expected 1 to {self.size - 1} distinct solutions, got {self.solutions!r}"
            )
        if sols[0] < 0 or sols[-1] >= self.size:
            raise InvalidStateError(f"solution indices out of range 0..{self.size - 1}: {sols!r}")
        object.__setattr__(self, "solutions", sols)

    @property
    def size(self) -> int:
        return self.amplitudes.size

    @property
    def n(self) -> int:
        return self.size.bit_length() - 1

    @property
    def j(self) -> int:
        return len(self.solutions)

    @property
    def solution_amplitudes(self) -> np.ndarray:
        return self.amplitudes[list(self.solutions)]

    @property
    def other_amplitudes(self) -> np.ndarray:
        return np.delete(self.amplitudes, self.solutions)

    @property
    def kbar(self) -> complex:
        return complex(self.solution_amplitudes.mean())

    @property
    def lbar(self) -> complex:
        return complex(self.other_amplitudes.mean())

    @property
    def sigma_l_squared(self) -> float:
        """Population variance of the non-solution amplitudes."""
        dev = self.other_amplitudes - self.lbar
        return float(np.mean(np.abs(dev) ** 2))

    @property
    def omega(self) -> float:
        """Angular step of the sinusoidal averages, acos(1 - 2j/N)."""
        return math.acos(1.0 - 2.0 * self.j / self.size)

    @property
    def is_real(self) -> bool:
        return float(np.max(np.abs(self.amplitudes.imag))) <= REAL_TOL

    def success_probability(self) -> float:
        return float(np.sum(np.abs(self.solution_amplitudes) ** 2))

    @classmethod
    def uniform(cls, n: int, solutions) -> "AmplitudeDistribution":
        """The uniform start 2^(-n/2) on every basis state."""
        N = 1 << n
        return cls(np.full(N, 1.0 / math.sqrt(N), dtype=complex), tuple(solutions))


def gga_iterate(dist: AmplitudeDistribution, steps: int) -> AmplitudeDistribution:
    """Apply `steps` iterations: sign-flip solutions, reflect about the global mean.

    The one Grover step of the package. Each call copies the vector once and
    updates the copy in place, with no 2^n x 2^n operator.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    amps = dist.amplitudes.copy()
    sols = list(dist.solutions)
    for _ in range(steps):
        amps[sols] = -amps[sols]
        np.subtract(2.0 * amps.mean(), amps, out=amps)
    return replace(dist, amplitudes=amps, r=dist.r + steps)


@dataclass(frozen=True)
class GGAClosedForm:
    """Sinusoidal parameters of the average-amplitude dynamics.

    kbar(r) = (C/sqrt(j)) sin(omega r + beta),
    lbar(r) = (C/sqrt(N-j)) cos(omega r + beta).
    """

    omega: float
    beta: float
    C: float
    degenerate_phase: bool = False


def gga_closed_form(dist0: AmplitudeDistribution) -> GGAClosedForm:
    """Fit omega, beta and the envelope constant C from the r=0 averages."""
    if not dist0.is_real:
        raise UnsupportedStructureError(
            "closed-form averages require real amplitudes; use the scan fallback"
        )
    j = dist0.j
    N = dist0.size
    kbar0 = dist0.kbar.real
    lbar0 = dist0.lbar.real
    degenerate = lbar0 == 0.0
    if degenerate:
        beta = math.pi / 2.0
    else:
        beta = math.atan2(math.sqrt(j) * kbar0, math.sqrt(N - j) * lbar0)
    C = math.sqrt(j * kbar0**2 + (N - j) * lbar0**2)
    return GGAClosedForm(omega=dist0.omega, beta=beta, C=C, degenerate_phase=degenerate)


def gga_pmax(dist0: AmplitudeDistribution) -> float:
    """1 - (N-j) sigma_l^2; the deviation magnitudes are iteration-invariant.

    For real distributions the continuous-time success probability attains
    this value exactly (the non-solution average crosses zero). For complex
    distributions whose real and imaginary phases differ it is an upper
    bound: the two average components never vanish simultaneously.
    """
    N = dist0.size
    return 1.0 - (N - dist0.j) * dist0.sigma_l_squared


def _success_envelope(dist0: AmplitudeDistribution):
    """p(t) from constants read off dist0 once: the real and imaginary parts evolve
    independently, each adding C^2 sin^2(omega t + beta) to the frozen solution spread."""
    j = dist0.j
    N = dist0.size
    k0 = dist0.solution_amplitudes
    l0 = dist0.other_amplitudes
    omega = dist0.omega
    spread = float(np.sum(np.abs(k0 - k0.mean()) ** 2))
    parts = []
    for kbar_part, lbar_part in (
        (float(k0.real.mean()), float(l0.real.mean())),
        (float(k0.imag.mean()), float(l0.imag.mean())),
    ):
        C2 = j * kbar_part**2 + (N - j) * lbar_part**2
        if C2 != 0.0:
            parts.append((C2, math.atan2(math.sqrt(j) * kbar_part, math.sqrt(N - j) * lbar_part)))

    def p_at(t: float) -> float:
        total = spread
        for C2, beta in parts:
            total += C2 * math.sin(omega * t + beta) ** 2
        return total

    return p_at


@dataclass(frozen=True)
class GGAOptimalTime:
    """Continuous optimal measurement time and how it was found."""

    time: float
    method: str  # "closed-form" or "scan"
    degenerate_phase: bool = False


def gga_optimal_time(dist0: AmplitudeDistribution) -> GGAOptimalTime:
    """(pi/2 - beta)/omega for real amplitudes; grid-scan fallback otherwise. No Grover step."""
    if dist0.is_real:
        cf = gga_closed_form(dist0)
        t = (math.pi / 2.0 - cf.beta) / cf.omega
        period = math.pi / cf.omega
        while t < 0.0:
            t += period
        return GGAOptimalTime(time=t, method="closed-form", degenerate_phase=cf.degenerate_phase)
    # Complex averages: the paper's beta presumes real amplitudes, so
    # locate the peak of the superposed envelope numerically.
    p_at = _success_envelope(dist0)
    grid = np.linspace(0.0, math.pi / dist0.omega, 4097)
    best = int(np.argmax([p_at(x) for x in grid]))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if p_at(m1) < p_at(m2):
            lo, moved = m1, m1 != lo
        else:
            hi, moved = m2, m2 != hi
        if not moved:  # a fixed point: every later round would repeat this one
            break
    return GGAOptimalTime(time=0.5 * (lo + hi), method="scan")


@dataclass(frozen=True)
class PhiFamily:
    """Two-solution initial states phi_0|0> + phi_1|1> + uniform tail.

    phi0^2 + phi1^2 = 2/N with phi0 <= phi1; the non-solution amplitudes are
    all 1/sqrt(N), so the peak success probability is exactly 1 and the
    optimal-time state is k1|0> + k2|1>. `phi0`, `phi1`, `k1` and `k2` are
    arrays of one shape when the family was built for an array of phi0, so
    the phi_family_* functions give one value per point; a scalar phi0 gives
    scalars. Every check covers the whole array and fails on NaN.
    """

    N: int
    phi0: np.ndarray
    phi1: np.ndarray
    k1: np.ndarray
    k2: np.ndarray

    def __post_init__(self):
        self._check_size(self.N)
        phi0, phi1, k1, k2 = (np.asarray(x, dtype=float) for x in (self.phi0, self.phi1, self.k1, self.k2))
        if not phi0.shape == phi1.shape == k1.shape == k2.shape:
            raise ValueError("phi0, phi1, k1 and k2 must have one shape")
        if not np.all(np.abs(np.square(phi0) + np.square(phi1) - 2.0 / self.N) <= NORM_TOL):
            raise InvalidStateError("phi0^2 + phi1^2 must equal 2/N")
        if not np.all(phi0 <= phi1):
            raise ValueError("phi0 <= phi1 is required")
        if not np.all(np.abs(np.square(k1) + np.square(k2) - 1.0) <= NORM_TOL):
            raise InvalidStateError("k1^2 + k2^2 must equal 1")

    @staticmethod
    def _check_size(N: int) -> None:
        if N < 4 or N & (N - 1):
            raise ValueError(f"database size must be a power of two >= 4, got {N}")

    @classmethod
    def from_phi0(cls, N: int, phi0) -> "PhiFamily":
        """The family at each phi0, a float or an array."""
        cls._check_size(N)  # before 2/N, which a bad size would turn into an arithmetic error
        phi0 = np.asarray(phi0, dtype=float)
        rest = 2.0 / N - phi0 * phi0
        phi1 = np.sqrt(np.maximum(rest, 0.0))
        for ok, rule in ((rest >= -NORM_TOL, "phi0^2 <= 2/N"), (phi0 <= phi1, f"phi0 <= phi1 for N={N}")):
            if not np.all(ok):
                raise ValueError(f"phi0={float(phi0[~ok][0])!r} violates {rule}")
        s = np.sqrt((N - 2.0) / (2.0 * N) + 0.25 * np.square(phi0 + phi1))
        half_gap = 0.5 * (phi0 - phi1)
        # [()] turns the 0-d fields of a scalar phi0 back into scalars
        return cls(N=N, phi0=phi0[()], phi1=phi1[()], k1=(s + half_gap)[()], k2=(s - half_gap)[()])


def phi_family_delta_coherence(fam: PhiFamily):
    """Relative-entropy coherence spent between the initial and optimal states, one value per point."""
    start = shannon_entropy(np.stack([np.square(fam.phi0), np.square(fam.phi1)], axis=-1))
    return start + (fam.N - 2.0) / fam.N * math.log2(fam.N) - binary_entropy(np.square(fam.k1))


def phi_family_optimal_time(fam: PhiFamily):
    """(pi/2 - beta)/omega from (N, phi0, phi1) alone, for every N up to 2^1022, one value per point.

    omega is the two-solution Grover angle 2 atan sqrt(2/(N-2)); the equal
    acos(1 - 4/N) rounds to 0 once N > 2^55. beta is gga_closed_form's
    atan2, operand for operand, of the start's averages kbar and lbar, taken
    per point through math.atan2: numpy's arctan2 kernels round differently
    on different CPUs.
    """
    omega = GroverConfig(fam.N.bit_length() - 1, j=2).alpha
    kbar, lbar = 0.5 * (fam.phi0 + fam.phi1), 1.0 / math.sqrt(fam.N)
    beta = np.frompyfunc(math.atan2, 2, 1)(math.sqrt(2) * kbar, math.sqrt(fam.N - 2) * lbar)
    return (math.pi / 2.0 - np.asarray(beta, dtype=float)) / omega


def _finite_cells(pairs: list):
    """The pairs' cells as one float array, or None unless each pair is a list of two ints or
    floats below the largest float in magnitude: np.array(dtype=float) alone would read true and
    "0.5" as numbers, and round an int just past the float range down to that float."""
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    flat = list(chain.from_iterable(pairs))
    if not set(map(type, flat)) <= {int, float}:
        return None
    try:
        cells = np.array(flat, dtype=float)
    except OverflowError:  # an int past the float range
        return None
    return cells if np.all(np.abs(cells) < sys.float_info.max) else None  # NaN compares false


def distribution_from_json(text: str) -> AmplitudeDistribution:
    """Parse {"n": int, "solutions": [...], "amplitudes": [[re, im], ...]}.

    Raises AmplitudeFileError with line/field diagnostics on malformed input.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AmplitudeFileError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise AmplitudeFileError("top-level value must be an object")
    for field in ("n", "solutions", "amplitudes"):
        if field not in doc:
            raise AmplitudeFileError(f"missing required field {field!r}")
    n = doc["n"]
    if type(n) is not int or n < 1:  # a bool is an int subclass
        raise AmplitudeFileError(f"field 'n': expected a positive integer, got {n!r}")
    amps_raw = doc["amplitudes"]
    if not isinstance(amps_raw, list):
        raise AmplitudeFileError(
            f"field 'amplitudes': expected a list, got {type(amps_raw).__name__}"
        )
    # 2^n past twice the entries given: n is wrong, and 2^n may not even be printable
    if n > len(amps_raw).bit_length():
        raise AmplitudeFileError(
            f"field 'n': 2^{n} amplitudes cannot match the {len(amps_raw)} given"
        )
    N = 1 << n
    sols = doc["solutions"]
    if (
        not isinstance(sols, list)
        or not sols
        or any(type(s) is not int or not 0 <= s < N for s in sols)
        or len(set(sols)) != len(sols)
    ):
        raise AmplitudeFileError(
            f"field 'solutions': expected distinct integers in 0..{N - 1}, got {sols!r}"
        )
    if len(amps_raw) != N:
        raise AmplitudeFileError(f"field 'amplitudes': expected {N} entries, got {len(amps_raw)}")
    cells = _finite_cells(amps_raw)
    if cells is None:  # name the first bad pair
        for i, pair in enumerate(amps_raw):
            # json.loads reads NaN and Infinity, and an int may be past the float range
            if not isinstance(pair, list) or len(pair) != 2 or not all(
                type(x) in (int, float) and abs(x) <= sys.float_info.max for x in pair
            ):
                raise AmplitudeFileError(
                    f"amplitudes[{i}]: expected a [re, im] pair of finite numbers, got {pair!r}"
                )
        cells = np.array(list(chain.from_iterable(amps_raw)), dtype=float)
    amps = cells.view(complex)
    with np.errstate(over="ignore"):  # a huge finite cell squares to inf, which the check below rejects
        norm2 = float(np.sum(np.abs(amps) ** 2))
    if not abs(norm2 - 1.0) <= NORM_TOL:
        raise AmplitudeFileError(f"amplitudes not normalized: sum |a|^2 = {norm2!r}")
    return AmplitudeDistribution(amps, tuple(sols))

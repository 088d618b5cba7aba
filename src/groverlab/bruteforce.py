"""Ground-truth engine: full statevector simulation and generic measure
evaluation used to validate every closed form in the package."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import coherence, discord, entanglement, grover, nonlocality
from .errors import CapacityError, NumericalConsistencyError
from .gga import AmplitudeDistribution, gga_iterate, gga_walk
from .grover import CAPACITY_QUBITS, GroverConfig, _leading_log2_j, _reduced_matrix, optimal_iterations, state_at
from .linalg import pure_partial_trace, pure_subsystem_entropy, shannon_entropy, von_neumann_entropy
from .optimizers import OptimizerConfig


def evolve(cfg: GroverConfig, r: int) -> AmplitudeDistribution:
    """Statevector after r Grover iterations from the uniform start."""
    if cfg.n > CAPACITY_QUBITS:  # checked before allocating 2^n amplitudes
        raise CapacityError(f"n={cfg.n} exceeds the statevector cap {CAPACITY_QUBITS}")
    return gga_iterate(AmplitudeDistribution.uniform(cfg.n, cfg.solutions), r)


def evolve_series(cfg: GroverConfig, r_max: int) -> np.ndarray:
    """The (r_max + 1, 2^n) amplitude stack whose row r is evolve(cfg, r).amplitudes."""
    dist0 = evolve(cfg, 0)
    stack = np.empty((r_max + 1, dist0.size), dtype=complex)
    for r, amps in enumerate(gga_walk(dist0, r_max)):
        stack[r] = amps
    return stack


@dataclass(frozen=True)
class Measure:
    """One measure: its closed form, its oracle and the domain they share.

    `closed_form(cfg, st, optimizer)` covers j = 1 with the solution at index
    0, every leading j = 2^k with n - k >= `min_qubits` if `power_of_two_j`,
    any j if `any_j`. It takes a `SymmetricGAState` of many rows, such as a
    whole series (`state_at(cfg, array_of_r)`), and returns one float per row,
    an array. The state's `j` and `rest` (N - j) may differ from row to row:
    an `any_j` form reads them from the state and only n from cfg, so one call
    covers the rows of many series; any other form takes the rows of cfg's j.
    `oracle(stack, cfg, optimizer)` covers n <= CAPACITY_QUBITS. It takes the
    (rows, 2^n) amplitude stack of a series (`evolve_series`) and returns one
    float per row in the same way. Registers smaller than `min_qubits` have no
    value. `slow` marks an opt-in measure with an optimizer search. `identity`
    names the `cross_validate` identity that checks the closed form against
    the oracle. Entries look functions up on their module at call time, so a
    function replaced there (e.g. by a tracer) is what runs.
    """

    closed_form: Callable
    oracle: Callable
    min_qubits: int = 1
    any_j: bool = False
    power_of_two_j: bool = False
    slow: bool = False
    identity: str | None = None

    def engine(self, cfg: GroverConfig, use_oracle: bool = True) -> str:
        """'analytic', 'oracle' or 'unavailable' for one (n, j) series."""
        if cfg.n < self.min_qubits:
            return "unavailable"
        k = _leading_log2_j(cfg)
        if self.any_j or k == 0 or (self.power_of_two_j and k is not None and cfg.n - k >= self.min_qubits):
            return "analytic"
        if use_oracle and cfg.n <= CAPACITY_QUBITS:
            return "oracle"
        return "unavailable"


MEASURES = {
    "p": Measure(
        closed_form=lambda cfg, st, opt: grover.success_probability(cfg, st),
        oracle=lambda amps, cfg, opt: (np.abs(amps.take(cfg.solutions, axis=-1)) ** 2).sum(axis=-1),
        any_j=True,
        identity="success_probability",
    ),
    "cr": Measure(
        closed_form=lambda cfg, st, opt: coherence.coherence_r_ga(cfg, st),
        # S(rho) = 0 for a pure state, so C_r is the Shannon entropy of |amps|^2
        oracle=lambda amps, cfg, opt: shannon_entropy(np.abs(amps) ** 2),
        any_j=True,
        identity="coherence_relative_entropy",
    ),
    "cl1": Measure(
        closed_form=lambda cfg, st, opt: coherence.coherence_l1_ga(cfg, st),
        # sum_{x != y} |a_x||a_y| = (sum |a_x|)^2 - sum |a_x|^2
        oracle=lambda amps, cfg, opt: np.square(np.abs(amps).sum(axis=-1)) - (np.abs(amps) ** 2).sum(axis=-1),
        any_j=True,
        identity="coherence_l1",
    ),
    "e2": Measure(
        closed_form=lambda cfg, st, opt: entanglement.concurrence_two_qubit_ga(cfg, st),
        oracle=lambda amps, cfg, opt: entanglement.concurrence_two_qubit(
            pure_partial_trace(amps, (0, 1))
        ),
        min_qubits=2,
        identity="concurrence_two_qubit",
    ),
    "en": Measure(
        closed_form=lambda cfg, st, opt: entanglement.concurrence_multiqubit_ga(cfg, st),
        oracle=lambda amps, cfg, opt: entanglement.multiqubit_concurrence_pure(amps),
        min_qubits=2,
    ),
    "d2": Measure(
        closed_form=lambda cfg, st, opt: discord.pairwise_discord_closed_form(cfg, st),
        oracle=lambda amps, cfg, opt: discord.pairwise_discord_rows(pure_partial_trace(amps, (0, 1)), opt).value,
        min_qubits=2,
        power_of_two_j=True,
        slow=True,
    ),
    "dn": Measure(
        closed_form=lambda cfg, st, opt: discord.genuine_discord_ga(cfg, st),
        oracle=lambda amps, cfg, opt: von_neumann_entropy(pure_partial_trace(amps, (0,))),
        identity="genuine_discord",
    ),
    "m": Measure(
        closed_form=lambda cfg, st, opt: nonlocality.chsh_M_ga(cfg, st),
        oracle=lambda amps, cfg, opt: nonlocality.chsh_M(pure_partial_trace(amps, (0, 1))),
        min_qubits=2,
        identity="chsh_M",
    ),
    "svet": Measure(
        closed_form=lambda cfg, st, opt: nonlocality.svetlichny_max_series(cfg, st, opt).value,
        oracle=lambda amps, cfg, opt: nonlocality.svetlichny_max_rows(pure_partial_trace(amps, (0, 1, 2)), opt).value,
        min_qubits=3,
        slow=True,
    ),
}

MEASURE_KEYS = tuple(MEASURES)
# `p` is always a column; the slow optimizer measures are opt-in.
DEFAULT_GA_MEASURES = tuple(k for k in MEASURE_KEYS if k != "p" and not MEASURES[k].slow)


def _generic_measures(amps: np.ndarray, cfg: GroverConfig, measures, optimizer: OptimizerConfig) -> dict:
    """Oracle values of `measures` on a (rows, 2^n) amplitude stack, one float array each."""
    return {key: MEASURES[key].oracle(amps, cfg, optimizer) for key in measures}


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one closed-form-vs-oracle identity over its config grid.

    An identity that no requested case reached has `max_deviation` and
    `passed` None (NA): it was not checked, so it neither passes nor fails.
    """

    name: str
    max_deviation: float | None
    tolerance: float
    cases: int

    @property
    def passed(self) -> bool | None:
        if self.cases == 0:
            return None
        return self.max_deviation <= self.tolerance


@dataclass(frozen=True, eq=False)
class ValidationSummary:
    checks: tuple
    fault: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.cases)


_IDENTITY_TOLERANCES = {
    "success_probability": 1e-12,
    "coherence_relative_entropy": 1e-10,
    "coherence_l1": 1e-10,
    "concurrence_two_qubit": 1e-8,
    "chsh_M": 1e-10,
    "genuine_discord": 1e-10,
    "reduced_density": 1e-12,
    "normalization": 1e-12,
    "grover_step_norm": 1e-12,
    "gga_uniform_equivalence": 1e-12,
    "multiqubit_concurrence_forms": 1e-9,
    "partition_minimum": 1e-9,
}


def _or_inf(closed_form, *args):
    """closed_form(*args), or inf where it cannot be evaluated.

    Under an injected fault a discriminant may leave its admissible range:
    that is an infinitely broken identity rather than an exception.
    """
    try:
        return closed_form(*args)
    except (NumericalConsistencyError, ValueError):
        return math.inf


# Reduced-matrix entries per block of series rows in the reduction check; at
# this size cross_validate(max_n=9) ran as fast as at 2^12, faster than at 2^16.
_REDUCTION_BLOCK = 1 << 14


def _check_series(cfg: GroverConfig, requested: bool, uniform: bool, fault: float, deviations) -> None:
    """Append each identity's deviation on every row r = 0..r_opt of one (n, j) series.

    The series is stepped once into an amplitude stack. `uniform` checks it
    against the closed-form amplitudes; `requested` checks every other
    identity on it, each as stacked work over the rows: every closed form
    runs once on the series state, whose row slices round as it does. The
    k-qubit reductions are checked in blocks of rows of at most
    `_REDUCTION_BLOCK` matrix entries, and at least one row, so no block
    grows with the series; each row's arithmetic is its own, so the block
    size changes no value. Every k-subset is keyed by its cut's class
    (`entanglement._cut_keys`, on the exchange labels of the series); the
    subsets of a class have one matrix entry for entry, so one of each
    class is reduced, the generic cut range(k)'s first. Each row and k give
    the generic cut's deviation and the largest over every k-subset, and
    the sum of purity deficits takes each class's count times its own.
    """
    n, j = cfg.n, cfg.j
    st = state_at(cfg, np.arange(optimal_iterations(cfg) + 1))
    if fault:
        st = replace(st, a=st.a + fault)
    amps = evolve_series(cfg, st.r.size - 1)
    if uniform:  # a/sqrt(j) on every solution, b elsewhere
        solution = np.abs(amps[:, list(cfg.solutions)] - st.a[:, None] / math.sqrt(j)).max(axis=1)
        other = np.abs(np.delete(amps, cfg.solutions, axis=1) - st.b[:, None]).max(axis=1)
        deviations["gga_uniform_equivalence"].extend(np.maximum(solution, other).tolist())
    if not requested:
        return
    keys = [k for k, m in MEASURES.items() if m.identity and m.engine(cfg) == "analytic"]
    oracle = _generic_measures(amps, cfg, keys, None)
    if "cr" in oracle:
        # the oracle's C_r leaves out S(rho) of the pure state; here it is
        # taken from the spectrum of the 1 x 1 Gram <psi|psi>
        oracle["cr"] = oracle["cr"] - pure_subsystem_entropy(amps, range(n))
    closed = {key: np.broadcast_to(_or_inf(MEASURES[key].closed_form, cfg, st, None), st.r.shape) for key in keys}
    for key in keys:
        deviations[MEASURES[key].identity].extend(np.abs(closed[key] - oracle[key]).tolist())
    deviations["grover_step_norm"].extend(np.abs(np.sum(np.abs(amps) ** 2, axis=1) - 1.0).tolist())
    norm = np.square(st.a) + st.rest * np.square(st.b)
    deviations["normalization"].extend(np.abs(norm - 1.0).tolist())
    if j != 1:
        return
    # the closed form of dn, S(rho_1), is the minimum over partitions
    partition = discord.genuine_discord_partition_minima(cfg, st.r)
    deviations["partition_minimum"].extend(np.abs(partition - closed["dn"]).tolist())
    labels = entanglement._exchange_labels(amps, n)
    deficits = np.zeros(st.r.size)  # sum over every cut S of 1 - Tr rho_S^2, for each statevector
    for k in range(1, n):
        subsets = np.array(list(itertools.combinations(range(n), k)))
        _, reps, counts = np.unique(entanglement._cut_keys(labels, subsets), return_index=True, return_counts=True)
        order = np.argsort(reps)
        size = max(1, _REDUCTION_BLOCK >> 2 * k)
        for block in (slice(start, start + size) for start in range(0, st.r.size, size)):
            structured = _reduced_matrix(n, st.rows(block), k)
            gaps = []
            for keep, count in zip(subsets[reps[order]], counts[order]):
                m = pure_partial_trace(amps[block], keep).matrix
                gaps.append(np.max(np.abs(structured - m), axis=(-2, -1)))
                deficits[block] += count * (1.0 - np.sum(np.abs(m) ** 2, axis=(-2, -1)))
            deviations["reduced_density"].extend(gaps[0].tolist() + np.max(gaps, axis=0).tolist())
    radicand = entanglement._multiqubit_radicand(n, st)
    deviations["multiqubit_concurrence_forms"].extend(np.abs(radicand - deficits).tolist())


def cross_validate(
    max_n: int = 8,
    j_values=(1, 2),
    fault: float = 0.0,
) -> ValidationSummary:
    """Run the full closed-form-vs-brute-force identity suite.

    Each measure identity compares the series that `ga` prints for an
    analytic `MEASURES` entry with its oracle. Every (n, j) is stepped once:
    the requested j values, then any of j = 1..4 not requested, which check
    only gga_uniform_equivalence. `fault` offsets the analytic solution
    amplitude a before every closed-form evaluation, as a self-test that
    broken identities are detected. Nothing is drawn at random, so the same
    arguments give the same summary. Failures are returned as data, never
    raised.
    """
    if not 2 <= max_n <= 10:
        raise ValueError(f"max_n must lie in 2..10, got {max_n}")
    j_values = tuple(j_values)
    if not any(j < (1 << max_n) for j in j_values):
        raise ValueError(f"no solution count in {j_values} is below 2^max_n = {1 << max_n}")
    deviations = {name: [] for name in _IDENTITY_TOLERANCES}
    # a huge finite fault overflows the closed forms into inf or nan, a failed
    # identity, not a warning; None leaves numpy's handling as it is
    quiet = "ignore" if fault else None
    for n in range(2, max_n + 1):
        unrequested = tuple(j for j in (1, 2, 3, 4) if j not in j_values)
        for i, j in enumerate(j_values + unrequested):
            if j < 1 << n:
                uniform = j <= 4 and j not in j_values[:i]
                with np.errstate(over=quiet, invalid=quiet):
                    _check_series(GroverConfig(n=n, j=j), i < len(j_values), uniform, fault, deviations)
    checks = tuple(  # a NaN deviation counts as inf, so it cannot hide the others
        IdentityCheck(name, float(np.max(np.where(np.isnan(devs), np.inf, devs))) if devs else None, tol, len(devs))
        for (name, tol), devs in zip(_IDENTITY_TOLERANCES.items(), deviations.values())
    )
    return ValidationSummary(checks=checks, fault=fault)

"""Ground-truth engine: full statevector simulation and generic measure
evaluation used to validate every closed form in the package."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import coherence, discord, entanglement, grover, nonlocality
from .errors import CapacityError, NumericalConsistencyError
from .gga import AmplitudeDistribution, gga_iterate
from .grover import CAPACITY_QUBITS, GroverConfig, _reduced_matrix, optimal_iterations, state_at
from .linalg import pure_partial_trace, pure_subsystem_entropy, shannon_entropy, von_neumann_entropy
from .optimizers import OptimizerConfig


def evolve(cfg: GroverConfig, r: int) -> AmplitudeDistribution:
    """Statevector after r Grover iterations from the uniform start."""
    if cfg.n > CAPACITY_QUBITS:  # checked before allocating 2^n amplitudes
        raise CapacityError(f"n={cfg.n} exceeds the statevector cap {CAPACITY_QUBITS}")
    return gga_iterate(AmplitudeDistribution.uniform(cfg.n, cfg.solutions), r)


@dataclass(frozen=True)
class Measure:
    """One measure: its closed form, its oracle and the domain they share.

    `closed_form(cfg, st, optimizer)` covers j = 1 with the solution at index
    0, or any j when `any_j` is set. It takes the `SymmetricGAState` of a whole
    series (`state_at(cfg, array_of_r)`) and returns one value per r: an
    array, or for `slow` (opt-in, optimizer per row) measures a list of
    optimizer results. `oracle(amplitudes, cfg, optimizer)` covers
    n <= CAPACITY_QUBITS and returns one float or optimizer result. Registers
    smaller than `min_qubits` have no value. `identity` names the
    `cross_validate` identity that checks the closed form against the oracle.
    Entries look functions up on their module at call time, so a function
    replaced there (e.g. by a tracer) is what runs.
    """

    closed_form: Callable
    oracle: Callable
    min_qubits: int = 1
    any_j: bool = False
    slow: bool = False
    identity: str | None = None

    def engine(self, cfg: GroverConfig, use_oracle: bool = True) -> str:
        """'analytic', 'oracle' or 'unavailable' for one (n, j) series."""
        if cfg.n < self.min_qubits:
            return "unavailable"
        if self.any_j or (cfg.j == 1 and cfg.solutions == (0,)):
            return "analytic"
        if use_oracle and cfg.n <= CAPACITY_QUBITS:
            return "oracle"
        return "unavailable"

    def series(self, cfg: GroverConfig, st, optimizer) -> np.ndarray:
        """The closed form on a series state as one float per r (a slow measure's optimum values)."""
        values = self.closed_form(cfg, st, optimizer)
        return np.array([v.value for v in values] if self.slow else values, dtype=float)


MEASURES = {
    "p": Measure(
        closed_form=lambda cfg, st, opt: grover.success_probability(cfg, st),
        oracle=lambda amps, cfg, opt: float((np.abs(amps[list(cfg.solutions)]) ** 2).sum()),
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
        oracle=lambda amps, cfg, opt: float(np.abs(amps).sum() ** 2 - (np.abs(amps) ** 2).sum()),
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
        closed_form=lambda cfg, st, opt: discord.pairwise_discord_series(cfg, st, opt),
        oracle=lambda amps, cfg, opt: discord.pairwise_discord(
            pure_partial_trace(amps, (0, 1)), opt
        ),
        min_qubits=2,
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
        closed_form=lambda cfg, st, opt: [
            nonlocality.svetlichny_max_ga(cfg, r, opt) for r in st.r.tolist()
        ],
        oracle=lambda amps, cfg, opt: nonlocality.svetlichny_max(
            pure_partial_trace(amps, (0, 1, 2)), opt
        ),
        min_qubits=3,
        slow=True,
    ),
}

MEASURE_KEYS = tuple(MEASURES)
# `p` is always a column; the slow optimizer measures are opt-in.
DEFAULT_GA_MEASURES = tuple(k for k in MEASURE_KEYS if k != "p" and not MEASURES[k].slow)


def _generic_measures(
    dist: AmplitudeDistribution, cfg: GroverConfig, measures, optimizer: OptimizerConfig
):
    """Oracle values of `measures` on one statevector, plus optimizer metadata."""
    values: dict = {}
    meta: dict = {}
    for key in measures:
        result = MEASURES[key].oracle(dist.amplitudes, cfg, optimizer)
        if MEASURES[key].slow:
            values[key] = result.value
            meta[key] = {"evals": result.optimizer_evals, "converged": result.converged}
        else:
            values[key] = result
    return values, meta


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


def _check_series(cfg: GroverConfig, requested: bool, uniform: bool, fault: float, rng, deviations) -> None:
    """Append each identity's deviation on every row r = 0..r_opt of one (n, j) series.

    One statevector is stepped through the series. `uniform` checks it
    against the closed-form amplitudes; `requested` checks every other
    identity on it.
    """
    n, j = cfg.n, cfg.j
    st = state_at(cfg, np.arange(optimal_iterations(cfg) + 1))
    if fault:
        st = replace(st, a=st.a + fault)
    keys = [k for k, m in MEASURES.items() if requested and m.identity and m.engine(cfg) == "analytic"]
    closed = {k: np.broadcast_to(_or_inf(MEASURES[k].series, cfg, st, None), st.r.shape) for k in keys}
    dist = evolve(cfg, 0)
    for r in st.r.tolist():
        if r > 0:
            dist = gga_iterate(dist, 1)
        row = replace(st, r=st.r[r], alpha_r=st.alpha_r[r], a=st.a[r], b=st.b[r])
        if uniform:  # a/sqrt(j) on every solution, b elsewhere
            deviations["gga_uniform_equivalence"].append(
                max(
                    float(np.max(np.abs(dist.solution_amplitudes - row.a / math.sqrt(j)))),
                    float(np.max(np.abs(dist.other_amplitudes - row.b))),
                )
            )
        if not requested:
            continue
        amps = dist.amplitudes
        oracle, _ = _generic_measures(dist, cfg, keys, None)
        if "cr" in oracle:
            # the oracle's C_r leaves out S(rho) of the pure state; here it is
            # taken from the spectrum of the 1 x 1 Gram <psi|psi>
            oracle["cr"] -= pure_subsystem_entropy(amps, range(n))
        for key in keys:
            deviations[MEASURES[key].identity].append(abs(float(closed[key][r]) - oracle[key]))
        deviations["grover_step_norm"].append(abs(float(np.sum(np.abs(amps) ** 2)) - 1.0))
        deviations["normalization"].append(abs(row.a**2 + (cfg.database_size - j) * row.b**2 - 1.0))
        if j != 1:
            continue
        partition = discord.genuine_discord_partition_min(cfg, r).value
        deviations["partition_minimum"].append(abs(partition - _or_inf(discord.genuine_discord_ga, cfg, row)))
        deficits = 0.0  # sum_k C(n,k) (1 - Tr rho_k^2) of the statevector
        for k in range(1, n):
            structured = _reduced_matrix(n, row, k)
            generic = pure_partial_trace(amps, range(k)).matrix
            deficits += math.comb(n, k) * (1.0 - float(np.sum(np.abs(generic) ** 2)))
            deviations["reduced_density"].append(float(np.max(np.abs(structured - generic))))
            # any other k-qubit subset must give the same matrix
            subset = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            permuted = pure_partial_trace(amps, subset).matrix
            deviations["reduced_density"].append(float(np.max(np.abs(structured - permuted))))
        deviations["multiqubit_concurrence_forms"].append(
            abs(float(entanglement._multiqubit_radicand(n, row)) - deficits)
        )


def cross_validate(
    max_n: int = 8,
    j_values=(1, 2),
    seed: int = 0,
    fault: float = 0.0,
) -> ValidationSummary:
    """Run the full closed-form-vs-brute-force identity suite.

    Each measure identity compares the series that `ga` prints for an
    analytic `MEASURES` entry with its oracle. Every (n, j) is stepped once:
    the requested j values, then any of j = 1..4 not requested, which check
    only gga_uniform_equivalence. `fault` offsets the analytic solution
    amplitude a before every closed-form evaluation, as a self-test that
    broken identities are detected. Failures are returned as data, never
    raised.
    """
    if not 2 <= max_n <= 10:
        raise ValueError(f"max_n must lie in 2..10, got {max_n}")
    j_values = tuple(j_values)
    if not any(j < (1 << max_n) for j in j_values):
        raise ValueError(f"no solution count in {j_values} is below 2^max_n = {1 << max_n}")
    deviations = {name: [] for name in _IDENTITY_TOLERANCES}
    rng = np.random.default_rng(seed)  # random kept-qubit subsets (permutation symmetry)
    for n in range(2, max_n + 1):
        unrequested = tuple(j for j in (1, 2, 3, 4) if j not in j_values)
        for i, j in enumerate(j_values + unrequested):
            if j < 1 << n:
                uniform = j <= 4 and j not in j_values[:i]
                _check_series(GroverConfig(n=n, j=j), i < len(j_values), uniform, fault, rng, deviations)
    checks = tuple(
        IdentityCheck(name=name, max_deviation=float(np.max(devs)) if devs else None, tolerance=tol, cases=len(devs))
        for (name, tol), devs in zip(_IDENTITY_TOLERANCES.items(), deviations.values())
    )
    return ValidationSummary(checks=checks, fault=fault)

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
from .grover import (
    CAPACITY_QUBITS,
    GroverConfig,
    _reduced_matrix,
    ga_statevector_amplitudes,
    optimal_iterations,
    state_at,
)
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
    smaller than `min_qubits` have no value. Entries look functions up on
    their module at call time, so a function replaced there (e.g. by a
    tracer) is what runs.
    """

    closed_form: Callable
    oracle: Callable
    min_qubits: int = 1
    any_j: bool = False
    slow: bool = False

    def engine(self, cfg: GroverConfig, use_oracle: bool = True) -> str:
        """'analytic', 'oracle' or 'unavailable' for one (n, j) series."""
        if cfg.n < self.min_qubits:
            return "unavailable"
        if self.any_j or (cfg.j == 1 and cfg.solutions == (0,)):
            return "analytic"
        if use_oracle and cfg.n <= CAPACITY_QUBITS:
            return "oracle"
        return "unavailable"


MEASURES = {
    "p": Measure(
        closed_form=lambda cfg, st, opt: grover.success_probability(cfg, st),
        oracle=lambda amps, cfg, opt: float((np.abs(amps[list(cfg.solutions)]) ** 2).sum()),
        any_j=True,
    ),
    "cr": Measure(
        closed_form=lambda cfg, st, opt: coherence.coherence_r_ga(cfg, st),
        # S(rho) = 0 for a pure state, so C_r is the Shannon entropy of |amps|^2
        oracle=lambda amps, cfg, opt: shannon_entropy(np.abs(amps) ** 2),
        any_j=True,
    ),
    "cl1": Measure(
        closed_form=lambda cfg, st, opt: coherence.coherence_l1_ga(cfg, st),
        # sum_{x != y} |a_x||a_y| = (sum |a_x|)^2 - sum |a_x|^2
        oracle=lambda amps, cfg, opt: float(np.abs(amps).sum() ** 2 - (np.abs(amps) ** 2).sum()),
        any_j=True,
    ),
    "e2": Measure(
        closed_form=lambda cfg, st, opt: entanglement.concurrence_two_qubit_ga(cfg, st),
        oracle=lambda amps, cfg, opt: entanglement.concurrence_two_qubit(
            pure_partial_trace(amps, (0, 1))
        ),
        min_qubits=2,
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
    ),
    "m": Measure(
        closed_form=lambda cfg, st, opt: nonlocality.chsh_M_ga(cfg, st),
        oracle=lambda amps, cfg, opt: nonlocality.chsh_M(pure_partial_trace(amps, (0, 1))),
        min_qubits=2,
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


class _Accumulator:
    def __init__(self):
        self.max_dev = 0.0
        self.cases = 0

    def add(self, closed, generic):
        # A closed form that cannot even be evaluated (e.g. under injected
        # faults its discriminant leaves the admissible range) counts as an
        # infinitely broken identity rather than an exception.
        try:
            closed = closed() if callable(closed) else closed
        except (NumericalConsistencyError, ValueError):
            self.max_dev = math.inf
            self.cases += 1
            return
        self.max_dev = max(self.max_dev, float(abs(closed - generic)))
        self.cases += 1


def cross_validate(
    max_n: int = 8,
    j_values=(1, 2),
    seed: int = 0,
    fault: float = 0.0,
) -> ValidationSummary:
    """Run the full closed-form-vs-brute-force identity suite.

    `fault` offsets the analytic solution amplitude a before every closed-form
    evaluation, as a self-test that broken identities are detected. Failures
    are returned as data, never raised.
    """
    if not 2 <= max_n <= 10:
        raise ValueError(f"max_n must lie in 2..10, got {max_n}")
    if not any(j < (1 << max_n) for j in j_values):
        raise ValueError(f"no solution count in {tuple(j_values)} is below 2^max_n = {1 << max_n}")
    acc = {name: _Accumulator() for name in _IDENTITY_TOLERANCES}
    rng = np.random.default_rng(seed)  # random kept-qubit subsets (permutation symmetry)

    for n in range(2, max_n + 1):
        for j in j_values:
            if j >= (1 << n):
                continue
            cfg = GroverConfig(n=n, j=j)
            dist = evolve(cfg, 0)
            for r in range(optimal_iterations(cfg) + 1):
                st = state_at(cfg, r)
                if fault:
                    st = replace(st, a=st.a + fault)
                amps = dist.amplitudes
                probs = np.abs(amps) ** 2
                acc["grover_step_norm"].add(float(probs.sum()), 1.0)
                acc["normalization"].add(st.a**2 + (cfg.database_size - j) * st.b**2, 1.0)
                acc["success_probability"].add(
                    grover.success_probability(cfg, st), float(probs[list(cfg.solutions)].sum())
                )
                # the oracle's C_r leaves out S(rho) of the pure state; here it
                # is taken from the spectrum of the 1 x 1 Gram <psi|psi>
                s_rho = pure_subsystem_entropy(amps, range(n))
                acc["coherence_relative_entropy"].add(
                    lambda: coherence.coherence_r_ga(cfg, st),
                    MEASURES["cr"].oracle(amps, cfg, None) - s_rho,
                )
                acc["coherence_l1"].add(
                    coherence.coherence_l1_ga(cfg, st), MEASURES["cl1"].oracle(amps, cfg, None)
                )
                if j == 1:
                    rho2 = pure_partial_trace(amps, (0, 1))
                    acc["concurrence_two_qubit"].add(
                        entanglement.concurrence_two_qubit_ga(cfg, st),
                        entanglement.concurrence_two_qubit(rho2),
                    )
                    acc["chsh_M"].add(nonlocality.chsh_M_ga(cfg, st), nonlocality.chsh_M(rho2))
                    acc["genuine_discord"].add(
                        lambda: discord.genuine_discord_ga(cfg, st),
                        von_neumann_entropy(pure_partial_trace(amps, (0,))),
                    )
                    acc["partition_minimum"].add(
                        lambda: abs(
                            discord.genuine_discord_partition_min(cfg, r).value
                            - discord.genuine_discord_ga(cfg, st)
                        ),
                        0.0,
                    )
                    deficits = 0.0  # sum_k C(n,k) (1 - Tr rho_k^2) of the statevector
                    for k in range(1, n):
                        structured = _reduced_matrix(n, st, k)
                        generic = pure_partial_trace(amps, range(k)).matrix
                        deficits += math.comb(n, k) * (1.0 - float(np.sum(np.abs(generic) ** 2)))
                        acc["reduced_density"].add(
                            float(np.max(np.abs(structured - generic))), 0.0
                        )
                        # any other k-qubit subset must give the same matrix
                        subset = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
                        permuted = pure_partial_trace(amps, subset).matrix
                        acc["reduced_density"].add(
                            float(np.max(np.abs(structured - permuted))), 0.0
                        )
                    acc["multiqubit_concurrence_forms"].add(
                        entanglement._multiqubit_radicand(n, st), deficits
                    )
                dist = gga_iterate(dist, 1)

    # the iterated statevector is the closed-form state: a/sqrt(j) on every
    # solution, b elsewhere
    for n in range(2, max_n + 1):
        for j in (1, 2, 3, 4):
            if j >= (1 << n):
                continue
            cfg = GroverConfig(n=n, j=j)
            dist = evolve(cfg, 0)
            for r in range(optimal_iterations(cfg) + 1):
                st = state_at(cfg, r)
                if fault:
                    st = replace(st, a=st.a + fault)
                closed = ga_statevector_amplitudes(cfg, st)
                acc["gga_uniform_equivalence"].add(
                    float(np.max(np.abs(dist.amplitudes - closed))), 0.0
                )
                dist = gga_iterate(dist, 1)

    checks = tuple(
        IdentityCheck(
            name=name,
            max_deviation=acc[name].max_dev if acc[name].cases else None,
            tolerance=tol,
            cases=acc[name].cases,
        )
        for name, tol in _IDENTITY_TOLERANCES.items()
    )
    return ValidationSummary(checks=checks, fault=fault)

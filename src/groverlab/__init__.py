"""Grover / generalized-Grover simulation with quantum-correlation diagnostics."""

__version__ = "0.1.0"

from .bruteforce import (
    DEFAULT_GA_MEASURES,
    MEASURE_KEYS,
    MEASURES,
    Measure,
    cross_validate,
    evolve,
)
from .coherence import (
    coherence_asymptotics,
    coherence_l1_ga,
    coherence_r_ga,
    cost_performance,
)
from .discord import (
    DiscordSolution,
    genuine_discord_ga,
    pairwise_discord,
    pairwise_discord_closed_form,
    pairwise_discord_ga,
)
from .entanglement import (
    concurrence_multiqubit_ga,
    concurrence_two_qubit,
    concurrence_two_qubit_ga,
    multiqubit_concurrence_pure,
)
from .errors import (
    AmplitudeFileError,
    AsymptoticRegimeWarning,
    CapacityError,
    InvalidStateError,
    NumericalConsistencyError,
    UnsupportedStructureError,
)
from .gga import (
    AmplitudeDistribution,
    GGAClosedForm,
    GGAOptimalTime,
    PhiFamily,
    distribution_from_json,
    gga_closed_form,
    gga_iterate,
    gga_optimal_time,
    gga_pmax,
    phi_family_delta_coherence,
    phi_family_optimal_time,
)
from .grover import (
    CAPACITY_QUBITS,
    FLOAT_SAFE_QUBITS,
    GroverConfig,
    OptimalIteration,
    SymmetricGAState,
    optimal_iteration_details,
    optimal_iterations,
    reduced_density,
    state_at,
    success_probability,
)
from .linalg import (
    DensityMatrix,
    PureState,
    binary_entropy,
    pure_partial_trace,
    pure_subsystem_entropy,
    shannon_entropy,
    von_neumann_entropy,
)
from .nonlocality import (
    CorrelationTensor,
    SvetlichnyResult,
    chsh_M,
    chsh_M_ga,
    correlation_matrix,
    correlation_tensor_3,
    svetlichny_max,
    svetlichny_max_ga,
)
from .optimizers import OptimizerConfig

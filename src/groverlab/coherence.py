"""Closed-form coherences of the Grover search state and their large-N asymptotics."""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import AsymptoticRegimeWarning
from .grover import GroverConfig, SymmetricGAState

# j/N and N thresholds below which the linearized coherence formulas apply.
REGIME_RATIO_MAX = 1.0 / 64.0
REGIME_MIN_QUBITS = 10


def coherence_r_ga(cfg: GroverConfig, st: SymmetricGAState):
    """Relative-entropy coherence of the GA state; independent of solution placement.

    C_r = H(p) + log2(N-j) + p log2(j/(N-j)) with p = a^2, grouped to avoid
    cancellation. At r = 0 this reduces algebraically to log2 N, which is
    returned exactly instead of through trig round-off.
    """
    p = np.clip(np.square(st.a), 0.0, 1.0)
    rest = float(cfg.database_size - cfg.j)
    with np.errstate(divide="ignore", invalid="ignore"):
        head = np.where(p > 0.0, p * np.log2(cfg.j / p), 0.0)
        tail = np.where(p < 1.0, (1.0 - p) * np.log2(rest / (1.0 - p)), 0.0)
    # [()] turns the 0-d result of a scalar state back into a scalar
    return np.where(st.r == 0, float(cfg.n), head + tail)[()]


def coherence_l1_ga(cfg: GroverConfig, st: SymmetricGAState):
    """l1 coherence of the GA state: (sqrt(j)|sin a_r| + sqrt(N-j)|cos a_r|)^2 - 1.

    sqrt(N-j)|b| = |cos a_r|, so this is (sqrt(j)|a| + (N-j)|b|)^2 - 1.
    Magnitudes keep the expression equal to the generic l1 sum at r = r_opt,
    where the accumulated angle may pass pi/2 and cos a_r turns negative.
    """
    rest = float(cfg.database_size - cfg.j)
    return np.square(math.sqrt(cfg.j) * np.abs(st.a) + rest * np.abs(st.b)) - 1.0


def in_asymptotic_regime(cfg: GroverConfig) -> bool:
    return cfg.j / cfg.database_size <= REGIME_RATIO_MAX and cfg.n >= REGIME_MIN_QUBITS


def _warn_if_outside_regime(cfg: GroverConfig, what: str) -> None:
    if not in_asymptotic_regime(cfg):
        warnings.warn(
            f"{what}: j/N = {cfg.j / cfg.database_size:.3g}, N = {cfg.database_size} "
            "is outside the j << N, N >> 1 regime; value computed anyway",
            AsymptoticRegimeWarning,
            stacklevel=3,
        )


def coherence_asymptotics(cfg: GroverConfig, p: float) -> tuple[float, float]:
    """Linearized coherences (-P log2(N/j) + log2 N, N - N P) for j << N."""
    _warn_if_outside_regime(cfg, "coherence_asymptotics")
    N = cfg.database_size
    ratio = math.log2(N / cfg.j)
    return (-p * ratio + math.log2(N), N - N * p)


def cost_performance(cfg: GroverConfig, measure: str = "relative-entropy") -> float:
    """Success-probability gain per unit of coherence spent, in the j << N limit."""
    _warn_if_outside_regime(cfg, "cost_performance")
    if measure == "relative-entropy":
        return 1.0 / math.log2(cfg.database_size / cfg.j)
    if measure == "l1":
        return 1.0 / cfg.database_size
    raise ValueError(f"unknown coherence measure {measure!r}")

"""Shared configuration for the derivative-free measure optimizers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OptimizerConfig:
    """Grid/restart settings for discord minimization and Svetlichny maximization.

    Restart i draws its start point from default_rng([seed, i]), so enlarging
    the restart count only ever extends the explored set: results are monotone
    in `restarts` at fixed seed. `refine_tol` bounds the last step of a
    measurement direction (the discord stencil's spacing, the largest move of
    a Svetlichny direction in one sweep); `refine_maxiter` caps the stencil
    levels or the sweeps per restart.
    """

    theta_grid: int = 64
    phi_grid: int = 128
    restarts: int = 64
    seed: int = 0
    refine_tol: float = 1e-8
    refine_maxiter: int = 400

    def __post_init__(self):
        if self.theta_grid < 2 or self.phi_grid < 2:
            raise ValueError("grid sizes must be at least 2")
        if self.restarts < 1:
            raise ValueError("restart count must be at least 1")
        if self.refine_maxiter < 0:
            raise ValueError("refine_maxiter must be >= 0")


def restart_rng(config: OptimizerConfig, restart: int) -> np.random.Generator:
    return np.random.default_rng([config.seed, restart])

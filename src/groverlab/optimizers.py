"""Shared configuration for the derivative-free measure optimizers."""

from __future__ import annotations

from dataclasses import dataclass

# The most discord grid points, 1024x2048: one two-qubit state on its 257x2048 hemisphere took about 0.2 s and 187 MB.
MAX_GRID_POINTS = 2**21
# The most Svetlichny restarts: 4,096 took about 0.13 s and 44 MB peak RSS for one three-qubit state.
MAX_RESTARTS = 4096


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
            raise ValueError("--grid sizes must be at least 2")
        points = self.theta_grid * self.phi_grid
        if points > MAX_GRID_POINTS:
            raise ValueError(f"--grid THETAxPHI may have at most {MAX_GRID_POINTS:,} points, got {points:,}")
        if not 1 <= self.restarts <= MAX_RESTARTS:
            raise ValueError(f"--restarts must lie in 1..{MAX_RESTARTS:,}, got {self.restarts:,}")
        if self.refine_maxiter < 0:
            raise ValueError("refine_maxiter must be >= 0")

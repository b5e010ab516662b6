"""Seasonal vocabulary: column-stochastic transition matrices, the schedule
of per-block data summaries, and the seasonal entry point of the one
posterior in ``model``.

Blocks are time ordered: cycle c, season s sits at t = S*(c-1) + s, and the
weights evolve by the recurrence omega_{t+1} = A omega_t starting from the
season-1 weights (so block t uses t-1 transition applications).  Columns of
A summing to one is exactly the condition that keeps the weights on the
simplex.  The static model is the one-block case, so the seasonal layout
and parameters are the model's own (``SDLayout`` is ``StateLayout``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hyper import PriorTargets, SolvedHyper
from .model import (DataSummary, SDParams, StateLayout,  # noqa: F401 - seasonal names
                    _log_posterior_blocks, omega_trajectory)

COLSUM_TOL = 1e-9

SDLayout = StateLayout


@dataclass(frozen=True)
class StochasticMatrix:
    """Column-stochastic transition matrix, optionally with the positive
    gamma draws that generated it."""

    matrix: np.ndarray
    gammas: np.ndarray | None = None

    def __post_init__(self):
        A = np.asarray(self.matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("transition matrix must be square")
        if np.any(A < 0):
            raise ValueError("transition matrix entries must be nonnegative")
        if np.max(np.abs(A.sum(axis=0) - 1.0)) > COLSUM_TOL:
            raise ValueError("every column of the transition matrix must sum to 1")

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def stochastic_from_gammas(G: np.ndarray) -> StochasticMatrix:
    """Normalize a positive matrix column-wise; columns of iid Gamma(alpha, 1)
    entries yield Dirichlet(alpha 1) distributed columns."""
    G = np.asarray(G, dtype=float)
    if np.any(G <= 0):
        raise ValueError("gamma matrix entries must be strictly positive")
    return StochasticMatrix(matrix=G / G.sum(axis=0, keepdims=True), gammas=G.copy())


@dataclass(frozen=True)
class SeasonSchedule:
    """Per-block data summaries in time order (season fastest)."""

    n_seasons: int
    n_cycles: int
    blocks: tuple[DataSummary, ...]

    def __post_init__(self):
        if len(self.blocks) != self.n_seasons * self.n_cycles:
            raise ValueError("need one data block per (cycle, season) pair")
        d1, d2 = self.blocks[0].d1, self.blocks[0].d2
        if any(b.d1 != d1 or b.d2 != d2 for b in self.blocks):
            raise ValueError("all blocks must share the mode dimensions")

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def d1(self) -> int:
        return self.blocks[0].d1

    @property
    def d2(self) -> int:
        return self.blocks[0].d2

    def block_index(self, cycle: int, season: int) -> int:
        """0-based block position of 1-based (cycle, season)."""
        if not (1 <= cycle <= self.n_cycles and 1 <= season <= self.n_seasons):
            raise ValueError("cycle/season out of range")
        return self.n_seasons * (cycle - 1) + (season - 1)


def sd_log_posterior_grad(u: np.ndarray, layout: StateLayout, schedule: SeasonSchedule,
                          hyper: SolvedHyper, targets: PriorTargets
                          ) -> tuple[float, np.ndarray]:
    """Seasonal log posterior and exact gradient in unconstrained coordinates,
    over every block of ``schedule``.  ``targets`` is accepted for interface
    symmetry; the centering is baked into ``hyper``.
    """
    return _log_posterior_blocks(u, layout, schedule.blocks, hyper)

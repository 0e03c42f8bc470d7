"""Sampled counter trajectories on a uniform output grid."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TrajectoryFrame:
    """Per-type counter trajectories sampled on a uniform time grid.

    All arrays have shape (G, d) where G is the number of grid points and d
    the number of conflict types.  Values are step-function samples: the
    state recorded at grid time g reflects every event with time <= g.
    """

    times: np.ndarray
    tips: np.ndarray
    free: np.ndarray
    pending: np.ndarray
    created: np.ndarray


def make_grid(horizon: float, dt: float) -> np.ndarray:
    if not dt > 0:
        raise ValueError("grid spacing must be positive")
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    n = int(round(horizon / dt))
    return np.arange(n + 1) * dt


class GridRecorder:
    """Fills a uniform grid with piecewise-constant counter states.

    Call ``advance(event_time, state)`` with the state that held *before*
    the event at ``event_time`` is applied; every grid point strictly below
    the event time is stamped.  ``finish(state)`` stamps the remainder.
    """

    def __init__(self, grid: np.ndarray, types: int):
        self.grid = grid
        g = len(grid)
        self.tips = np.zeros((g, types))
        self.free = np.zeros((g, types))
        self.pending = np.zeros((g, types))
        self.created = np.zeros((g, types))
        self._cursor = 0

    def advance(self, event_time: float, tips, free, pending, created) -> None:
        k = self._cursor
        grid = self.grid
        while k < len(grid) and grid[k] < event_time:
            self.tips[k] = tips
            self.free[k] = free
            self.pending[k] = pending
            self.created[k] = created
            k += 1
        self._cursor = k

    def finish(self, tips, free, pending, created) -> TrajectoryFrame:
        self.advance(np.inf, tips, free, pending, created)
        return TrajectoryFrame(self.grid, self.tips, self.free, self.pending, self.created)

"""Transaction arrival processes shared by the ledger simulators."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_KINDS = ("poisson", "fixed")


@dataclass(frozen=True)
class ArrivalProcess:
    """Creation times for new transactions.

    rate: mean number of creations per unit time (must be positive).
    kind: "poisson" draws exponential inter-arrival gaps, "fixed" spaces
        creations exactly 1/rate apart.
    stop: if set, no transaction is created after this time even when the
        simulation horizon extends past it.
    """

    rate: float
    kind: str = "poisson"
    stop: float | None = None

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ValueError(f"arrival rate must be positive, got {self.rate}")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown arrival kind {self.kind!r}, expected one of {_KINDS}")
        if self.stop is not None and self.stop < 0:
            raise ValueError(f"arrival stop time must be non-negative, got {self.stop}")

    def times(self, horizon: float, rng: np.random.Generator) -> np.ndarray:
        """Strictly increasing creation times in (0, min(stop, horizon)]."""
        end = horizon if self.stop is None else min(self.stop, horizon)
        if end <= 0:
            return np.empty(0)
        if self.kind == "fixed":
            gap = 1.0 / self.rate
            # one candidate more: end / gap can round below a lattice point at end
            times = gap * np.arange(1, int(end / gap) + 2)
            return times[times <= end]
        out: list[np.ndarray] = []
        t = 0.0
        block = max(64, int(self.rate * end * 1.1) + 16)
        while t <= end:
            gaps = rng.exponential(1.0 / self.rate, size=block)
            chunk = t + np.cumsum(gaps)
            out.append(chunk)
            t = chunk[-1]
            block = max(64, block // 4)
        times = np.concatenate(out)
        return times[times <= end]

"""Deterministic per-run random streams and the seeded ensemble driver."""
from __future__ import annotations

import functools
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterator

import numpy as np


def seed_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible generator for ensemble member `index`.

    Identical (master_seed, index) pairs give bit-identical streams; distinct
    indices give statistically independent streams.
    """
    if index < 0:
        raise ValueError("run index must be non-negative")
    return np.random.default_rng(
        np.random.SeedSequence(int(master_seed), spawn_key=(int(index),))
    )


def _seeded_member(member: Callable[[np.random.Generator], Any], master_seed: int, index: int):
    return member(seed_stream(master_seed, index))


def seeded_runs(
    member: Callable[[np.random.Generator], Any],
    master_seed: int,
    runs: int,
    workers: int = 1,
) -> Iterator:
    """Iterate over ``member(seed_stream(master_seed, r))`` for r in range(runs).

    Members come in run-index order whatever the worker count, so what a
    caller builds from them does not depend on it.  With one worker they
    run in this process as they are consumed.  With more, they run in a
    process pool of ``min(workers, runs)`` processes (``member`` must
    pickle), one run per task: the pool's result thread receives each
    task's result whole, in memory the caller's thread does not reuse, so
    a few large blocks of runs raise the caller's peak memory by about the
    size of a block.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    seeded = functools.partial(_seeded_member, member, master_seed)
    workers = min(workers, runs)
    if workers == 1:
        return map(seeded, range(runs))
    return _pooled(seeded, runs, workers)


def _pooled(seeded: Callable[[int], Any], runs: int, workers: int) -> Iterator:
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(seeded, range(runs))

"""Deterministic per-run random streams and the seeded ensemble driver."""
from __future__ import annotations

import contextlib
import functools
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor


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


def worker_pool(workers: int):
    """A process pool of ``workers`` processes for ``seeded_runs`` to share
    across ensembles, or a context holding None for one worker.  The pool's
    module is imported only here, so a one-worker command never loads it."""
    if workers <= 1:
        return contextlib.nullcontext()
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers)


def spans(runs: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous blocks of ``ceil(runs / workers)`` runs, the last one shorter."""
    size = -(-runs // workers)
    return [(start, min(start + size, runs)) for start in range(0, runs, size)]


def _seeded_block(member: Callable, master_seed: int, span: tuple[int, int]) -> np.ndarray:
    """The float64 stacked results of runs ``span[0]..span[1]-1``."""
    return np.asarray(member([seed_stream(master_seed, r) for r in range(*span)]), dtype=float)


def seeded_runs(
    member: Callable,
    master_seed: int,
    runs: int,
    workers: int = 1,
    pool: ProcessPoolExecutor | None = None,
) -> np.ndarray:
    """The float64 ``(runs, ...)`` stack whose row r is run r's result
    from ``seed_stream(master_seed, r)``.

    ``member(rngs)`` gives the array of the stacked results of a block of
    consecutive runs, one row per generator and rows of one shape for every
    run, which lets a model step the runs of a block together.  The runs are cut into
    the blocks of ``spans``, at most one per worker.  A single block runs in this process;
    several run one task per block on ``pool`` (or on a pool made for this
    call), so ``member`` must pickle.  A block's rows do not depend on the
    other runs in it, and the blocks land in run-index order, so the stack
    does not depend on the worker count.  Each block is copied into its
    rows as it arrives and then dropped; a single block is the stack itself.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    blocks = spans(runs, workers)
    task = functools.partial(_seeded_block, member, master_seed)
    if len(blocks) == 1:
        return task(blocks[0])
    if pool is None:
        with worker_pool(len(blocks)) as pool:
            return seeded_runs(member, master_seed, runs, workers, pool)
    for (start, stop), rows in zip(blocks, pool.map(task, blocks)):
        if start == 0:
            stack = np.empty((runs,) + rows.shape[1:])
        stack[start:stop] = rows
    return stack

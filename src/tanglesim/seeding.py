"""Deterministic per-run random streams and the seeded ensemble driver."""
from __future__ import annotations

import contextlib
import functools
from itertools import chain
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


_WORDS = 1024  # 64-bit words per random_raw call


def _pcg64(rng: np.random.Generator) -> np.random.PCG64:
    """``rng``'s bit generator, which a stream of raw words needs to be PCG64."""
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64:
        raise ValueError(
            f"stream-exact integers need a PCG64 generator, got {type(bitgen).__name__}"
        )
    return bitgen


def word_stream(rng: np.random.Generator) -> Callable[[], int]:
    """``word()`` giving the 32-bit words that successive scalar
    ``rng.integers(n)`` calls consume; ``rng`` must run on PCG64.

    numpy draws such an integer by Lemire's method (Lemire 2019, "Fast
    random integer generation in an interval"): with ``m = word() * n``
    the value is ``m >> 32``, unless ``m & 0xFFFFFFFF < n``, when
    ``lemire_redraw(m, n, word)`` finishes the draw.  A bound of 1 draws
    no word.  PCG64 serves each 64-bit output as its low half, then its
    high half, and keeps the spare half in its state.  Here the words come
    from ``random_raw`` in chunks, after the half buffered at entry, so the
    generator's state afterwards is not that of the scalar calls.
    """
    bitgen = _pcg64(rng)
    state = bitgen.state
    spare = [state["uinteger"]] if state["has_uint32"] else []

    def halves() -> list[int]:
        w = bitgen.random_raw(_WORDS)
        return np.stack((w & 0xFFFFFFFF, w >> 32), axis=1).ravel().tolist()

    return chain(spare, chain.from_iterable(iter(halves, None))).__next__


def lemire_redraw(m: int, n: int, word: Callable[[], int]) -> int:
    """The integer below ``n`` (2 <= n <= 2**32) that numpy's draw gives
    when its first product ``m = word() * n`` has a low half below ``n``:
    products whose low half is below numpy's threshold, 2**32 mod n, are
    drawn again.  At n = 2**32 the threshold is 0 and the draw is the word
    itself, which numpy returns there."""
    floor = 0x100000000 % n
    while m & 0xFFFFFFFF < floor:
        m = word() * n
    return m >> 32


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

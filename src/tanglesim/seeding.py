"""Deterministic per-run random streams and the seeded ensemble driver."""
from __future__ import annotations

import functools
from concurrent.futures import ProcessPoolExecutor
from itertools import chain
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


_WORDS = 1024  # 64-bit words per random_raw call


def integer_stream(rng: np.random.Generator) -> Callable[[int], int]:
    """``draw(n)`` giving the values of successive scalar ``rng.integers(n)``
    calls, for 1 <= n <= 2**32; ``rng`` must run on PCG64.

    numpy draws such an integer by Lemire's method (Lemire 2019, "Fast
    random integer generation in an interval") on 32-bit words, with no
    word for n = 1 and the raw word for n = 2**32.  PCG64 serves each
    64-bit output as its low half, then its high half, and keeps the spare
    half in its state.  Here the words come from ``random_raw`` in chunks,
    after the half buffered at entry, so the generator's state afterwards
    is not that of the scalar calls.
    """
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64:
        raise ValueError(
            f"stream-exact integers need a PCG64 generator, got {type(bitgen).__name__}"
        )
    state = bitgen.state
    spare = [state["uinteger"]] if state["has_uint32"] else []

    def halves() -> list[int]:
        w = bitgen.random_raw(_WORDS)
        return np.stack((w & 0xFFFFFFFF, w >> 32), axis=1).ravel().tolist()

    word = chain(spare, chain.from_iterable(iter(halves, None))).__next__

    def draw(n: int) -> int:
        if n <= 1 or n >= 0x100000000:
            if n == 1:
                return 0
            if n == 0x100000000:
                return word()
            raise ValueError(f"integer bound must be in [1, 2**32], got {n}")
        m = word() * n
        if m & 0xFFFFFFFF < n:
            # numpy's rejection threshold, 2**32 mod n
            floor = 0x100000000 % n
            while m & 0xFFFFFFFF < floor:
                m = word() * n
        return m >> 32

    return draw


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

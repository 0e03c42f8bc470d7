"""Deterministic per-run random streams and the seeded ensemble driver."""
from __future__ import annotations

import contextlib
import functools
from concurrent.futures import ProcessPoolExecutor
from itertools import chain
from typing import Any, Callable

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
) -> np.ndarray:
    """The float64 ``(runs, ...)`` stack whose row r is
    ``member(seed_stream(master_seed, r))``; every member returns an array
    (or a number) of one shape.

    Rows are in run-index order whatever the worker count, so what a caller
    builds from the stack does not depend on it.  Each result is copied
    into its row as it arrives and then dropped, so no list of results is
    kept.  With one worker the members run in this process; with more, in
    a process pool of ``min(workers, runs)`` processes (``member`` must
    pickle), one run per task: the pool receives each task's result whole,
    so tasks of several runs would raise peak memory by about a task.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    seeded = functools.partial(_seeded_member, member, master_seed)
    workers = min(workers, runs)
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        results = pool.map(seeded, range(runs)) if pool else map(seeded, range(runs))
        for r, out in enumerate(results):
            if r == 0:
                stack = np.empty((runs,) + np.shape(out))
            stack[r] = out
    return stack

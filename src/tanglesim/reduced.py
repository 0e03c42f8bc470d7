"""Reduced stochastic model of DAG-ledger tip dynamics.

Instead of tracking the full ledger graph, this model keeps four integer
counters per conflict type: cumulative created transactions, current tip
count, pending tips (selected by a not-yet-attached transaction), and free
tips.  A new transaction picks two parents uniformly at random with
replacement from the current tips, conditioned on both picks sharing a type;
the number of *distinct free* tips it covers drives all counter updates.
Each transaction attaches a fixed delay after its creation, and attach events
at the same instant are processed before creations so that every draw sees
left-limit counter values.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import mul

import numpy as np

from .arrivals import ArrivalProcess
from .trajectory import TrajectoryFrame, make_grid


class ExtinctLedgerError(RuntimeError):
    """Raised when a transaction must be created but no type has any tips."""


class InvariantError(RuntimeError):
    """A model's bookkeeping broke one of its invariants; unlike ``assert``,
    this is raised under ``python -O`` too."""


@dataclass(frozen=True)
class Injection:
    """A burst of forced-type transactions created at one instant."""

    time: float
    type_label: int
    count: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"injection time must be non-negative, got {self.time}")
        if self.type_label < 2:
            raise ValueError(
                f"injection type must be 2 or above (1 is the honest type), got {self.type_label}"
            )
        if self.count < 1:
            raise ValueError(f"injection count must be at least 1, got {self.count}")


class _TangleSim:
    """What both tangle models are built from, checked once here: the
    arrival process, the attach delay, the number of conflict types and the
    bursts.  Each model's ``run`` is defined in its own class."""

    def __init__(
        self,
        arrivals: ArrivalProcess,
        delay: float,
        types: int = 1,
        injections: tuple[Injection, ...] = (),
    ):
        if not delay > 0:
            raise ValueError(f"attach delay must be positive, got {delay}")
        if types < 1:
            raise ValueError(f"need at least one conflict type, got {types}")
        for inj in injections:
            if inj.type_label > types:
                raise ValueError(
                    f"injection type {inj.type_label} exceeds declared types {types}"
                )
        self.arrivals = arrivals
        self.delay = delay
        self.types = types
        self.injections = tuple(sorted(injections, key=lambda i: i.time))


class ReducedTangleSim(_TangleSim):
    """Simulation of the per-type counter model.

    The ledger starts from a single attached free tip of type 1.  Honest
    transactions arrive via ``arrivals``; injections force their type but
    sample tip coverage against that type's counters like any creation.  The
    first injection of a type with no tips contributes one attached free tip
    immediately (the forced branch point), so the remaining burst members
    have a tip to select.

    Attach times are fixed at creation, so ``run`` builds the whole creation
    schedule up front, draws each creation's type and coverage in one loop
    over creations, and fills the output grid from the draws afterwards.
    """

    def run(
        self, horizon: float, rng: np.random.Generator, grid_dt: float = 0.5,
        check: bool = False,
    ) -> TrajectoryFrame:
        """One ledger history up to ``horizon``, sampled every ``grid_dt``.

        The arrival times are drawn from ``rng`` first; the uniforms of the
        creations then come from the same stream in fixed-size chunks.
        ``check`` checks every type's counters after every event.
        """
        grid = make_grid(horizon, grid_dt)  # refuses a horizon <= 0
        arrivals = self.arrivals.times(horizon, rng)
        ct, blocks, seeds = _schedule(arrivals, self.injections, horizon)
        typ, cov = _kernel(ct, blocks, self.delay, self.types, horizon, rng, check)
        return _fill_grid(grid, horizon, self.delay, ct, typ, cov, seeds, self.types)


def _schedule(arrivals: np.ndarray, injections, horizon: float):
    """Creation times in processing order, cut into blocks; both tangle
    models run on this schedule.

    A block is ``(start, stop, forced, seed)``: creations ``start..stop-1``
    are honest (``forced`` is -1) or members of one burst of 0-based type
    ``forced``; ``seed`` marks the first burst of a type, which seeds the
    type with one attached free tip before its members.  Burst members
    precede honest arrivals at the same instant.  Whether a type is seeded
    does not depend on the counters: a type only gains tips once seeded and
    never loses its last one (an attach covering two pending tips adds a
    free one), so the first burst of each type is the one that seeds it.
    Returns the creation times, the blocks and {type: seed time}.
    """
    bursts = [inj for inj in injections if inj.time <= horizon]
    cuts = np.searchsorted(arrivals, [inj.time for inj in bursts], side="left")
    pieces, blocks, seeds = [], [], {}
    n = done = 0
    for inj, cut in zip(bursts, cuts.tolist()):
        if cut > done:
            pieces.append(arrivals[done:cut])
            blocks.append((n, n + cut - done, -1, False))
            n += cut - done
            done = cut
        i = inj.type_label - 1
        seed = i not in seeds
        if seed:
            seeds[i] = inj.time
        m = inj.count - seed
        pieces.append(np.full(m, inj.time))
        blocks.append((n, n + m, i, seed))
        n += m
    if len(arrivals) > done:
        pieces.append(arrivals[done:])
        blocks.append((n, n + len(arrivals) - done, -1, False))
    ct = np.concatenate(pieces) if pieces else np.empty(0)
    return ct, blocks, seeds


_CHUNK = 1024  # uniforms per Generator.random call


def _kernel(ct, blocks, delay, types, horizon, rng, check):
    """Draw each creation's type and free-tip coverage, in schedule order.

    Every attach at or before a creation's time is applied before it
    (attaches are FIFO: the attach time is creation time + delay).  Returns
    per-creation 0-based types and coverages (0, 1 or 2).  The counters are
    exact Python ints, which give the same draws as integral floats.
    """
    tips = [0] * types
    free = [0] * types
    pend = [0] * types
    tips[0] = free[0] = 1
    seeded = 1
    n = len(ct)
    typ = np.zeros(n, dtype=np.intp)
    cov = np.zeros(n, dtype=np.uint8)
    typ_v = memoryview(typ)
    cov_v = memoryview(cov)
    attach_times = ct + delay
    # attaches that precede each creation; attaches win ties
    attached = memoryview(np.searchsorted(attach_times, ct, side="right"))
    # Generator.random(k) yields the doubles of k scalar random() calls
    draw = chain.from_iterable(iter(lambda: rng.random(_CHUNK).tolist(), None)).__next__

    def verify() -> None:
        for i in range(types):
            if free[i] + pend[i] != tips[i] or min(free[i], pend[i]) < 0:
                raise InvariantError(
                    f"type {i + 1}: free {free[i]} + pending {pend[i]} != tips {tips[i]}"
                    " or a count below 0"
                )

    a = 0
    for start, stop, forced, seed in blocks:
        if seed:
            tips[forced] = free[forced] = 1
            seeded += 1
            if check:
                verify()
        pick = forced < 0 and seeded > 1
        i = forced if forced >= 0 else 0
        for k in range(start, stop):
            e = attached[k]
            while a < e:
                j = typ_v[a]
                u = cov_v[a]
                tips[j] += 1 - u
                free[j] += 1
                pend[j] -= u
                a += 1
                if check:
                    verify()
            if pick:
                # type i with probability tips[i]**2 / sum(tips**2); types
                # not yet seeded have no tips and so are never picked
                r = draw() * sum(map(mul, tips, tips))
                i = 0
                acc = tips[0] * tips[0]
                while r > acc:
                    i += 1
                    acc += tips[i] * tips[i]
            x = free[i]
            w = pend[i]
            t = tips[i]
            denom = t * t
            p0 = w * w / denom
            r = draw()
            if r < p0:
                u = 0
            elif r < p0 + (2 * w + 1) * x / denom:
                u = 1
            else:
                u = 2
            free[i] = x - u
            pend[i] = w + u
            typ_v[k] = i
            cov_v[k] = u
            if check:
                verify()
    if check:
        # the attaches after the last creation, up to the horizon
        end = int(np.searchsorted(attach_times, horizon, side="right"))
        for j, u in zip(typ[a:end].tolist(), cov[a:end].tolist()):
            tips[j] += 1 - u
            free[j] += 1
            pend[j] -= u
            verify()
    return typ, cov


def _fill_grid(grid, horizon, delay, ct, typ, cov, seeds, types) -> TrajectoryFrame:
    """Counters at each grid time, counting every event at or before it.

    Events after ``horizon`` do not count (a fixed arrival lattice can
    overshoot it by an ulp), so grid times past it see the state at the
    horizon.
    """
    g = np.minimum(grid, horizon)
    shape = (len(grid), types)
    tips, free, pend, created = (np.zeros(shape) for _ in range(4))
    for i in range(types):
        if i == 0:
            base = np.ones(len(g), dtype=np.intp)
        elif i in seeds:
            base = (g >= seeds[i]).astype(np.intp)
        else:
            continue
        mine = typ == i
        cti = ct[mine]
        cum = np.concatenate(([0], np.cumsum(cov[mine], dtype=np.intp)))
        nc = np.searchsorted(cti, g, side="right")
        na = np.searchsorted(cti + delay, g, side="right")
        created[:, i] = base + nc
        free[:, i] = base + na - cum[nc]
        pend[:, i] = cum[nc] - cum[na]
        tips[:, i] = base + na - cum[na]
    return TrajectoryFrame(grid, tips, free, pend, created)

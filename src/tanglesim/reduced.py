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
    bursts.  Each model defines its own ``run``; ``run_block`` runs a block
    of members, here one ``run`` after another."""

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

    def run_block(
        self, horizon: float, rngs, grid_dt: float = 0.5, check: bool = False,
    ) -> np.ndarray:
        """The float64 ``(len(rngs), 4, G, d)`` counters (tips, free,
        pending, created) of one history per generator, each as ``run``
        gives it."""
        out = np.empty((len(rngs), 4, len(make_grid(horizon, grid_dt)), self.types))
        for j, rng in enumerate(rngs):
            frame = self.run(horizon, rng, grid_dt, check)
            out[j] = frame.tips, frame.free, frame.pending, frame.created
        return out


class ReducedTangleSim(_TangleSim):
    """Simulation of the per-type counter model.

    The ledger starts from a single attached free tip of type 1.  Honest
    transactions arrive via ``arrivals``; injections force their type but
    sample tip coverage against that type's counters like any creation.  The
    first injection of a type with no tips contributes one attached free tip
    immediately (the forced branch point), so the remaining burst members
    have a tip to select.

    Attach times are fixed at creation, so each member's creation schedule
    is built up front, and ``run_block`` draws the creations of a block of
    members in lockstep: one step per creation index, each a few numpy
    operations across the block.  ``run`` is that block on one generator.
    """

    def run(
        self, horizon: float, rng: np.random.Generator, grid_dt: float = 0.5,
        check: bool = False,
    ) -> TrajectoryFrame:
        """One ledger history up to ``horizon``, sampled every ``grid_dt``.

        The arrival times are drawn from ``rng`` first; the uniforms of the
        creations then come from the same stream.  ``check`` checks the
        counters at every event.
        """
        counters = self.run_block(horizon, [rng], grid_dt, check)[0]
        return TrajectoryFrame(make_grid(horizon, grid_dt), *counters)

    def run_block(
        self, horizon: float, rngs, grid_dt: float = 0.5, check: bool = False,
    ) -> np.ndarray:
        """The float64 ``(len(rngs), 4, G, d)`` counters (tips, free,
        pending, created) of one history per generator; row j is what
        ``run`` gives on ``rngs[j]``, whatever the other members.

        The whole block runs as one lockstep, which holds one byte per
        creation of every member while it runs.
        """
        grid = make_grid(horizon, grid_dt)  # refuses a horizon <= 0
        # the horizon is read as one more grid time, for the check at the end
        g = np.append(np.minimum(grid, horizon), horizon)
        out = np.zeros((len(rngs), 4, len(g), self.types))
        if not rngs:
            return out[:, :, :-1]
        members = [_member(self, horizon, g, rng) for rng in rngs]
        seeds = [mem.seeds for mem in members]
        _lockstep(members, self.types, check, out)
        del members  # before the grid fill
        _fill(seeds, g, check, out)
        return out[:, :, :-1]


def _schedule(sim: _TangleSim, horizon: float, rng, g: np.ndarray):
    """The event order both tangle models run on, made only here: draws
    the arrival times from ``rng`` and returns the creation times in
    processing order (burst members precede honest arrivals at the same
    instant); A, the attaches made before each creation (attaches win
    ties); the blocks; {type: seed time}; and the int32 ``(2, len(g))``
    attaches, then creations, made at or before each time of ``g``.

    A block is ``(start, stop, forced, draws, seed)``: creations
    ``start..stop-1`` are honest (``forced`` is -1) or members of one burst
    of 0-based type ``forced``; ``draws`` marks honest creations after the
    first seed, the only ones that draw a type (before it every tip is of
    type 1); ``seed`` marks the first burst of a type, which seeds the type
    with one attached free tip before its members.  Whether a type is
    seeded does not depend on the counters: a type only gains tips once
    seeded and never loses its last one (an attach covering two pending
    tips adds a free one), so the first burst of each type is the one that
    seeds it.
    """
    arrivals = sim.arrivals.times(horizon, rng)
    bursts = [inj for inj in sim.injections if inj.time <= horizon]
    cuts = np.searchsorted(arrivals, [inj.time for inj in bursts], side="left")
    pieces, blocks, seeds = [], [], {}
    n = done = 0
    for inj, cut in zip(bursts, cuts.tolist()):
        if cut > done:
            pieces.append(arrivals[done:cut])
            blocks.append((n, n + cut - done, -1, bool(seeds), False))
            n += cut - done
            done = cut
        i = inj.type_label - 1
        seed = i not in seeds
        if seed:
            seeds[i] = inj.time
        m = inj.count - seed
        pieces.append(np.full(m, inj.time))
        blocks.append((n, n + m, i, False, seed))
        n += m
    if len(arrivals) > done:
        pieces.append(arrivals[done:])
        blocks.append((n, n + len(arrivals) - done, -1, bool(seeds), False))
    ct = np.concatenate(pieces) if pieces else np.empty(0)
    attach = ct + sim.delay
    A = np.searchsorted(attach, ct, side="right")
    reads = np.stack((np.searchsorted(attach, g, side="right"), np.searchsorted(ct, g, side="right")))
    return ct, A, blocks, seeds, reads.astype(np.int32)


_CHUNK = 256  # creation indices whose inputs are gathered at once
# the most steps in one lag-safe sub-block: longer ones raise the memory
# peak and not the speed
_SUB = 32


@dataclass
class _Member:
    """What the lockstep reads of one member's schedule."""

    rng: np.random.Generator
    # attaches between each creation and the one before, in the smallest
    # unsigned type that holds them, one per creation
    steps: np.ndarray
    lag: int  # the most creations made but not attached at a creation
    blocks: list  # the schedule's (start, stop, forced, draws, seed)
    seeds: dict  # {0-based type: seed time}
    reads: np.ndarray  # the schedule's (2, G) attaches then creations


def _member(sim: ReducedTangleSim, horizon: float, g: np.ndarray, rng) -> _Member:
    """One member's schedule, as ``_schedule`` gives it for the grid ``g``."""
    ct, A, blocks, seeds, reads = _schedule(sim, horizon, rng, g)
    steps = np.diff(A, prepend=0)
    lag = int((np.arange(len(ct)) - A).max(initial=0))
    steps = steps.astype(np.min_scalar_type(steps.max(initial=0)))
    return _Member(rng, steps, lag, blocks, seeds, reads)


def _violation(i: int, free, pend, tips) -> InvariantError:
    return InvariantError(
        f"type {i + 1}: free {int(free)} + pending {int(pend)} != tips {int(tips)}"
        " or a count below 0"
    )


def _lockstep(members: list[_Member], d: int, check, out) -> None:
    """Draw the members' creations in lockstep and gather the prefixes the
    grid reads into ``out`` (len(members), 4, G, d) for ``_fill``.

    Each type keeps two prefix sums over the creation sequence: C, its
    creations, and U, the free tips they covered.  Before creation k, with
    A attaches made and ``base`` 1 once the type is seeded, type i holds
    tips = base + C[A] - U[A], free = base + C[A] - U[k] and pending =
    U[k] - U[A].  The prefixes live in one ring deeper than any attach lag,
    a row of U then C of every type for each member; after each chunk of
    steps, the values the grid reads are copied from the ring into ``out``:
    a member's reads, its schedule's attaches then creations made by each
    grid time, give rows 0 and 1 of U and of C.

    A step reads the ring at its A <= k, so each chunk runs in lag-safe
    sub-blocks: runs of steps whose A are all at most the last row written
    before the run.  One numpy pass over a sub-block takes U and C at A and
    the tips, draws the types and gives each step the tips and U at A of
    its type; a step then only carries the running U of that type on
    through ``cover``.  Up to the first seed in the block every creation is
    honest and of type 1, and C of type 1 is the creation count.  From
    there on the sub-block also draws the types, and C of every type after
    each step is a running count of the draws.  A member past its last
    creation steps on with no further attaches, type 1 and uniform 0: its A
    stays at its last value, so it never shortens a sub-block.  Once the
    ring wraps it reads a later row of its own, as if more of its creations
    had attached; every count a step reads comes from that one row, so the
    counters stay valid and the checks hold.  Nothing reads the rows it
    writes.
    """
    nb = len(members)
    cols = np.arange(nb)
    K = max(len(m.steps) for m in members)
    first = min((s[0] for m in members for s in m.blocks if s[4]), default=K)
    # a seed check reads one creation further back than a step does
    depth = 1 << (max(max(m.lag for m in members) + 2, _CHUNK) - 1).bit_length()
    mask = depth - 1
    reads = np.stack([m.reads for m in members])  # (nb, 2, G)
    # each chunk's reads are one slice of this order
    order = np.argsort(reads, axis=None, kind="stable").astype(np.min_scalar_type(reads.size))
    sorted_reads = reads.ravel()[order]
    # out[:, 0..3] holds U at the attaches read, U at the creations read,
    # then C at each, until _fill turns them into the counters
    got = out.reshape(nb, 2, 2, out.shape[2], d)
    ring = np.zeros((depth, nb, 2 * d), dtype=np.int32)
    rows = ring.reshape(depth * nb, 2 * d)
    A = np.empty((_CHUNK, nb), dtype=np.int32)
    R1 = np.empty((_CHUNK, nb))
    R2 = np.empty((_CHUNK, nb))
    F = np.empty((_CHUNK, nb), dtype=np.int8)
    prev = np.zeros(nb, dtype=np.int32)  # A of the step before the chunk
    at = np.empty((_SUB, nb), dtype=np.intp)  # a sub-block's A as rows of ``rows``
    both = np.empty((_SUB, nb, 2 * d), dtype=np.int32)  # U then C at those
    made = np.empty((_SUB, nb, d), dtype=np.int32)  # a sub-block's new rows, U or C

    def sub_blocks(k0: int, k1: int):
        """Draw the inputs of creations k0..k1-1 and yield each lag-safe
        sub-block (j, e) of their rows, with U then C at A in
        ``both[:e - j]``; after the last, gather the chunk's reads."""
        c = k1 - k0
        _inputs(members, k0, k1, prev, A, R1, R2, F)
        # row j may join a sub-block that starts at row s <= j if no A of
        # row j passes k0 + s, the last row written before it
        ends = np.searchsorted(A[:c].max(axis=1), np.arange(k0, k1), side="right").tolist()
        j = 0
        while j < c:
            e = min(ends[j], j + _SUB)
            np.bitwise_and(A[j:e], mask, out=at[:e - j])
            at[:e - j] *= nb
            at[:e - j] += cols
            rows.take(at[:e - j], axis=0, out=both[:e - j], mode="clip")
            yield j, e
            j = e
        gather(k0, k1)
        prev[:] = A[c - 1]

    def cover(r, i, uk, x, w, den, nxt=None):
        """U of type i after a step that covers 0, 1 or 2 of its x free
        tips (w pending, ``den`` its tips squared) by the uniform r."""
        p0 = w * w / den
        s = p0 + (w + w + 1.0) * x / den
        nxt = np.add(uk, r >= p0, out=nxt)
        nxt += r >= s
        if check and ((x < nxt - uk).any() or (w < 0).any()):
            m = int(np.argmax((x < nxt - uk) | (w < 0)))
            t = x[m] + w[m]
            raise _violation(int(i[m]), x[m] - nxt[m] + uk[m], w[m] + nxt[m] - uk[m], t)
        return nxt

    def gather(k0: int, k1: int) -> None:
        """Copy the prefixes at the reads in k0+1..k1 (U[0] = C[0] = 0)."""
        # int32 bounds: int64 ones would cast all the reads on every call
        bounds = np.array((k0, k1), dtype=np.int32)
        lo, hi = np.searchsorted(sorted_reads, bounds, side="right")
        m, h, q = np.unravel_index(order[lo:hi], reads.shape)
        got[m, :, h, q] = ring[sorted_reads[lo:hi] & mask, m].reshape(-1, 2, d)

    # -- type 1 only, up to the first seed
    type1 = np.zeros(nb, dtype=np.intp)
    u1 = np.empty((_SUB, nb))  # U of type 1 after each step of a sub-block
    uk = np.zeros(nb)
    for k0 in range(0, first, _CHUNK):
        for j, e in sub_blocks(k0, min(k0 + _CHUNK, first)):
            ua = both[:e - j, :, 0]
            t = 1.0 + both[:e - j, :, d] - ua  # genesis and the attached creations
            for r, a, tt, den, nxt in zip(R2[j:e], ua, t, t * t, u1):
                w = uk - a
                uk = cover(r, type1, uk, tt - w, w, den, nxt)
            uk = uk.copy()  # u1 is written over by the next sub-block
            k = np.arange(k0 + j + 1, k0 + e + 1)
            ring[k & mask, :, 0] = u1[:e - j]
            ring[k & mask, :, d] = k[:, None]

    # -- every type, from the first seed on
    U = ring[first & mask, :, :d].astype(float)  # U after the last step
    uflat = U.ravel()
    C = ring[first & mask, :, d:].copy()
    base = np.zeros((nb, d))
    base[:, 0] = 1.0
    offd = cols * d
    types = np.arange(d)
    for k0 in range(first, K, _CHUNK):
        k1 = min(k0 + _CHUNK, K)
        seeded = {}
        for m, mem in enumerate(members):
            for start, _, i, _, seed in mem.blocks:
                if seed and k0 <= start < k1:
                    seeded.setdefault(start - k0, []).append((m, i))
        for j, e in sub_blocks(k0, k1):
            L = e - j
            tips = base + both[:L, :, d:] - both[:L, :, :d]
            for s in range(j, e):
                for m, i in seeded.get(s, ()):
                    base[m, i] = 1.0
                    tips[s - j:, m, i] += 1.0
            # the type: i with probability tips[i]**2 / sum(tips**2)
            cum = np.add.accumulate(tips * tips, axis=2)
            r = R1[j:e] * cum[:, :, -1]
            i = np.where(F[j:e] >= 0, F[j:e], np.add.reduce(r[:, :, None] > cum[:, :, :-1], axis=2))
            del cum, r
            fu = offd + i
            g = fu + np.arange(0, L * nb * d, nb * d)[:, None]  # in tips.ravel()
            t = tips.ravel().take(g)
            ua = both[:L].ravel().take(g + g - i)  # U of type i at A
            del tips, g
            for s, (f, r, ii, a, tt, den, row) in enumerate(
                zip(fu, R2[j:e], i, ua, t, t * t, made), start=j
            ):
                if check and s in seeded:
                    _check_seeds(seeded[s], A[s - 1] if s else prev, U, ring, mask)
                uk = uflat.take(f)
                w = uk - a
                uflat[f] = cover(r, ii, uk, tt - w, w, den)
                row[...] = U
            k = np.arange(k0 + j + 1, k0 + e + 1) & mask
            ring[k, :, :d] = made[:L]
            np.cumsum(i[:, :, None] == types, axis=0, out=made[:L])
            made[:L] += C
            ring[k, :, d:] = made[:L]
            C[:] = made[L - 1]


def _inputs(members: list[_Member], k0: int, k1: int, prev, A, R1, R2, F) -> None:
    """Fill rows 0..k1-k0-1 of the chunk inputs with creations k0..k1-1 of
    every member: the attaches before each (A, counted on from ``prev``,
    those before creation k0-1, by one cumsum over the rows of steps), its
    type uniform (R1, 0 when it draws none), its coverage uniform (R2) and
    its forced type (F, -1 when honest).  Steps of type 1 alone read A and
    R2 only.  A member's uniforms are drawn span by span of its schedule,
    in creation order, so they are the doubles of its scalar draws
    (``Generator.random(n)`` yields those of n scalar calls).  Past its
    last creation a member makes no attaches and steps as type 1 with
    uniform 0.
    """
    c = k1 - k0
    R1[:c] = 0.0  # honest and no type draw, unless a span below says otherwise
    F[:c] = -1
    for m, mem in enumerate(members):
        hi = min(max(len(mem.steps), k0), k1)
        if hi < k1:
            A[hi - k0:c, m] = 0
            R2[hi - k0:c, m] = 0.0
            F[hi - k0:c, m] = 0
        if hi == k0:
            continue
        A[:hi - k0, m] = mem.steps[k0:hi]
        for s, e, f, p, _ in mem.blocks:
            a, b = max(s, k0), min(e, hi)
            if a >= b:
                continue
            rows = slice(a - k0, b - k0)
            if f >= 0:
                F[rows, m] = f
            if p:
                pair = mem.rng.random(2 * (b - a)).reshape(-1, 2)
                R1[rows, m] = pair[:, 0]
                R2[rows, m] = pair[:, 1]
            else:
                R2[rows, m] = mem.rng.random(b - a)
    np.cumsum(A[:c], axis=0, out=A[:c])
    A[:c] += prev


def _check_seeds(seeds, before, state, ring, mask) -> None:
    """The check of each seed of a type at creation k, as the
    one-member-at-a-time loop makes it: the seed sets the type's tips and
    free tips to 1 and keeps its pending count, which holds the attaches
    ``before`` creation k-1, so free + pending == tips fails unless that
    count is 0."""
    for m, i in seeds:
        w = state[m, i] - ring[int(before[m]) & mask, m, i]
        if w != 0:
            raise _violation(i, 1, w, 1)


def _fill(seeds, g, check, out) -> None:
    """Turn the prefixes gathered in ``out`` into the counters at each grid
    time, in place: tips = base + C[na] - U[na], free = base + C[na] -
    U[nc], pending = tips - free and created = base + C[nc], with nc the
    creations and na the attaches at or before the grid time and ``base``
    1 from a type's seed time on (``seeds`` holds each member's {0-based
    type: seed time}; type 1 is seeded from the start).  ``g`` holds the
    grid times, which only set ``base``: a time past the horizon gives the
    base at the horizon, as no seed comes after it.  ``check``
    refuses a negative free or pending count at the last grid time, which
    sees the attaches after the last creation."""
    d = out.shape[-1]
    first = np.full((len(seeds), d), np.inf)  # never seeded
    first[:, 0] = -np.inf
    for m, times in enumerate(seeds):
        first[m, list(times)] = list(times.values())
    base = g[:, None] >= first[:, None, :]
    for v in (0, 1):
        np.subtract(out[:, 2], out[:, v], out=out[:, v])
        out[:, v] += base
    np.subtract(out[:, 0], out[:, 1], out=out[:, 2])
    out[:, 3] += base
    if check:
        tips, free, pend = out[:, 0, -1], out[:, 1, -1], out[:, 2, -1]
        bad = (free < 0) | (pend < 0)
        if bad.any():
            m, i = np.argwhere(bad)[0]
            raise _violation(int(i), free[m, i], pend[m, i], tips[m, i])

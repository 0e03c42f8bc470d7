"""Agent-based DAG-ledger simulator.

Every transaction is an explicit site with two parent references, a conflict
type, and a fixed creation-to-attach delay.  Tips are attached sites without
attached children; a tip selected by a not-yet-attached transaction counts as
pending (but stays selectable) until that transaction attaches.  This is the
ground-truth model the per-type counter simulation is validated against.
"""
from __future__ import annotations

from itertools import compress, count, islice

import numpy as np

from .reduced import ExtinctLedgerError, InvariantError, _TangleSim, _fill, _schedule
from .seeding import integer_stream
from .trajectory import TrajectoryFrame, make_grid


class AgentTangleSim(_TangleSim):
    """Grows the explicit ledger graph along the creation schedule; built
    like the reduced model, with the same interface."""

    def run(
        self, horizon: float, rng: np.random.Generator, grid_dt: float = 0.5,
        check: bool = False,
    ) -> TrajectoryFrame:
        """One ledger history up to ``horizon``, sampled every ``grid_dt``.

        Runs on the reduced model's creation schedule: the graph decides
        each creation's type and the tips it newly marks pending, and
        ``_fill_grid`` fills the frame from those.  Creations after the
        last grid time are not made, as no grid row would see them.
        ``check`` checks the counters after every event and recounts the
        graph at the end.
        """
        grid = make_grid(horizon, grid_dt)  # refuses a horizon <= 0
        end = min(grid[-1], horizon)
        arrivals = self.arrivals.times(horizon, rng)
        ct, blocks, seeds = _schedule(arrivals, self.injections, horizon)
        ct = ct[: int(np.searchsorted(ct, end, side="right"))]
        typ, cov, live = _kernel(ct, blocks, seeds, self.delay, self.types, end, rng, check)
        frame = _fill_grid(grid, horizon, self.delay, ct, typ, cov, seeds, self.types)
        for name, counts in live.items():
            if not np.array_equal(getattr(frame, name)[-1], counts):
                raise InvariantError(f"the last grid row of {name} differs from the graph")
        return frame


def _kernel(ct, blocks, seeds, delay, types, end, rng, check):
    """Grow the graph through the schedule; return each creation's 0-based
    type and the number of tips it newly marks pending (0, 1 or 2).

    Sites are indices into parallel lists: genesis is 0, then creations
    and seeds in the order they are made.  A tip list drops an entry by
    moving its last entry into the gap, and tip draws take the lists in
    type order, so the draws are those of the object graph kept in the
    tests.  The attach checks always run.  With ``check``, the counters are
    checked after every event and the whole graph after the attaches up to
    ``end``, and the third value holds the live counters to compare with
    the frame's last row; without it, the third value is empty.
    """
    n = len(ct)
    typ = np.zeros(n, dtype=np.intp)
    cov = np.zeros(n, dtype=np.uint8)
    times = ct.tolist()
    attach_times = ct + delay
    # attaches that precede each creation; attaches win ties
    attached = np.searchsorted(attach_times, ct, side="right").tolist()
    draw = integer_stream(rng)
    # one slot per site that can be made: genesis, creations, seeds
    size = 1 + n + len(seeds)
    kind = [0] * size  # 0-based type of each site
    pa = [-1] * size  # parents; -1 for genesis and for a seed made as a root
    pb = [-1] * size
    marks = [0] * size  # selections by creations not yet attached
    att = [False] * size
    at = [0.0] * size  # attach time
    pos = [-1] * size  # index in its type's tip list; -1 when not a tip
    kid = [False] * size  # has an attached child
    att[0] = True
    pos[0] = 0
    tips = [[0]] + [[] for _ in range(types - 1)]
    pend = [0] * types  # tips with a mark, per type
    created = [1] + [0] * (types - 1)
    seed_ids = set()
    made = []  # site of each creation, in schedule order
    sites = 1  # sites made so far
    done = 0  # creations attached so far

    def verify(i: int) -> None:
        if not 0 <= pend[i] <= len(tips[i]):
            raise InvariantError(f"type {i + 1}: {pend[i]} pending of {len(tips[i])} tips")

    def attach_upto(e: int) -> None:
        nonlocal done
        while done < e:
            s = made[done]
            done += 1
            if att[s]:
                raise InvariantError(f"site {s} attached twice")
            i, a, b, t = kind[s], pa[s], pb[s], at[s]
            bucket = tips[i]
            for p in (a, b) if a != b else (a,):
                if not att[p]:
                    raise InvariantError("parent not attached before child")
                if not at[p] < t:
                    raise InvariantError("attach-time ordering violated (cycle risk)")
                if kind[p] != i:
                    raise InvariantError("edge joins different conflict types")
                kid[p] = True
                k = pos[p]
                if k >= 0:  # still a tip; this site's mark keeps it pending
                    last = bucket.pop()
                    if last != p:
                        bucket[k] = last
                        pos[last] = k
                    pos[p] = -1
                    pend[i] -= 1
            marks[a] -= 1
            marks[b] -= 1
            att[s] = True
            pos[s] = len(bucket)
            bucket.append(s)
            if check:
                verify(i)

    def add_site(i: int, a: int, b: int, t: float) -> int:
        nonlocal sites
        s = sites
        sites += 1
        kind[s] = i
        pa[s] = a
        pb[s] = b
        at[s] = t
        created[i] += 1
        return s

    for start, stop, forced, seed in blocks:
        if seed:
            t = seeds[forced]
            if t > end:
                break
            attach_upto(int(np.searchsorted(attach_times, t, side="right")))
            # under the two oldest interior sites, one twice, or none
            interior = list(islice(compress(count(), kid), 2))
            a, b = (interior[0], interior[-1]) if interior else (-1, -1)
            s = add_site(forced, a, b, t)
            att[s] = True
            for p in {a, b} - {-1}:
                kid[p] = True
            pos[s] = len(tips[forced])
            tips[forced].append(s)
            seed_ids.add(s)
            if check:
                verify(forced)
        for k in range(start, min(stop, n)):
            if done < attached[k]:
                attach_upto(attached[k])
            if forced < 0 and types > 1:
                total = sum(map(len, tips))
                if total == 0:
                    raise ExtinctLedgerError("no tips anywhere in the ledger")
                while True:  # two picks over all tips, redrawn until types match
                    r = draw(total)
                    for bucket in tips:
                        if r < len(bucket):
                            break
                        r -= len(bucket)
                    a = bucket[r]
                    r = draw(total)
                    for bucket in tips:
                        if r < len(bucket):
                            break
                        r -= len(bucket)
                    b = bucket[r]
                    i = kind[a]
                    if kind[b] == i:
                        break
            else:  # one type: all tips are in one list, and picks match
                i = max(forced, 0)
                bucket = tips[i]
                if not bucket:
                    raise ExtinctLedgerError(f"type {i + 1} has no tips to select")
                a = bucket[draw(len(bucket))]
                b = bucket[draw(len(bucket))]
            u = (marks[a] == 0) + (b != a and marks[b] == 0)
            marks[a] += 1
            marks[b] += 1
            pend[i] += u
            made.append(add_site(i, a, b, times[k] + delay))
            typ[k] = i
            cov[k] = u
            if check:
                verify(i)
    if not check:
        return typ, cov, {}
    attach_upto(int(np.searchsorted(attach_times, end, side="right")))
    for i, bucket in enumerate(tips):
        for k, s in enumerate(bucket):
            if pos[s] != k or kind[s] != i or not att[s] or kid[s]:
                raise InvariantError(f"site {s} is listed as a type-{i + 1} tip but is not one")
        if sum(1 for s in bucket if marks[s]) != pend[i]:
            raise InvariantError(f"type {i + 1}: pending count drifted")
    leaves = [0] * types
    for s in compress(range(sites), att):
        leaves[kind[s]] += not kid[s]
        for p in {pa[s], pb[s]} - {-1}:
            if not at[p] < at[s]:
                raise InvariantError("attach-time ordering violated (cycle risk)")
            if kind[p] != kind[s] and s not in seed_ids:
                raise InvariantError("edge joins different conflict types")
    if leaves != list(map(len, tips)):
        raise InvariantError("tip conservation violated")
    tip_counts = list(map(len, tips))
    return typ, cov, {
        "tips": tip_counts,
        "free": [c - w for c, w in zip(tip_counts, pend)],
        "pending": pend,
        "created": created,
    }


def _fill_grid(grid, horizon, delay, ct, typ, cov, seeds, types) -> TrajectoryFrame:
    """Counters at each grid time, counting every event at or before it,
    as the reduced model fills them: each type's prefix sums of coverage
    and of creations, read at the attaches and at the creations made by
    the grid time.  ``make_grid`` rounds, so the last grid time can pass
    ``horizon``; grid times past it see the state at the horizon.
    """
    g = np.minimum(grid, horizon)
    mine = typ[:, None] == np.arange(types)
    prefix = np.zeros((2, len(ct) + 1, types))  # U then C
    np.cumsum(mine * cov[:, None], axis=0, out=prefix[0, 1:])
    np.cumsum(mine, axis=0, out=prefix[1, 1:])
    reads = [np.searchsorted(ct + delay, g, side="right"), np.searchsorted(ct, g, side="right")]
    out = prefix[:, reads].reshape(1, 4, len(g), types)
    _fill([seeds], g, False, out)
    return TrajectoryFrame(grid, *out[0])

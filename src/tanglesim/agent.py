"""Agent-based DAG-ledger simulator.

Every transaction is an explicit site with two parent references, a conflict
type, and a fixed creation-to-attach delay.  Tips are attached sites without
attached children; a tip selected by a not-yet-attached transaction counts as
pending (but stays selectable) until that transaction attaches.  This is the
ground-truth model the per-type counter simulation is validated against.
"""
from __future__ import annotations

from itertools import chain, compress, count, islice

import numpy as np

from .reduced import ExtinctLedgerError, InvariantError, _TangleSim, _fill, _schedule
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
        ct, A, blocks, seeds, reads = _schedule(self, horizon, rng, np.minimum(grid, horizon))
        n = int(reads[1, -1])  # the creations made by ``end``
        typ, cov, live = _kernel(ct[:n], A[:n], blocks, seeds, self.delay, self.types, end, rng, check)
        frame = _fill_grid(grid, reads, typ, cov, seeds, self.types)
        for name, counts in live.items():
            if not np.array_equal(getattr(frame, name)[-1], counts):
                raise InvariantError(f"the last grid row of {name} differs from the graph")
        return frame


def _kernel(ct, A, blocks, seeds, delay, types, end, rng, check):
    """Grow the graph through the schedule; return each creation's 0-based
    type and the number of tips it newly marks pending (0, 1 or 2).

    Sites are indices into parallel lists: genesis is 0, then creations
    and seeds in the order they are made.  One flat loop makes them: each
    step first attaches the creations due before it, then makes a seed or
    a creation.  A tip list drops an entry by moving its last entry into
    the gap.  A pick of one of ``n`` tips, taking the lists in type order,
    is ``int(u * n)`` for the next double ``u`` that successive scalar
    ``rng.random()`` calls give, so the draws are those of the object
    graph kept in the tests.  The attach checks always run.  With
    ``check``, the counters are checked after every event, a last step
    attaches what is due by ``end`` and the whole graph is rechecked; the
    third value then holds the live counters to compare with the frame's
    last row, and is empty otherwise.
    """
    n = len(ct)
    attach_times = ct + delay
    due = A.tolist()
    at_times = attach_times.tolist()
    # u <= 1 - 2**-53, so u * n rounds below n for any n < 2**53; each
    # pick's chance is 1/n to a relative error of order n / 2**53
    uniform = chain.from_iterable(iter(lambda: rng.random(1024).tolist(), None)).__next__
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
    seed_ids = set()
    made = []  # site of each creation, in schedule order
    typ = []
    cov = []
    s = 0  # the last site made
    done = 0  # creations attached so far
    live = 1  # tips of all types

    def verify(i: int) -> None:
        if not 0 <= pend[i] <= len(tips[i]):
            raise InvariantError(f"type {i + 1}: {pend[i]} pending of {len(tips[i])} tips")

    def broken(p: int, x: int) -> InvariantError:
        """The first attach check that parent ``p`` of site ``x`` fails."""
        if not att[p]:
            return InvariantError("parent not attached before child")
        if not at[p] < at[x]:
            return InvariantError("attach-time ordering violated (cycle risk)")
        return InvariantError("edge joins different conflict types")

    # a block's seed is the step before its first creation; with ``check``
    # a last block of one such step (type -1) attaches what is due by ``end``
    for start, stop, forced, draws, seed in [*blocks, (n, n, -1, False, True)] if check else blocks:
        if seed:
            t = seeds[forced] if forced >= 0 else end
            # a seed after ``end`` is not made; nor are its members, as
            # ``ct`` stops at ``end``
            seed = t <= end
            e = int(np.searchsorted(attach_times, t, side="right"))
        f = max(forced, 0)
        bucket = tips[f]
        for k in range(start - seed, min(stop, n)):
            if k >= start:
                e = due[k]
            while done < e:  # the attach rule
                x = made[done]
                done += 1
                if att[x]:
                    raise InvariantError(f"site {x} attached twice")
                j = kind[x]
                a = pa[x]
                b = pb[x]
                u = at[x]
                tb = tips[j]
                if not (att[a] and at[a] < u and kind[a] == j):
                    raise broken(a, x)
                kid[a] = True
                q = pos[a]
                if q >= 0:  # still a tip; this site's mark keeps it pending
                    last = tb.pop()
                    if last != a:
                        tb[q] = last
                        pos[last] = q
                    pos[a] = -1
                    pend[j] -= 1
                    live -= 1
                if b != a:
                    if not (att[b] and at[b] < u and kind[b] == j):
                        raise broken(b, x)
                    kid[b] = True
                    q = pos[b]
                    if q >= 0:
                        last = tb.pop()
                        if last != b:
                            tb[q] = last
                            pos[last] = q
                        pos[b] = -1
                        pend[j] -= 1
                        live -= 1
                marks[a] -= 1
                marks[b] -= 1
                att[x] = True
                pos[x] = len(tb)
                tb.append(x)
                live += 1
                if check:
                    verify(j)
            if k < start:
                if forced < 0:  # the end
                    break
                # the seed, under the two oldest interior sites, one twice, or none
                interior = list(islice(compress(count(), kid), 2))
                a, b = (interior[0], interior[-1]) if interior else (-1, -1)
                s += 1
                kind[s], pa[s], pb[s], at[s], att[s] = f, a, b, t, True
                if a >= 0:
                    kid[a] = kid[b] = True
                pos[s] = len(bucket)
                bucket.append(s)
                live += 1
                seed_ids.add(s)
                if check:
                    verify(f)
                continue
            if draws:  # two picks over all tips, redrawn until types match
                if not live:
                    raise ExtinctLedgerError("no tips anywhere in the ledger")
                while True:
                    r = int(uniform() * live)
                    for tb in tips:
                        if r < len(tb):
                            break
                        r -= len(tb)
                    a = tb[r]
                    r = int(uniform() * live)
                    for tb in tips:
                        if r < len(tb):
                            break
                        r -= len(tb)
                    b = tb[r]
                    i = kind[a]
                    if kind[b] == i:
                        break
            else:  # one type: all tips are in one list, and picks match
                i = f
                c = len(bucket)
                if not c:
                    raise ExtinctLedgerError(f"type {i + 1} has no tips to select")
                a = bucket[int(uniform() * c)]
                b = bucket[int(uniform() * c)]
            u = (marks[a] == 0) + (b != a and marks[b] == 0)
            marks[a] += 1
            marks[b] += 1
            pend[i] += u
            s += 1
            kind[s] = i
            pa[s] = a
            pb[s] = b
            at[s] = at_times[k]
            made.append(s)
            typ.append(i)
            cov.append(u)
            if check:
                verify(i)
    typ = np.array(typ, dtype=np.intp)
    cov = np.array(cov, dtype=np.uint8)
    if not check:
        return typ, cov, {}
    for i, bucket in enumerate(tips):
        for k, x in enumerate(bucket):
            if pos[x] != k or kind[x] != i or not att[x] or kid[x]:
                raise InvariantError(f"site {x} is listed as a type-{i + 1} tip but is not one")
        if sum(1 for x in bucket if marks[x]) != pend[i]:
            raise InvariantError(f"type {i + 1}: pending count drifted")
    leaves = [0] * types
    for x in compress(range(s + 1), att):
        leaves[kind[x]] += not kid[x]
        for p in {pa[x], pb[x]} - {-1}:
            if not at[p] < at[x]:
                raise InvariantError("attach-time ordering violated (cycle risk)")
            if kind[p] != kind[x] and x not in seed_ids:
                raise InvariantError("edge joins different conflict types")
    tip_counts = list(map(len, tips))
    if leaves != tip_counts or live != sum(tip_counts):
        raise InvariantError("tip conservation violated")
    return typ, cov, {
        "tips": tip_counts,
        "free": [c - w for c, w in zip(tip_counts, pend)],
        "pending": pend,
        "created": [kind[: s + 1].count(i) for i in range(types)],
    }


def _fill_grid(grid, reads, typ, cov, seeds, types) -> TrajectoryFrame:
    """Counters at each grid time, counting every event at or before it,
    as the reduced model fills them: each type's prefix sums of coverage
    and of creations, read at the schedule's ``reads`` (the attaches, then
    the creations, made by each grid time cut at the horizon).  A grid time
    past the horizon sees the state at the horizon; no seed comes after
    the horizon, so the grid itself sets ``_fill``'s base.
    """
    mine = typ[:, None] == np.arange(types)
    prefix = np.zeros((2, len(typ) + 1, types))  # U then C
    np.cumsum(mine * cov[:, None], axis=0, out=prefix[0, 1:])
    np.cumsum(mine, axis=0, out=prefix[1, 1:])
    out = prefix[:, reads].reshape(1, 4, len(grid), types)
    _fill([seeds], grid, False, out)
    return TrajectoryFrame(grid, *out[0])

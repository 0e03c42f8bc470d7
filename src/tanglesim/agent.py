"""Agent-based DAG-ledger simulator.

Every transaction is an explicit site with two parent references, a conflict
type, and a fixed creation-to-attach delay.  Tips are attached sites without
attached children; a tip selected by a not-yet-attached transaction counts as
pending (but stays selectable) until that transaction attaches.  This is the
ground-truth model the per-type counter simulation is validated against.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .reduced import ExtinctLedgerError, _TangleSim, _fill_grid, _schedule
from .trajectory import TrajectoryFrame, make_grid


@dataclass(frozen=True, slots=True)
class Site:
    """One ledger transaction."""

    id: int
    created_at: float
    attached_at: float
    # None for genesis and for a seed placed before any site is interior
    parents: tuple[int, int] | None
    type_label: int  # 1-based


class _IndexedSet:
    """Set with O(1) add/discard and O(1) uniform indexing."""

    __slots__ = ("items", "pos")

    def __init__(self) -> None:
        self.items: list[int] = []
        self.pos: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, item: int) -> bool:
        return item in self.pos

    def __getitem__(self, k: int) -> int:
        return self.items[k]

    def add(self, item: int) -> None:
        if item not in self.pos:
            self.pos[item] = len(self.items)
            self.items.append(item)

    def discard(self, item: int) -> bool:
        k = self.pos.pop(item, None)
        if k is None:
            return False
        last = self.items.pop()
        if last != item:
            self.items[k] = last
            self.pos[last] = k
        return True


class AgentTangle:
    """Mutable DAG state: sites, per-type tip sets, pending-selection marks."""

    def __init__(self, types: int, delay: float):
        if types < 1:
            raise ValueError("need at least one conflict type")
        if not delay > 0:
            raise ValueError("attach delay must be positive")
        self.d = types
        self.delay = delay
        self.sites: list[Site] = []
        self.attached: list[bool] = []
        self.children: list[list[int]] = []
        self.tips: list[_IndexedSet] = [_IndexedSet() for _ in range(types)]
        # outstanding selections per tip id; a tip with a mark is pending
        self.pending_marks: dict[int, int] = {}
        self.seed_ids: set[int] = set()
        self.tip_count = [0] * types
        self.pending_count = [0] * types
        self.created = [0] * types
        genesis = Site(0, 0.0, 0.0, None, 1)
        self._register(genesis)
        self.attached[0] = True
        self.tips[0].add(0)
        self.tip_count[0] = 1
        self.created[0] = 1

    # -- bookkeeping ------------------------------------------------------

    def _register(self, site: Site) -> None:
        assert site.id == len(self.sites)
        self.sites.append(site)
        self.attached.append(False)
        self.children.append([])

    def free_count(self, i: int) -> int:
        return self.tip_count[i] - self.pending_count[i]

    @property
    def free_counts(self) -> list[int]:
        return [self.tip_count[i] - self.pending_count[i] for i in range(self.d)]

    def _mark_pending(self, tip_id: int) -> None:
        c = self.pending_marks.get(tip_id, 0)
        self.pending_marks[tip_id] = c + 1
        if c == 0:
            self.pending_count[self.sites[tip_id].type_label - 1] += 1

    def _unmark_pending(self, tip_id: int) -> None:
        c = self.pending_marks[tip_id] - 1
        if c:
            self.pending_marks[tip_id] = c
        else:
            del self.pending_marks[tip_id]
            i = self.sites[tip_id].type_label - 1
            if tip_id in self.tips[i]:
                self.pending_count[i] -= 1

    def _drop_tip(self, tip_id: int) -> None:
        i = self.sites[tip_id].type_label - 1
        if self.tips[i].discard(tip_id):
            self.tip_count[i] -= 1
            if self.pending_marks.get(tip_id, 0):
                self.pending_count[i] -= 1

    # -- tip selection ----------------------------------------------------

    def _draw_tip(self, rng: np.random.Generator) -> int:
        total = sum(self.tip_count)
        if total == 0:
            raise ExtinctLedgerError("no tips anywhere in the ledger")
        k = int(rng.integers(total))
        for bucket in self.tips:
            n = len(bucket)
            if k < n:
                return bucket[k]
            k -= n
        raise AssertionError("unreachable")

    def select_tips(self, rng: np.random.Generator) -> tuple[int, int]:
        """Two uniform with-replacement tip draws, redrawn until types match."""
        while True:
            a = self._draw_tip(rng)
            b = self._draw_tip(rng)
            if self.sites[a].type_label == self.sites[b].type_label:
                return a, b

    # -- operations -------------------------------------------------------

    def create_transaction(self, t: float, rng: np.random.Generator) -> Site:
        """Create (not yet attach) a transaction at time t; returns the site.

        The caller is responsible for calling attach() at site.attached_at.
        """
        a, b = self.select_tips(rng)
        return self._create(t, a, b, self.sites[a].type_label)

    def create_forced(
        self, t: float, type_label: int, rng: np.random.Generator
    ) -> Site:
        """Create a transaction that selects tips only within type_label."""
        bucket = self.tips[type_label - 1]
        if len(bucket) == 0:
            raise ExtinctLedgerError(f"type {type_label} has no tips to select")
        a = bucket[int(rng.integers(len(bucket)))]
        b = bucket[int(rng.integers(len(bucket)))]
        return self._create(t, a, b, type_label)

    def _create(self, t: float, a: int, b: int, type_label: int) -> Site:
        site = Site(len(self.sites), t, t + self.delay, (a, b), type_label)
        self._register(site)
        self._mark_pending(a)
        self._mark_pending(b)
        self.created[type_label - 1] += 1
        return site

    def attach(self, site: Site) -> None:
        if self.attached[site.id]:
            raise RuntimeError(f"site {site.id} attached twice")
        assert site.parents is not None
        a, b = site.parents
        for p in (a, b) if a != b else (a,):
            if not self.attached[p]:
                raise RuntimeError("parent not attached before child")
            if not self.sites[p].attached_at < site.attached_at:
                raise RuntimeError("attach-time ordering violated (cycle risk)")
            if self.sites[p].type_label != site.type_label:
                raise RuntimeError("edge joins different conflict types")
            self.children[p].append(site.id)
        self.attached[site.id] = True
        self._drop_tip(a)
        if b != a:
            self._drop_tip(b)
        self._unmark_pending(a)
        self._unmark_pending(b)
        i = site.type_label - 1
        self.tips[i].add(site.id)
        self.tip_count[i] += 1

    def add_seed(self, t: float, type_label: int) -> Site:
        """Attach the seed tip of a conflicting type at time t.

        The seed's parents are the two oldest interior (attached, non-tip)
        sites, the one interior site twice when only one exists, and none
        (a second root, like genesis) when there is none, so the seed
        consumes no tip.  It conflicts by label, so its edges are exempt
        from the same-type rule.
        """
        interior = list(islice((i for i, c in enumerate(self.children) if c), 2))
        parents = (interior[0], interior[-1]) if interior else None
        seed = Site(len(self.sites), t, t, parents, type_label)
        self._register(seed)
        self.seed_ids.add(seed.id)
        self.attached[seed.id] = True
        for p in dict.fromkeys(parents or ()):
            self.children[p].append(seed.id)
        i = type_label - 1
        self.tips[i].add(seed.id)
        self.tip_count[i] += 1
        self.created[i] += 1
        return seed

    # -- invariants -------------------------------------------------------

    def check(self) -> None:
        """Recompute all derived state and compare with the counters."""
        for i in range(self.d):
            bucket = self.tips[i]
            assert len(bucket) == self.tip_count[i]
            w = sum(1 for sid in bucket.items if self.pending_marks.get(sid, 0))
            assert w == self.pending_count[i], "pending count drifted"
            assert self.free_count(i) >= 0
            # conservation: a tip is exactly an attached site with no
            # attached children
            recount = sum(
                1
                for sid, s in enumerate(self.sites)
                if s.type_label == i + 1
                and self.attached[sid]
                and not self.children[sid]
            )
            assert recount == self.tip_count[i], "tip conservation violated"
        for sid, s in enumerate(self.sites):
            if s.parents is None or not self.attached[sid]:
                continue
            for p in s.parents:
                assert self.sites[p].attached_at < s.attached_at
                if sid not in self.seed_ids:
                    assert self.sites[p].type_label == s.type_label


class AgentTangleSim(_TangleSim):
    """Drives an AgentTangle through the creation schedule; built like the
    reduced model, with the same interface."""

    def run(
        self, horizon: float, rng: np.random.Generator, grid_dt: float = 0.5
    ) -> TrajectoryFrame:
        """One ledger history up to ``horizon``, sampled every ``grid_dt``.

        Runs on the reduced model's creation schedule and grid fill: the
        graph decides each creation's type and the tips it newly marks
        pending, and the frame is filled from those.  Creations after the
        last grid time are not made, as no grid row would see them.
        """
        grid = make_grid(horizon, grid_dt)  # refuses a horizon <= 0
        end = min(grid[-1], horizon)
        tangle = AgentTangle(self.types, self.delay)
        arrivals = self.arrivals.times(horizon, rng)
        ct, blocks, seeds = _schedule(arrivals, self.injections, horizon)
        n = int(np.searchsorted(ct, end, side="right"))
        ct = ct[:n]
        attach_times = ct + self.delay
        # attaches that precede each creation; attaches win ties
        attached = np.searchsorted(attach_times, ct, side="right").tolist()
        times = ct.tolist()
        typ = np.zeros(n, dtype=np.intp)
        cov = np.zeros(n, dtype=np.uint8)
        made: list[Site] = []
        check = tangle.check if self.check_invariants else lambda: None
        a = 0

        def attach_upto(e: int) -> None:
            nonlocal a
            while a < e:
                tangle.attach(made[a])
                a += 1
                check()

        for start, stop, forced, seed in blocks:
            if seed:
                t = seeds[forced]
                if t > end:
                    break
                attach_upto(int(np.searchsorted(attach_times, t, side="right")))
                tangle.add_seed(t, forced + 1)
                check()
            for k in range(start, min(stop, n)):
                attach_upto(attached[k])
                w = sum(tangle.pending_count)
                if forced < 0:
                    site = tangle.create_transaction(times[k], rng)
                else:
                    site = tangle.create_forced(times[k], forced + 1, rng)
                made.append(site)
                typ[k] = site.type_label - 1
                cov[k] = sum(tangle.pending_count) - w
                check()
        frame = _fill_grid(grid, horizon, self.delay, ct, typ, cov, seeds, self.types)
        if self.check_invariants:
            # the attaches after the last creation, up to the last grid time
            attach_upto(int(np.searchsorted(attach_times, end, side="right")))
            for name, live in (
                ("tips", tangle.tip_count),
                ("free", tangle.free_counts),
                ("pending", tangle.pending_count),
                ("created", tangle.created),
            ):
                assert np.array_equal(getattr(frame, name)[-1], live), name
        return frame

"""DAG-ledger agent model tests.

`AgentTangle` below is the agent as an object graph: sites, per-type tip
sets, pending marks and a full structural self-check.  Graph structure is
exercised through it, so weights and invariants can be checked against
hand-built ledgers.  It is also the reference for the package's flat
kernel: `graph_kernel` drives it through the creation schedule, picking
tip `int(rng.random() * n)` of n, and must give the kernel's types and
coverages draw for draw, and `event_loop_run` drives it one event at a
time (merging arrivals, attaches and bursts itself, recording through
`GridRecorder`, seeding a burst's type only when the graph holds no tip of
it, with full invariant recomputation after every event) and must give
`AgentTangleSim.run`'s frame.
"""
import copy
from collections import deque
from dataclasses import dataclass
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tanglesim import (
    AgentTangleSim,
    ArrivalProcess,
    ExtinctLedgerError,
    Injection,
    ReducedTangleSim,
)
from tanglesim.agent import _kernel
from tanglesim.reduced import _schedule
from tanglesim.seeding import seed_stream
from tanglesim.trajectory import GridRecorder, make_grid


# -- the object graph -------------------------------------------------------------

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
        k = int(rng.random() * total)
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
        a = bucket[int(rng.random() * len(bucket))]
        b = bucket[int(rng.random() * len(bucket))]
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



# -- event-loop reference oracle -------------------------------------------------

def _expected_seed_parents(tangle):
    """The two oldest attached non-tip sites, one twice, or None."""
    interior = [
        sid for sid, s in enumerate(tangle.sites)
        if tangle.attached[sid] and sid not in tangle.tips[s.type_label - 1]
    ]
    if not interior:
        return None
    return (interior[0], interior[1] if len(interior) > 1 else interior[0])


def event_loop_run(sim, horizon, rng, grid_dt=0.5):
    """One event at a time on the graph: the next of arrival, attach and burst.

    Attaches take priority at equal times, then bursts, then honest
    arrivals.  A burst whose type has no tips first places one seed tip,
    which must hang under the oldest interior sites and consume no tip;
    the rest of the burst are forced creations.
    """
    tangle = AgentTangle(sim.types, sim.delay)
    arrival_times = sim.arrivals.times(horizon, rng)
    waiting = deque()
    inj_list = list(sim.injections)
    recorder = GridRecorder(make_grid(horizon, grid_dt), sim.types)
    ai = 0
    ii = 0
    n_arrivals = len(arrival_times)
    while True:
        t_arr = arrival_times[ai] if ai < n_arrivals else np.inf
        t_att = waiting[0].attached_at if waiting else np.inf
        t_inj = inj_list[ii].time if ii < len(inj_list) else np.inf
        t_next = min(t_arr, t_att, t_inj)
        if t_next > horizon or t_next == np.inf:
            break
        recorder.advance(
            t_next,
            tangle.tip_count,
            tangle.free_counts,
            tangle.pending_count,
            tangle.created,
        )
        if t_att <= t_arr and t_att <= t_inj:
            tangle.attach(waiting.popleft())
        elif t_inj <= t_arr:
            inj = inj_list[ii]
            ii += 1
            m = inj.count
            if tangle.tip_count[inj.type_label - 1] == 0:
                parents = _expected_seed_parents(tangle)
                before = list(tangle.tip_count)
                seed = tangle.add_seed(inj.time, inj.type_label)
                assert seed.parents == parents
                before[inj.type_label - 1] += 1
                assert tangle.tip_count == before
                m -= 1
            for _ in range(m):
                waiting.append(tangle.create_forced(inj.time, inj.type_label, rng))
        else:
            ai += 1
            waiting.append(tangle.create_transaction(t_arr, rng))
        tangle.check()
    return recorder.finish(
        tangle.tip_count,
        tangle.free_counts,
        tangle.pending_count,
        tangle.created,
    )


def _scheduled(sim, horizon, rng, grid_dt):
    """The schedule `AgentTangleSim.run` grows its graph through (creation
    times, the attaches before each, blocks, seed times), cut at the last
    grid time, and that time."""
    grid = make_grid(horizon, grid_dt)
    end = min(grid[-1], horizon)
    ct, A, blocks, seeds, _ = _schedule(sim, horizon, rng, np.minimum(grid, horizon))
    n = int(np.searchsorted(ct, end, side="right"))
    return ct[:n], A[:n], blocks, seeds, end


def graph_kernel(sim, ct, blocks, seeds, end, rng):
    """Each creation's 0-based type and its newly pending tips, grown on
    `AgentTangle` with scalar `rng.random` draws; a site attaches before
    any creation or seed at or after its attach time."""
    tangle = AgentTangle(sim.types, sim.delay)
    waiting = deque()
    typ = np.zeros(len(ct), dtype=np.intp)
    cov = np.zeros(len(ct), dtype=np.uint8)

    def attach_upto(t):
        while waiting and waiting[0].attached_at <= t:
            tangle.attach(waiting.popleft())

    for start, stop, forced, _, seed in blocks:
        if seed:
            if seeds[forced] > end:
                break
            attach_upto(seeds[forced])
            tangle.add_seed(seeds[forced], forced + 1)
        for k in range(start, min(stop, len(ct))):
            t = float(ct[k])
            attach_upto(t)
            w = sum(tangle.pending_count)
            if forced < 0:
                site = tangle.create_transaction(t, rng)
            else:
                site = tangle.create_forced(t, forced + 1, rng)
            waiting.append(site)
            typ[k] = site.type_label - 1
            cov[k] = sum(tangle.pending_count) - w
    return typ, cov


def _chain(n, delay=1.0):
    """Genesis plus a chain of n sites, each referencing its predecessor."""
    tangle = AgentTangle(1, delay)
    rng = np.random.default_rng(0)
    t = 0.5
    out = []
    for _ in range(n):
        site = tangle.create_transaction(t, rng)  # sole tip = previous site
        tangle.attach(site)
        out.append(site)
        t = site.attached_at + 0.5
    return tangle, out


# -- weights --------------------------------------------------------------------

def site_weight(tangle, site_id: int) -> int:
    """1 + number of distinct attached descendants of the site, walked over
    ``tangle.children``."""
    if site_id < 0 or site_id >= len(tangle.sites):
        raise KeyError(f"unknown site id {site_id}")
    if not tangle.attached[site_id]:
        raise ValueError(f"site {site_id} is not attached yet")
    seen = {site_id}
    stack = [site_id]
    while stack:
        for c in tangle.children[stack.pop()]:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return len(seen)


def test_chain_weight_counts_self_plus_descendants():
    tangle, chain = _chain(3)
    a, b, c = chain
    assert site_weight(tangle, a.id) == 3  # a, b, c
    assert site_weight(tangle, b.id) == 2
    assert site_weight(tangle, c.id) == 1
    assert site_weight(tangle, 0) == 4  # genesis sees everything


def test_diamond_weight_counts_distinct_descendants_once():
    tangle = AgentTangle(1, 1.0)
    rng = np.random.default_rng(1)
    a = tangle.create_transaction(0.5, rng)
    tangle.attach(a)
    # two siblings both reference a (it is the only tip while both select)
    b1 = tangle.create_transaction(2.0, rng)
    b2 = tangle.create_transaction(2.1, rng)
    assert b1.parents == (a.id, a.id) and b2.parents == (a.id, a.id)
    tangle.attach(b1)
    tangle.attach(b2)
    d = tangle.create_transaction(4.0, rng)
    tangle.attach(d)
    # d references some subset of {b1, b2}; either way each descendant
    # counts exactly once through both diamond arms
    assert site_weight(tangle, a.id) == 4
    assert site_weight(tangle, 0) == 5


def test_weight_errors():
    tangle, _ = _chain(1)
    with pytest.raises(KeyError):
        site_weight(tangle, 99)
    rng = np.random.default_rng(2)
    created = tangle.create_transaction(5.0, rng)
    with pytest.raises(ValueError):
        site_weight(tangle, created.id)  # not attached yet


# -- attach rules -----------------------------------------------------------------

def test_attach_twice_rejected():
    tangle = AgentTangle(1, 1.0)
    rng = np.random.default_rng(3)
    site = tangle.create_transaction(0.5, rng)
    tangle.attach(site)
    with pytest.raises(RuntimeError, match="twice"):
        tangle.attach(site)


def test_attach_requires_parent_order():
    tangle = AgentTangle(1, 1.0)
    rng = np.random.default_rng(4)
    site = tangle.create_transaction(0.5, rng)
    bad = Site(site.id, 0.0, 0.0, site.parents, site.type_label)
    with pytest.raises(RuntimeError, match="ordering"):
        tangle.attach(bad)


def test_attach_rejects_cross_type_edge():
    tangle = AgentTangle(2, 1.0)
    rng = np.random.default_rng(5)
    site = tangle.create_transaction(0.5, rng)  # selects genesis, type 1
    bad = Site(site.id, 0.5, 1.5, site.parents, 2)
    with pytest.raises(RuntimeError, match="conflict types"):
        tangle.attach(bad)


def test_unattached_parent_rejected():
    tangle = AgentTangle(1, 1.0)
    rng = np.random.default_rng(6)
    a = tangle.create_transaction(0.5, rng)
    b = tangle.create_transaction(0.6, rng)  # also selects genesis
    tangle.attach(a)
    tangle.attach(b)
    # c drew its parents while only a and b were tips
    c = tangle.create_transaction(2.0, rng)
    evil = Site(c.id, 2.0, 3.0, (c.id, c.id), 1)  # self-reference
    with pytest.raises(RuntimeError):
        tangle.attach(evil)


def test_selected_tip_stays_selectable_until_covered():
    tangle = AgentTangle(1, 1.0)
    rng = np.random.default_rng(7)
    a = tangle.create_transaction(0.5, rng)
    # genesis is pending now but still the only tip, so a second creation
    # must still be able to select it
    b = tangle.create_transaction(0.6, rng)
    assert b.parents == (0, 0)
    assert tangle.tip_count[0] == 1
    assert tangle.free_count(0) == 0  # pending
    tangle.attach(a)
    tangle.attach(b)
    tangle.check()


def test_select_tips_returns_matching_types():
    tangle = AgentTangle(2, 1.0)
    rng = np.random.default_rng(8)
    tangle.add_seed(1.0, 2)
    for _ in range(4):
        tangle.create_forced(1.0, 2, rng)
    for _ in range(200):
        a, b = tangle.select_tips(rng)
        assert tangle.sites[a].type_label == tangle.sites[b].type_label


# -- injections --------------------------------------------------------------------

def _grown_tangle(rng, n=30):
    tangle = AgentTangle(2, 1.0)
    t = 0.5
    pending = []
    for _ in range(n):
        while pending and pending[0].attached_at <= t:
            tangle.attach(pending.pop(0))
        pending.append(tangle.create_transaction(t, rng))
        t += 0.3
    while pending:
        tangle.attach(pending.pop(0))
    return tangle, t


def test_injection_seed_attaches_immediately_to_interior_sites():
    rng = np.random.default_rng(9)
    tangle, t = _grown_tangle(rng)
    type1_tips = tangle.tip_count[0]
    seed = tangle.add_seed(t + 5.0, 2)
    scheduled = [tangle.create_forced(t + 5.0, 2, rng) for _ in range(9)]
    assert tangle.tip_count == [type1_tips, 1]  # the seed consumed no tip
    assert tangle.created[1] == 10
    assert tangle.seed_ids == {seed.id}
    assert seed.attached_at == t + 5.0
    assert seed.parents == (0, 1)  # the two oldest interior sites
    for p in seed.parents:
        assert tangle.attached[p]
        assert tangle.children[p]  # interior: already had children
        assert tangle.sites[p].attached_at < seed.attached_at
    for s in scheduled:
        assert s.type_label == 2
        tangle.attach(s)
    assert tangle.tip_count[1] == 9  # seed covered, followers are tips
    tangle.check()


def test_early_seed_is_a_second_root_and_consumes_no_tip():
    rng = np.random.default_rng(11)
    tangle = AgentTangle(3, 1.0)
    seed = tangle.add_seed(0.0, 2)  # nothing is interior yet
    assert seed.parents is None
    assert tangle.tip_count == [1, 1, 0]
    first = tangle.create_transaction(0.5, rng)
    tangle.attach(first)  # genesis or the seed is now the one interior site
    (only,) = {p for p in first.parents}
    late = tangle.add_seed(2.0, 3)
    assert late.parents == (only, only)
    assert tangle.tip_count[2] == 1
    assert sum(tangle.tip_count) == 3  # first's tip, the untouched root, late
    tangle.check()


def test_injection_validation():
    with pytest.raises(ValueError):
        Injection(1.0, 1, 5)  # type 1 is the honest type
    with pytest.raises(ValueError):
        AgentTangleSim(ArrivalProcess(1.0), 1.0, types=2,
                       injections=(Injection(1.0, 3, 5),))
    with pytest.raises(ValueError):
        Injection(1.0, 2, 0)


def test_attack_burst_dominates_tip_population():
    # large conflicting burst against traffic that stops at the attack time:
    # once the burst attaches, the conflicting branch holds nearly every tip
    sim = AgentTangleSim(
        ArrivalProcess(60.0, stop=20.0), 3.0, types=2,
        injections=(Injection(20.0, 2, 10_000),),
    )
    frame = sim.run(30.0, seed_stream(31, 0))
    end_tips = frame.tips[-1]
    assert end_tips[1] > 9000
    # the honest branch froze at its ~2*rate*delay plateau; the conflicting
    # branch out-tips it by more than an order of magnitude
    assert end_tips[1] > 20 * end_tips[0]
    assert frame.created[-1, 1] == 10_000


# -- event-driven sim ---------------------------------------------------------------

def test_state_freezes_once_arrivals_stop():
    sim = AgentTangleSim(ArrivalProcess(60.0, stop=20.0), 3.0)
    frame = sim.run(30.0, seed_stream(32, 0))
    sel = frame.times >= 24.0  # all pending attach by stop + delay
    assert np.all(frame.tips[sel] == frame.tips[-1])
    assert np.array_equal(frame.free[sel], frame.tips[sel])  # nothing pending
    assert np.all(frame.pending[sel] == 0)


def test_tip_plateau_tracks_twice_rate_times_delay():
    sim = AgentTangleSim(ArrivalProcess(60.0), 3.0)
    means = []
    for r in range(10):
        frame = sim.run(50.0, seed_stream(33, r))
        means.append(frame.tips[frame.times >= 25.0, 0].mean())
    assert abs(np.mean(means) / 360.0 - 1.0) < 0.06


def test_rerun_bit_identical():
    sim = AgentTangleSim(ArrivalProcess(40.0), 2.0, types=2,
                         injections=(Injection(5.0, 2, 10),))
    a = sim.run(15.0, seed_stream(34, 0))
    b = sim.run(15.0, seed_stream(34, 0))
    assert np.array_equal(a.tips, b.tips)
    assert np.array_equal(a.created, b.created)


def test_an_empty_block_is_an_empty_float_stack():
    sim = AgentTangleSim(ArrivalProcess(5.0), 1.0, types=2)
    out = sim.run_block(10.0, [], grid_dt=0.5)
    assert out.shape == (0, 4, 21, 2) and out.dtype == np.float64


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_full_invariant_recheck_after_every_event(seed):
    sim = AgentTangleSim(
        ArrivalProcess(25.0), 1.0, types=2,
        injections=(Injection(1.5, 2, 5),),
    )
    frame = sim.run(6.0, np.random.default_rng(seed), check=True)
    assert np.array_equal(frame.free + frame.pending, frame.tips)


def test_genesis_counts_once():
    tangle = AgentTangle(3, 1.0)
    assert tangle.created == [1, 0, 0]
    assert tangle.tip_count == [1, 0, 0]
    assert tangle.free_counts == [1, 0, 0]


def test_constructor_validation():
    with pytest.raises(ValueError):
        AgentTangle(0, 1.0)
    with pytest.raises(ValueError):
        AgentTangle(1, 0.0)
    # the simulator shares the reduced model's constructor and its checks
    with pytest.raises(ValueError, match="delay"):
        AgentTangleSim(ArrivalProcess(1.0), 0.0)
    with pytest.raises(ValueError, match="conflict type"):
        AgentTangleSim(ArrivalProcess(1.0), 1.0, types=0)
    with pytest.raises(ValueError):
        AgentTangleSim(ArrivalProcess(1.0), 1.0, types=1,
                       injections=(Injection(1.0, 2, 3),))


# -- schedule-driven run vs the event-loop oracle ----------------------------------

@st.composite
def agent_configs(draw):
    types = draw(st.integers(1, 3))
    horizon = draw(st.sampled_from([1.7, 4.0, 6.25]))
    delay = draw(st.sampled_from([0.5, 1.0, 1.5]))
    injections = ()
    if types > 1:
        # bursts at 0, before the first attach, at the horizon, past it and
        # in between; repeats of a type and one-member bursts arise freely
        times = st.sampled_from([0.0, delay / 2, horizon, horizon + 0.5]) | st.integers(
            0, int(horizon * 4)
        ).map(lambda q: q / 4)
        injections = tuple(draw(st.lists(
            st.builds(Injection, times, st.integers(2, types), st.integers(1, 8)),
            max_size=4,
        )))
    return {
        "types": types,
        "horizon": horizon,
        "injections": injections,
        # dyadic gaps and delays make fixed arrivals tie exactly with
        # attaches and bursts; at rate 10 the lattice's 17th time lies past
        # horizon 1.7 and must not be made
        "rate": draw(st.sampled_from([2.0, 4.0, 8.0, 10.0])),
        "kind": draw(st.sampled_from(["poisson", "fixed"])),
        "delay": delay,
        "stop": draw(st.none() | st.integers(0, int(horizon)).map(float)),
        "grid_dt": draw(st.sampled_from([0.3, 0.5, 0.7, 1.0])),
    }


def _agent(config):
    return AgentTangleSim(
        ArrivalProcess(config["rate"], config["kind"], config["stop"]),
        config["delay"],
        types=config["types"],
        injections=config["injections"],
    )


@settings(max_examples=150, deadline=None)
@given(config=agent_configs(), seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(
    config={"types": 3, "horizon": 6.25, "rate": 4.0, "kind": "fixed",
            "delay": 1.0, "stop": None, "grid_dt": 0.3,
            "injections": (Injection(0.0, 3, 1), Injection(2.0, 2, 6),
                           Injection(2.0, 2, 3), Injection(6.25, 3, 4))},
    seed=5,
)
@example(
    config={"types": 2, "horizon": 4.0, "rate": 8.0, "kind": "poisson",
            "delay": 1.5, "stop": 2.0, "grid_dt": 0.7,
            "injections": (Injection(0.75, 2, 5), Injection(3.0, 2, 5))},
    seed=17,
)
@example(
    # the type-2 seed is a root that is interior by 1.25 while genesis is
    # still a tip: the type-3 seed hangs under that one interior site twice
    config={"types": 3, "horizon": 4.0, "rate": 2.0, "kind": "fixed",
            "delay": 1.0, "stop": None, "grid_dt": 0.5,
            "injections": (Injection(0.0, 2, 3), Injection(1.25, 3, 2))},
    seed=1,
)
@example(
    config={"types": 1, "horizon": 1.7, "rate": 10.0, "kind": "fixed",
            "delay": 0.5, "stop": None, "grid_dt": 0.5, "injections": ()},
    seed=0,
)
@example(
    # the last grid time is 6, so the seeding burst at the horizon 6.25 is
    # not made; the attaches after the last creation and up to 6 still
    # are, for the final recount
    config={"types": 2, "horizon": 6.25, "rate": 4.0, "kind": "poisson",
            "delay": 1.0, "stop": None, "grid_dt": 0.5,
            "injections": (Injection(6.25, 2, 3),)},
    seed=1,
)
def test_run_matches_event_loop_oracle(config, seed):
    sim = _agent(config)
    horizon, grid_dt = config["horizon"], config["grid_dt"]
    want = event_loop_run(sim, horizon, np.random.default_rng(seed), grid_dt)
    got = sim.run(horizon, np.random.default_rng(seed), grid_dt, check=True)
    for name in ("times", "tips", "free", "pending", "created"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


# about 9,000 tip draws: the kernel's doubles span several chunks
_MANY_DRAWS = {"types": 2, "horizon": 6.25, "rate": 500.0, "kind": "poisson",
               "delay": 1.0, "stop": None, "grid_dt": 0.5,
               "injections": (Injection(2.0, 2, 300), Injection(4.0, 2, 200))}


def _assert_draw_for_draw(config, rng, check):
    sim = _agent(config)
    ct, A, blocks, seeds, end = _scheduled(sim, config["horizon"], rng, config["grid_dt"])
    twin = copy.deepcopy(rng)  # both sides draw tips after the arrivals
    want = graph_kernel(sim, ct, blocks, seeds, end, rng)
    typ, cov, live = _kernel(ct, A, blocks, seeds, sim.delay, sim.types, end, twin, check)
    assert np.array_equal(typ, want[0]) and np.array_equal(cov, want[1])
    assert bool(live) == check


@settings(max_examples=150, deadline=None)
@given(config=agent_configs(), seed=st.integers(min_value=0, max_value=2**32 - 1),
       check=st.booleans())
@example(config=_MANY_DRAWS, seed=3, check=False)
@example(config=_MANY_DRAWS, seed=3, check=True)
@example(
    # nothing attaches before 1.75, so the d = 1 picks up to then see
    # genesis alone, which int(u * 1) picks
    config={"types": 1, "horizon": 4.0, "rate": 4.0, "kind": "fixed",
            "delay": 1.5, "stop": None, "grid_dt": 0.5, "injections": ()},
    seed=2, check=False,
)
@example(
    # the same in the multi-type pick: genesis is the only tip of any type
    config={"types": 2, "horizon": 4.0, "rate": 4.0, "kind": "fixed",
            "delay": 1.5, "stop": None, "grid_dt": 0.5,
            "injections": (Injection(3.0, 2, 3),)},
    seed=2, check=True,
)
@example(
    # a second burst of the seeded type 2 makes no seed, under the checks
    config={"types": 2, "horizon": 6.25, "rate": 8.0, "kind": "poisson",
            "delay": 1.0, "stop": None, "grid_dt": 0.5,
            "injections": (Injection(1.5, 2, 6), Injection(4.0, 2, 8))},
    seed=11, check=True,
)
@example(
    # three types and no burst: every tip stays type 1, so no creation
    # ever draws over several types
    config={"types": 3, "horizon": 6.25, "rate": 8.0, "kind": "poisson",
            "delay": 1.0, "stop": None, "grid_dt": 0.5, "injections": ()},
    seed=4, check=True,
)
@example(
    config={"types": 3, "horizon": 6.25, "rate": 8.0, "kind": "poisson",
            "delay": 1.0, "stop": None, "grid_dt": 0.5, "injections": ()},
    seed=4, check=False,
)
@example(
    # the first burst comes after some 20 attaches: the honest creations
    # before it pick within type 1, those after it over both types
    config={"types": 2, "horizon": 6.25, "rate": 8.0, "kind": "poisson",
            "delay": 0.5, "stop": None, "grid_dt": 0.5,
            "injections": (Injection(3.25, 2, 5),)},
    seed=7, check=True,
)
@example(
    config={"types": 2, "horizon": 6.25, "rate": 8.0, "kind": "poisson",
            "delay": 0.5, "stop": None, "grid_dt": 0.5,
            "injections": (Injection(3.25, 2, 5),)},
    seed=7, check=False,
)
def test_kernel_matches_the_object_graph_draw_for_draw(config, seed, check):
    _assert_draw_for_draw(config, np.random.default_rng(seed), check)


def test_kernel_draws_on_any_bit_generator():
    _assert_draw_for_draw(_MANY_DRAWS, np.random.Generator(np.random.MT19937(5)), True)


@pytest.mark.parametrize("n", [1, 2, 3, 2**31 + 1, 2**32, 10**7])
def test_the_largest_double_below_1_picks_the_last_tip(n):
    # the kernel's pick int(u * n) stays below n for every double u < 1 and n < 2**53
    assert int(np.nextafter(1.0, 0.0) * n) == n - 1


# -- one seed rule in both models -----------------------------------------------------

def _both_models(rate, delay, injections, stop=None):
    args = (ArrivalProcess(rate, stop=stop), delay)
    kw = {"types": 2, "injections": injections}
    return AgentTangleSim(*args, **kw), ReducedTangleSim(*args, **kw)


def test_early_burst_keeps_the_genesis_tip_in_both_models():
    # the seed at 0.5 finds no interior site: it becomes a second root, and
    # nothing attaches before 3, so each type holds exactly one tip at 1
    for sim in _both_models(20.0, 3.0, (Injection(0.5, 2, 3),)):
        for r in range(3):
            frame = sim.run(12.0, seed_stream(35, r))
            at_1 = frame.times == 1.0
            assert frame.tips[at_1, 0].tolist() == [1.0]
            assert frame.tips[at_1, 1].tolist() == [1.0]


def test_second_burst_adds_members_but_no_tip():
    # the second burst of a seeded type is 60 forced creations and no seed:
    # against the same seed without it, the state at 35 differs by exactly
    # 60 type-2 creations, and the tips are the same
    first = Injection(20.0, 2, 60)
    second = Injection(35.0, 2, 60)
    pairs = zip(_both_models(60.0, 3.0, (first,)), _both_models(60.0, 3.0, (first, second)))
    for one, two in pairs:
        for r in range(2):
            a = one.run(35.5, seed_stream(36, r))
            b = two.run(35.5, seed_stream(36, r))
            before = a.times < 35.0
            for name in ("tips", "free", "pending", "created"):
                assert np.array_equal(getattr(a, name)[before], getattr(b, name)[before])
            at = a.times == 35.0
            assert (b.created[at] - a.created[at]).tolist() == [[0.0, 60.0]]
            assert np.array_equal(b.tips[at], a.tips[at])

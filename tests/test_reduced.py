"""Counter-model unit tests.

The selection pmf is checked exactly in rational arithmetic.  The lockstep
kernel of `ReducedTangleSim.run_block` (and `run`, a block of one) is
pinned against three references kept here: an independently written
untyped counter loop (with a single conflict type both must consume the
random stream identically); the scalar event loop `scalar_run`, which
merges arrivals, attaches and injections one event at a time and draws one
uniform per call; and `kernel_run`, the per-member schedule-first loop
over creations that the lockstep replaced.  Every block, whatever its size
or split, must reproduce their frames bit for bit for every type count and
injection set.
"""
from collections import deque
from fractions import Fraction
from itertools import chain
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tanglesim import (
    ArrivalProcess,
    ExtinctLedgerError,
    Injection,
    ReducedTangleSim,
)
from tanglesim.agent import _fill_grid
from tanglesim.reduced import InvariantError, _fill, _schedule
from tanglesim.seeding import seed_stream
from tanglesim.trajectory import GridRecorder, make_grid


# -- selection laws (oracles; a11 imports them too) ----------------------------

def type_probabilities(tips) -> np.ndarray:
    """Probability that a new transaction extends each conflict type.

    Proportional to the squared tip count of the type: conditioning two
    independent uniform tip picks on landing in the same type weights a
    type by the square of its share of the tip population.
    """
    arr = np.asarray(tips, dtype=float)
    if arr.ndim != 1 or len(arr) == 0:
        raise ValueError("tips must be a non-empty 1-d array")
    if np.any(arr < 0):
        raise ValueError("tip counts must be non-negative")
    sq = arr * arr
    total = sq.sum()
    if total == 0:
        raise ExtinctLedgerError("every conflict type has zero tips")
    return sq / total


def free_consumed_distribution(free, pending, tips):
    """Distribution of the number of distinct free tips a selection covers.

    Returns the probabilities of covering 0, 1 or 2 distinct free tips when
    two parents are drawn uniformly with replacement from ``tips`` tips of
    which ``free`` are free and ``pending`` already selected.  The arithmetic
    is generic: pass ``fractions.Fraction`` values to get exact results.
    """
    if tips != free + pending:
        raise ValueError("tips must equal free + pending")
    if tips <= 0:
        raise ValueError("a type with zero tips cannot be selected")
    if free < 0 or pending < 0:
        raise ValueError("counts must be non-negative")
    denom = tips * tips
    p0 = (pending * pending) / denom
    p1 = ((2 * pending + 1) * free) / denom
    p2 = (free * free - free) / denom
    return p0, p1, p2


def expected_free_consumed(free, tips):
    """Mean number of distinct free tips covered: 2*free/tips - free/tips**2."""
    return 2 * free / tips - free / (tips * tips)


# -- scalar reference oracle ---------------------------------------------------

def sample_type(tips, rng: np.random.Generator) -> int:
    """Draw the conflict type extended by the next transaction (0-based).

    Consumes one uniform variate only when more than one type is live, so a
    single-type ledger uses the random stream exactly like an untyped model.
    """
    live = [i for i, l in enumerate(tips) if l > 0]
    if not live:
        raise ExtinctLedgerError("every conflict type has zero tips")
    if len(live) == 1:
        return live[0]
    weights = [float(tips[i]) ** 2 for i in live]
    r = rng.random() * sum(weights)
    acc = 0.0
    for i, w in zip(live, weights):
        acc += w
        if r <= acc:
            return i
    return live[-1]


def sample_free_consumed(free, pending, tips, rng: np.random.Generator) -> int:
    """Draw how many distinct free tips the next selection covers (0, 1 or 2)."""
    p0, p1, _ = free_consumed_distribution(free, pending, tips)
    r = rng.random()
    if r < p0:
        return 0
    if r < p0 + p1:
        return 1
    return 2


def scalar_run(sim: ReducedTangleSim, horizon, rng, grid_dt=0.5):
    """One event at a time: the next of arrival, attach and injection.

    Attaches take priority at equal times (left-limit rule), then
    injections, then honest creations; a burst of a type with no tips first
    seeds it with one attached free tip.
    """
    d = sim.types
    h = sim.delay
    tips = [0.0] * d
    free = [0.0] * d
    pend = [0.0] * d
    created = [0] * d
    tips[0] = free[0] = 1.0
    created[0] = 1

    arrival_times = sim.arrivals.times(horizon, rng)
    waiting = deque()
    inj_list = list(sim.injections)
    recorder = GridRecorder(make_grid(horizon, grid_dt), d)

    def create(i, now):
        u = sample_free_consumed(free[i], pend[i], tips[i], rng)
        created[i] += 1
        free[i] -= u
        pend[i] += u
        waiting.append((now + h, i, u))

    ai = 0
    ii = 0
    n_arrivals = len(arrival_times)
    while True:
        t_arr = arrival_times[ai] if ai < n_arrivals else np.inf
        t_att = waiting[0][0] if waiting else np.inf
        t_inj = inj_list[ii].time if ii < len(inj_list) else np.inf
        t_next = min(t_arr, t_att, t_inj)
        if t_next > horizon or t_next == np.inf:
            break
        recorder.advance(t_next, tips, free, pend, created)
        if t_att <= t_arr and t_att <= t_inj:
            _, i, u = waiting.popleft()
            tips[i] += 1 - u
            free[i] += 1
            pend[i] -= u
        elif t_inj <= t_arr:
            inj = inj_list[ii]
            ii += 1
            i = inj.type_label - 1
            m = inj.count
            if tips[i] == 0:
                created[i] += 1
                tips[i] += 1
                free[i] += 1
                m -= 1
            for _ in range(m):
                create(i, inj.time)
        else:
            ai += 1
            i = sample_type(tips, rng)
            create(i, t_arr)
    return recorder.finish(tips, free, pend, created)


# -- per-member oracle: the schedule-first loop over creations -----------------

def kernel_run(sim: ReducedTangleSim, horizon, rng, grid_dt=0.5, check=False):
    """One member on the shared schedule: `_kernel` draws each creation's
    type and coverage, and the agent's grid fill turns those into a frame
    at the attaches and creations made by each grid time."""
    grid = make_grid(horizon, grid_dt)
    g = np.minimum(grid, horizon)
    ct, _, blocks, seeds, _ = _schedule(sim, horizon, rng, g)
    typ, cov = _kernel(ct, blocks, sim.delay, sim.types, horizon, rng, check)
    reads = [np.searchsorted(ct + sim.delay, g, side="right"), np.searchsorted(ct, g, side="right")]
    return _fill_grid(grid, np.array(reads), typ, cov, seeds, sim.types)


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
    draw = chain.from_iterable(iter(lambda: rng.random(1024).tolist(), None)).__next__

    def verify() -> None:
        for i in range(types):
            if free[i] + pend[i] != tips[i] or min(free[i], pend[i]) < 0:
                raise InvariantError(
                    f"type {i + 1}: free {free[i]} + pending {pend[i]} != tips {tips[i]}"
                    " or a count below 0"
                )

    a = 0
    for start, stop, forced, _, seed in blocks:
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


# -- selection pmf -------------------------------------------------------------

def test_pmf_sums_to_one_exactly_for_all_small_states():
    for tips in range(1, 51):
        for free in range(0, tips + 1):
            p0, p1, p2 = free_consumed_distribution(
                Fraction(free), Fraction(tips - free), Fraction(tips)
            )
            assert p0 + p1 + p2 == 1
            assert p0 >= 0 and p1 >= 0 and p2 >= 0


def test_pmf_matches_direct_enumeration():
    # draw two parents with replacement from L tips (W pending, X free) and
    # count distinct free tips covered; compare against the closed form
    rng = np.random.default_rng(123)
    L, X = 6, 4
    W = L - X
    counts = np.zeros(3)
    n = 200_000
    picks = rng.integers(0, L, size=(n, 2))
    # tips 0..X-1 free, X..L-1 pending
    for a, b in picks:
        got = len({p for p in (a, b) if p < X})
        counts[got] += 1
    emp = counts / n
    p = free_consumed_distribution(float(X), float(W), float(L))
    assert np.allclose(emp, p, atol=5e-3)


def test_pmf_hand_values():
    # one free tip out of one: both picks hit it
    assert free_consumed_distribution(1, 0, 1) == (0.0, 1.0, 0.0)
    # all free, L=2: p2 = (4-2)/4
    p0, p1, p2 = free_consumed_distribution(2, 0, 2)
    assert (p0, p1, p2) == (0.0, 0.5, 0.5)
    # no free tips: always 0
    assert free_consumed_distribution(0, 3, 3) == (1.0, 0.0, 0.0)


def test_pmf_rejects_inconsistent_counters():
    with pytest.raises(ValueError):
        free_consumed_distribution(2, 2, 3)
    with pytest.raises(ValueError):
        free_consumed_distribution(0, 0, 0)
    with pytest.raises(ValueError):
        free_consumed_distribution(-1, 2, 1)


def test_expected_free_consumed_matches_pmf_mean():
    for tips in range(1, 30):
        for free in range(0, tips + 1):
            p0, p1, p2 = free_consumed_distribution(
                Fraction(free), Fraction(tips - free), Fraction(tips)
            )
            mean = p1 + 2 * p2
            assert expected_free_consumed(Fraction(free), Fraction(tips)) == mean


def test_type_probabilities_square_law():
    p = type_probabilities([3.0, 4.0])
    assert np.allclose(p, [9 / 25, 16 / 25])
    assert p.sum() == pytest.approx(1.0, abs=0)


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=6))
def test_type_probabilities_sum_to_one(tips):
    if sum(t * t for t in tips) == 0:
        with pytest.raises(ExtinctLedgerError):
            type_probabilities(tips)
    else:
        p = type_probabilities(tips)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0)


def test_sample_type_single_live_type_skips_rng():
    class Boom:
        def random(self):  # pragma: no cover - must not be called
            raise AssertionError("rng consumed for a single live type")

    assert sample_type([0.0, 5.0, 0.0], Boom()) == 1


def test_sample_type_empirical_frequencies():
    rng = np.random.default_rng(7)
    tips = [1.0, 3.0]
    draws = np.array([sample_type(tips, rng) for _ in range(50_000)])
    assert abs((draws == 1).mean() - 0.9) < 0.01


def test_sample_free_consumed_uses_exactly_one_uniform():
    class Counting:
        def __init__(self):
            self.calls = 0

        def random(self):
            self.calls += 1
            return 0.5

    rng = Counting()
    sample_free_consumed(4.0, 2.0, 6.0, rng)
    assert rng.calls == 1


# -- d=1 twin: typed loop vs independent untyped loop --------------------------

def _untyped_twin(rate, delay, horizon, rng, grid_dt):
    """Minimal single-population counter loop written independently.

    Uses the same random stream discipline as the typed model at d=1: the
    arrival times are drawn first, then one uniform per creation.
    """
    tips, free, pend, created = 1.0, 1.0, 0.0, 1
    arrivals = ArrivalProcess(rate).times(horizon, rng)
    waiting = deque()
    grid = make_grid(horizon, grid_dt)
    out = np.zeros((len(grid), 4))
    cursor = 0

    def stamp(upto):
        nonlocal cursor
        while cursor < len(grid) and grid[cursor] < upto:
            out[cursor] = (tips, free, pend, created)
            cursor += 1

    ai = 0
    while True:
        t_arr = arrivals[ai] if ai < len(arrivals) else np.inf
        t_att = waiting[0][0] if waiting else np.inf
        t_next = min(t_arr, t_att)
        if t_next > horizon or t_next == np.inf:
            break
        stamp(t_next)
        if t_att <= t_arr:
            _, u = waiting.popleft()
            tips += 1 - u
            free += 1
            pend -= u
        else:
            ai += 1
            denom = tips * tips
            p0 = (pend * pend) / denom
            p1 = ((2 * pend + 1) * free) / denom
            r = rng.random()
            u = 0 if r < p0 else (1 if r < p0 + p1 else 2)
            created += 1
            free -= u
            pend += u
            waiting.append((t_next + delay, u))
    stamp(np.inf)
    return grid, out


def test_single_type_run_is_bit_identical_to_untyped_loop():
    sim = ReducedTangleSim(ArrivalProcess(30.0), 2.0, types=1)
    frame = sim.run(40.0, seed_stream(99, 0), grid_dt=0.5)
    grid, out = _untyped_twin(30.0, 2.0, 40.0, seed_stream(99, 0), 0.5)
    assert np.array_equal(frame.times, grid)
    assert np.array_equal(frame.tips[:, 0], out[:, 0])
    assert np.array_equal(frame.free[:, 0], out[:, 1])
    assert np.array_equal(frame.pending[:, 0], out[:, 2])
    assert np.array_equal(frame.created[:, 0], out[:, 3])


# -- lockstep kernel vs the oracles ------------------------------------------------

@st.composite
def reduced_configs(draw):
    types = draw(st.integers(1, 3))
    horizon = draw(st.sampled_from([1.7, 6.8, 10.0, 12.25]))
    injections = ()
    if types > 1:
        # bursts at 0, at the horizon, past it and in between; repeats of a
        # type and one-member bursts arise freely
        times = st.sampled_from([0.0, horizon, horizon + 0.5]) | st.integers(
            0, int(horizon * 4)
        ).map(lambda q: q / 4)
        injections = tuple(draw(st.lists(
            st.builds(Injection, times, st.integers(2, types), st.integers(1, 30)),
            max_size=4,
        )))
    return {
        "types": types,
        "horizon": horizon,
        "injections": injections,
        # dyadic gaps and delays make fixed arrivals tie exactly with
        # attaches; at rate 10 the lattice's 17th time, 1.7000000000000002,
        # lies past horizon 1.7 and must not be made
        "rate": draw(st.sampled_from([2.0, 4.0, 8.0, 10.0, 25.0])),
        "kind": draw(st.sampled_from(["poisson", "fixed"])),
        "delay": draw(st.sampled_from([0.3, 0.5, 1.0, 1.5])),
        "stop": draw(st.none() | st.integers(0, int(horizon)).map(float)),
        "grid_dt": draw(st.sampled_from([0.3, 0.5, 0.7, 1.0])),
    }


@settings(max_examples=150, deadline=None)
@given(config=reduced_configs(), seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(
    config={"types": 3, "horizon": 10.0, "rate": 4.0, "kind": "fixed",
            "delay": 1.0, "stop": None, "grid_dt": 0.3,
            "injections": (Injection(0.0, 3, 1), Injection(4.0, 2, 12),
                           Injection(4.0, 2, 5), Injection(10.0, 3, 6))},
    seed=5,
)
@example(
    config={"types": 2, "horizon": 12.25, "rate": 25.0, "kind": "poisson",
            "delay": 1.5, "stop": 5.0, "grid_dt": 0.7,
            "injections": (Injection(6.0, 2, 20), Injection(9.0, 2, 20))},
    seed=17,
)
@example(
    config={"types": 1, "horizon": 1.7, "rate": 10.0, "kind": "fixed",
            "delay": 0.5, "stop": None, "grid_dt": 0.5, "injections": ()},
    seed=0,
)
@example(
    config={"types": 1, "horizon": 1.7, "rate": 10.0, "kind": "fixed",
            "delay": 1.0, "stop": None, "grid_dt": 0.3, "injections": ()},
    seed=2,
)
def test_kernel_matches_scalar_oracle(config, seed):
    sim = ReducedTangleSim(
        ArrivalProcess(config["rate"], config["kind"], config["stop"]),
        config["delay"],
        types=config["types"],
        injections=config["injections"],
    )
    horizon, grid_dt = config["horizon"], config["grid_dt"]
    want = scalar_run(sim, horizon, np.random.default_rng(seed), grid_dt)
    got = sim.run(horizon, np.random.default_rng(seed), grid_dt, check=True)
    for name in ("times", "tips", "free", "pending", "created"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _counters(frame) -> np.ndarray:
    return np.stack((frame.tips, frame.free, frame.pending, frame.created))


_NO_BURSTS = {"types": 3, "horizon": 10.0, "rate": 8.0, "kind": "poisson", "delay": 1.0,
              "stop": None, "grid_dt": 0.5, "injections": ()}


@settings(max_examples=80, deadline=None)
@given(config=reduced_configs(), seed=st.integers(min_value=0, max_value=2**32 - 1),
       runs=st.integers(1, 6), cuts=st.sets(st.integers(1, 5)), check=st.booleans())
# three types and no burst: every creation is of type 1 and draws no type
@example(config=_NO_BURSTS, seed=6, runs=4, cuts={1, 3}, check=True)
@example(config=_NO_BURSTS, seed=6, runs=4, cuts={2}, check=False)
def test_blocks_match_the_per_member_oracles(config, seed, runs, cuts, check):
    # 1-6 runs cut into blocks of any sizes (a block of one is `run`), with
    # checks on or off: row r is run r's frame from both oracles
    sim = ReducedTangleSim(
        ArrivalProcess(config["rate"], config["kind"], config["stop"]),
        config["delay"],
        types=config["types"],
        injections=config["injections"],
    )
    horizon, grid_dt = config["horizon"], config["grid_dt"]
    edges = [0, *sorted(c for c in cuts if c < runs), runs]
    rows = np.concatenate([
        sim.run_block(horizon, [seed_stream(seed, r) for r in range(a, b)], grid_dt, check)
        for a, b in zip(edges, edges[1:])
    ])
    for r in range(runs):
        want = _counters(kernel_run(sim, horizon, seed_stream(seed, r), grid_dt))
        assert np.array_equal(rows[r], want)
        assert np.array_equal(rows[r], _counters(scalar_run(sim, horizon, seed_stream(seed, r), grid_dt)))
        assert np.array_equal(rows[r], _counters(sim.run(horizon, seed_stream(seed, r), grid_dt)))


def test_blocks_span_chunks_and_attach_lags_deeper_than_a_chunk():
    # a burst of 700 puts more creations in flight than a chunk holds, a
    # second burst lands on a seeded type, a third type is seeded late, and
    # the members differ in creation count
    sim = ReducedTangleSim(
        ArrivalProcess(40.0), 1.5, types=3,
        injections=(Injection(3.0, 2, 700), Injection(5.0, 3, 40), Injection(6.0, 2, 300)),
    )
    rngs = lambda: [seed_stream(8, r) for r in range(5)]
    block = sim.run_block(12.0, rngs(), grid_dt=0.25, check=True)
    assert len(set(block[:, 3, -1].sum(axis=1).tolist())) > 1
    assert np.array_equal(block, sim.run_block(12.0, rngs(), grid_dt=0.25))
    for r, rng in enumerate(rngs()):
        assert np.array_equal(block[r], _counters(kernel_run(sim, 12.0, rng, 0.25)))


@pytest.mark.parametrize("sizes", [[1] * 7, [3, 4], [7]], ids=["7x1", "3+4", "7"])
def test_any_lockstep_grouping_gives_the_same_stack(sizes):
    # seven members with a burst, cut into consecutive blocks of ``sizes``
    # members, as ``seeded_runs`` hands blocks to workers: one member per
    # block, two blocks, or all in one
    sim = ReducedTangleSim(ArrivalProcess(60.0), 3.0, types=2,
                           injections=(Injection(10.0, 2, 50),))
    want = np.stack([_counters(kernel_run(sim, 20.0, seed_stream(2, r))) for r in range(7)])
    edges = np.cumsum([0, *sizes]).tolist()
    got = np.concatenate([sim.run_block(20.0, [seed_stream(2, r) for r in range(a, b)])
                          for a, b in zip(edges, edges[1:])])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("first", [255, 256, 257])
def test_first_seed_at_a_chunk_edge_matches_the_oracle(first):
    # a fixed lattice at rate 10 makes creation k at (k + 1) / 10, so a
    # burst half-way between two lattice points seeds type 2 at creation
    # ``first``: just inside the first 256-creation chunk, at its end, and
    # one past it; the grid time first / 10 reads exactly ``first``
    # creations, the prefix where the type-1 steps end
    sim = ReducedTangleSim(ArrivalProcess(10.0, "fixed"), 1.0, types=2,
                           injections=(Injection((first + 0.5) / 10, 2, 6),))
    horizon, grid_dt = 40.0, 0.1
    ct, _, blocks, _, _ = _schedule(sim, horizon, None, make_grid(horizon, grid_dt))
    assert [start for start, _, _, _, seed in blocks if seed] == [first]
    assert first in np.searchsorted(ct, make_grid(horizon, grid_dt), side="right")
    rngs = lambda: [seed_stream(6, r) for r in range(4)]
    block = sim.run_block(horizon, rngs(), grid_dt, check=True)
    for r, rng in enumerate(rngs()):
        assert np.array_equal(block[r], _counters(kernel_run(sim, horizon, rng, grid_dt, True)))


# -- lag-safe sub-blocks at their edges -----------------------------------------
# The lockstep cuts each chunk into runs of steps that read no ring row
# written inside the run; these pin the cuts that are one step long, the
# members that finish inside a run and the seeds that land inside one.

def _matches_both_oracles(sim, horizon, rngs, grid_dt, check=True):
    """``rngs()`` makes the block's generators afresh; every row of the
    block, run with ``check``, is both oracles' frame of its member."""
    block = sim.run_block(horizon, rngs(), grid_dt, check)
    for r, (a, b) in enumerate(zip(rngs(), rngs())):
        assert np.array_equal(block[r], _counters(kernel_run(sim, horizon, a, grid_dt, check)))
        assert np.array_equal(block[r], _counters(scalar_run(sim, horizon, b, grid_dt)))
    return block


def _attaches_before_each_creation(sim, horizon):
    """A at each creation of a fixed lattice, the same for every member."""
    ct = _schedule(sim, horizon, None, np.empty(0))[0]
    return np.searchsorted(ct + sim.delay, ct, side="right")


@pytest.mark.parametrize("injections", [(), (Injection(2.25, 2, 1),)], ids=["type1", "seeded"])
def test_a_zero_attach_lag_on_every_row_matches_the_oracles(injections):
    # a lattice gap of 0.5 above the delay of 0.3: every creation sees all
    # the ones before it attached, so every sub-block is one step; a burst
    # of one seeds type 2 at 2.25 and makes no creation
    sim = ReducedTangleSim(ArrivalProcess(2.0, "fixed"), 0.3, types=1 + len(injections),
                           injections=injections)
    A = _attaches_before_each_creation(sim, 30.0)
    assert np.array_equal(A, np.arange(len(A)))
    _matches_both_oracles(sim, 30.0, lambda: [seed_stream(1, r) for r in range(4)], 0.25)


class _Sparse:
    """A generator whose arrival gaps are ``scale`` times numpy's, so its
    member makes fewer creations than the others of its block."""

    def __init__(self, rng, scale):
        self.rng = rng
        self.scale = scale

    def exponential(self, *args, **kwargs):
        return self.scale * self.rng.exponential(*args, **kwargs)

    def random(self, *args):
        return self.rng.random(*args)


@pytest.mark.parametrize("types", [1, 2])
def test_members_that_finish_inside_a_sub_block_keep_the_check_quiet(types):
    # about 180 creations in flight make sub-blocks run long, and the
    # members' creation counts differ, so members finish inside one; the
    # sparse member ends some 800 creations before the others, more than
    # the ring holds, and steps on through rows the ring has reused
    sim = ReducedTangleSim(ArrivalProcess(60.0), 3.0, types=types,
                           injections=(Injection(8.0, 2, 40),) if types == 2 else ())
    rngs = lambda: [seed_stream(5, 0), _Sparse(seed_stream(5, 1), 3.0), seed_stream(5, 2),
                    _Sparse(seed_stream(5, 3), 1.05)]
    block = _matches_both_oracles(sim, 20.0, rngs, 0.5)
    made = block[:, 3, -1].sum(axis=1)
    assert len(set(made.tolist())) == 4 and made.max() - made.min() > 512


def test_a_seed_inside_a_sub_block_matches_the_oracles():
    # lattice rate 10 and delay 1: nothing attaches before 1.1, so every
    # step up to then reads the genesis row.  Type 2, seeded at 0.25 at
    # creation 2, starts the steps of every type; type 3, seeded at 0.55
    # at creation 6, lies inside the sub-block that starts at 2.  The
    # honest steps 3-5 between the seeds pick type 1 or 2, each of one
    # tip, and must not see type 3 yet; its seed is checked against the
    # running U
    sim = ReducedTangleSim(ArrivalProcess(10.0, "fixed"), 1.0, types=3,
                           injections=(Injection(0.25, 2, 2), Injection(0.55, 3, 3)))
    blocks = _schedule(sim, 12.0, None, np.empty(0))[2]
    assert [start for start, _, _, _, seed in blocks if seed] == [2, 6]
    assert _attaches_before_each_creation(sim, 12.0)[:12].max() == 0
    _matches_both_oracles(sim, 12.0, lambda: [seed_stream(9, r) for r in range(5)], 0.3)


def test_an_empty_block_is_an_empty_float_stack():
    sim = ReducedTangleSim(ArrivalProcess(5.0), 1.0, types=2)
    out = sim.run_block(10.0, [], grid_dt=0.5)
    assert out.shape == (0, 4, 21, 2) and out.dtype == np.float64


class _Overdrawn:
    """A generator whose uniforms are 1.5, past [0, 1): every creation
    covers two free tips, more than a type with one free tip holds."""

    def __init__(self, rng):
        self.rng = rng

    def exponential(self, *args, **kwargs):
        return self.rng.exponential(*args, **kwargs)

    def random(self, n):
        return np.full(n, 1.5)


def test_check_finds_a_corrupted_member_inside_a_block():
    sim = ReducedTangleSim(ArrivalProcess(20.0), 1.0)
    rngs = [seed_stream(3, 0), _Overdrawn(seed_stream(3, 1)), seed_stream(3, 2)]
    # the first creation of the middle member leaves free -1 + pending 2
    with pytest.raises(InvariantError, match="type 1: free -1 "):
        sim.run_block(10.0, rngs, check=True)


def test_fill_checks_the_horizon_column():
    # one member, two types, type 2 seeded at 0.5; the grid 0, 1 and the
    # horizon 2.  Prefixes (U at attaches, U at creations, C at attaches, C
    # at creations) that leave type 2 with free 1 + 1 - 3 = -1 at the
    # horizon; an earlier column is not checked
    def block():
        out = np.zeros((1, 4, 3, 2))
        out[0, :, -1, 1] = 1, 3, 1, 3
        out[0, :, 0, 0] = 0, 5, 0, 0
        return out

    g = np.array([0.0, 1.0, 2.0])
    out = block()
    _fill([{1: 0.5}], g, False, out)
    assert out[0, :3, -1, 1].tolist() == [1.0, -1.0, 2.0]  # tips, free, pending
    with pytest.raises(InvariantError, match=r"^type 2: free -1 \+ pending 2 != tips 1 "):
        _fill([{1: 0.5}], g, True, block())


def test_reruns_are_bit_identical():
    sim = ReducedTangleSim(ArrivalProcess(60.0), 3.0, types=2,
                           injections=(Injection(5.0, 2, 20),))
    a = sim.run(30.0, seed_stream(4, 1))
    b = sim.run(30.0, seed_stream(4, 1))
    for fa, fb in ((a.tips, b.tips), (a.free, b.free), (a.pending, b.pending),
                   (a.created, b.created)):
        assert np.array_equal(fa, fb)


# -- steady state ---------------------------------------------------------------

def test_steady_tip_count_tracks_twice_rate_times_delay():
    sim = ReducedTangleSim(ArrivalProcess(60.0), 3.0)
    block = sim.run_block(60.0, [seed_stream(11, r) for r in range(20)], check=True)
    sel = make_grid(60.0, 0.5) >= 30.0
    means = block[:, 0, sel, 0].mean(axis=1)
    assert abs(np.mean(means) / 360.0 - 1.0) < 0.05


def test_mean_free_coverage_near_one_in_steady_state():
    # In equilibrium each creation covers one free tip on average.
    sim = ReducedTangleSim(ArrivalProcess(60.0), 3.0)
    frame = sim.run(80.0, seed_stream(12, 0))
    sel = frame.times >= 40.0
    l_mean = frame.tips[sel, 0].mean()
    x_mean = frame.free[sel, 0].mean()
    eu = expected_free_consumed(x_mean, l_mean)
    assert abs(eu - 1.0) < 0.05


# -- injections ------------------------------------------------------------------

def test_injection_seeds_fresh_type_immediately():
    sim = ReducedTangleSim(
        ArrivalProcess(60.0), 3.0, types=2, injections=(Injection(10.0, 2, 1),)
    )
    frame = sim.run(12.0, seed_stream(3, 0), grid_dt=0.5)
    at_seed = np.searchsorted(frame.times, 10.0)
    assert frame.tips[at_seed - 1, 1] == 0
    assert frame.tips[at_seed, 1] == 1
    assert frame.free[at_seed, 1] == 1
    assert frame.created[at_seed, 1] == 1


def test_injection_burst_peaks_at_count_minus_one_tips():
    # From a single forced seed tip, the first follower covers it and the
    # remaining m-2 cover nothing, so after the attach delay the type holds
    # exactly m-1 tips if no honest traffic touches the branch.
    m = 50
    sim = ReducedTangleSim(
        ArrivalProcess(0.001), 3.0, types=2, injections=(Injection(10.0, 2, m),)
    )
    frame = sim.run(20.0, seed_stream(8, 0), grid_dt=0.5)
    after = np.searchsorted(frame.times, 13.0)
    assert frame.tips[after, 1] == m - 1
    assert frame.created[after, 1] == m


def test_attack_decays_but_single_tip_floor_remains():
    # 200 forced conflicting transactions at t=100 under rate-60 honest
    # traffic: the branch's tip count decays far below its peak, but the
    # structural floor of one tip per existing type keeps it positive.
    sim = ReducedTangleSim(
        ArrivalProcess(60.0), 3.0, types=2, injections=(Injection(100.0, 2, 200),)
    )
    tips2 = sim.run_block(200.0, [seed_stream(404, r) for r in range(10)])[:, 0, :, 1]
    assert np.all(tips2[:, make_grid(200.0, 0.5) >= 100.0] >= 1)
    ends = tips2[:, -1]
    assert max(ends) < 60  # decayed well below the ~199 peak
    assert min(ends) >= 1


def test_injection_validation():
    with pytest.raises(ValueError):
        Injection(-1.0, 2, 5)
    with pytest.raises(ValueError):
        Injection(1.0, 1, 5)  # type 1 is the honest branch
    with pytest.raises(ValueError):
        Injection(1.0, 2, 0)
    with pytest.raises(ValueError):
        ReducedTangleSim(ArrivalProcess(1.0), 1.0, types=2,
                         injections=(Injection(1.0, 3, 5),))


# -- invariants -------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_counter_conservation_fuzz(seed):
    # check=True checks free + pending == tips after every event
    sim = ReducedTangleSim(
        ArrivalProcess(80.0), 1.5, types=2,
        injections=(Injection(2.0, 2, 10),),
    )
    frame = sim.run(12.0, np.random.default_rng(seed), check=True)
    assert np.array_equal(frame.free + frame.pending, frame.tips)
    assert np.all(frame.tips >= 0)


def test_ten_thousand_event_conservation_run():
    # ~60*150 = 9000 creations plus matching attaches
    sim = ReducedTangleSim(ArrivalProcess(60.0), 3.0, types=2,
                           injections=(Injection(50.0, 2, 100),))
    frame = sim.run(150.0, seed_stream(21, 0), check=True)
    assert frame.created[-1].sum() > 8000
    assert np.array_equal(frame.free + frame.pending, frame.tips)


def test_run_validates_horizon():
    sim = ReducedTangleSim(ArrivalProcess(1.0), 1.0)
    with pytest.raises(ValueError):
        sim.run(0.0, seed_stream(0, 0))

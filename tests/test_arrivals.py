import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglesim import ArrivalProcess
from tanglesim.seeding import seed_stream


def test_poisson_times_are_strictly_increasing_and_bounded():
    proc = ArrivalProcess(rate=60.0)
    t = proc.times(20.0, seed_stream(1, 0))
    assert np.all(np.diff(t) > 0)
    assert t[0] > 0
    assert t[-1] <= 20.0


def test_poisson_mean_count_matches_rate():
    proc = ArrivalProcess(rate=60.0)
    counts = [len(proc.times(50.0, seed_stream(7, r))) for r in range(50)]
    mean = np.mean(counts)
    # lambda*T = 3000, std of the mean ~ sqrt(3000/50) ~ 7.7
    assert abs(mean - 3000.0) < 40.0


def test_fixed_kind_is_a_deterministic_lattice():
    proc = ArrivalProcess(rate=4.0, kind="fixed")
    t = proc.times(2.0, seed_stream(0, 0))
    assert np.allclose(t, [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0])


def test_fixed_lattice_stays_within_the_horizon():
    # 17 * 0.1 is 1.7000000000000002, past 1.7
    t = ArrivalProcess(rate=10.0, kind="fixed").times(1.7, seed_stream(0, 0))
    assert len(t) == 16 and t[-1] <= 1.7


def test_fixed_lattice_keeps_a_point_at_its_end():
    # 7 * (1/3) is 2.333333333333333, and 2.333333333333333 / (1/3) is
    # 6.999999999999999: the 7th point lies exactly at the end
    end = 7 * (1 / 3)
    for proc, horizon in ((ArrivalProcess(3.0, "fixed"), end),
                          (ArrivalProcess(3.0, "fixed", stop=end), 10.0)):
        t = proc.times(horizon, seed_stream(0, 0))
        assert len(t) == 7 and t[-1] == end


@settings(max_examples=200, deadline=None)
@given(rate=st.floats(0.05, 500.0), k=st.integers(1, 3000), inverse=st.booleans(),
       as_stop=st.booleans())
def test_fixed_lattice_ends_at_the_last_point_not_above_its_end(rate, k, inverse, as_stop):
    gap = 1.0 / rate
    end = k * gap if inverse else k / rate
    j = k + 1  # the largest j with gap * j <= end
    while gap * j > end:
        j -= 1
    proc = ArrivalProcess(rate, "fixed", stop=end if as_stop else None)
    t = proc.times(2.0 * end if as_stop else end, seed_stream(0, 0))
    assert np.array_equal(t, gap * np.arange(1, j + 1))
    assert t[-1] == gap * j <= end


def test_stop_truncates_arrivals():
    proc = ArrivalProcess(rate=60.0, stop=5.0)
    t = proc.times(100.0, seed_stream(2, 0))
    assert t[-1] <= 5.0
    assert len(t) > 200  # ~300 expected before the cutoff


def test_same_seed_reproduces_the_same_times():
    proc = ArrivalProcess(rate=10.0)
    a = proc.times(30.0, seed_stream(5, 3))
    b = proc.times(30.0, seed_stream(5, 3))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_rate_must_be_positive(bad):
    with pytest.raises(ValueError):
        ArrivalProcess(rate=bad)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        ArrivalProcess(rate=1.0, kind="uniform")

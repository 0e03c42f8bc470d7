"""`integer_stream` against numpy's own scalar `Generator.integers` calls."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tanglesim.seeding import integer_stream

# the edges of the method: no word (1), the raw word (2**32), the largest
# rejection threshold (2**31 + 1) and small bounds
_EDGES = [1, 2, 3, 2**31 + 1, 2**32]


def _start(rng, how):
    """Bring a fresh generator to one of three starting states."""
    if how == "exponential":  # the arrivals' draws, 64-bit words only
        rng.exponential(0.5, size=37)
    elif how == "odd":  # one 32-bit draw: the spare half-word is buffered
        rng.integers(1000)
        assert rng.bit_generator.state["has_uint32"] == 1
    return rng


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    how=st.sampled_from(["fresh", "exponential", "odd"]),
    bounds=st.lists(
        st.sampled_from(_EDGES) | st.integers(1, 2**32) | st.integers(1, 400),
        min_size=1, max_size=40,
    ),
)
@example(seed=0, how="odd", bounds=_EDGES)
def test_stream_gives_the_values_of_scalar_integers_calls(seed, how, bounds):
    # the bounds repeat to 5,000 draws, so the words span several chunks
    bounds = (bounds * (5000 // len(bounds) + 1))[:5000]
    numpy_rng = _start(np.random.default_rng(seed), how)
    want = [int(numpy_rng.integers(n)) for n in bounds]
    draw = integer_stream(_start(np.random.default_rng(seed), how))
    assert [draw(n) for n in bounds] == want


def test_stream_refuses_other_bit_generators_and_bounds():
    with pytest.raises(ValueError, match="PCG64"):
        integer_stream(np.random.Generator(np.random.MT19937(1)))
    with pytest.raises(ValueError, match="PCG64"):
        integer_stream(np.random.Generator(np.random.PCG64DXSM(1)))
    draw = integer_stream(np.random.default_rng(1))
    for n in (0, -3, 2**32 + 1):
        with pytest.raises(ValueError, match="bound"):
            draw(n)

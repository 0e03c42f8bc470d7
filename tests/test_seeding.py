"""`word_stream` with `lemire_redraw` against numpy's own scalar
`Generator.integers` calls."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tanglesim.seeding import lemire_redraw, word_stream

# the edges of the method: no word (1), the raw word (2**32), the largest
# rejection threshold (2**31 + 1) and small bounds
_EDGES = [1, 2, 3, 2**31 + 1, 2**32]


def _integers(rng):
    """``draw(n)`` built from the two pieces the way the agent kernel draws
    a tip: a bound of 1 draws no word, and a low half below ``n`` takes
    the slow path."""
    word = word_stream(rng)

    def draw(n):
        if n == 1:
            return 0
        m = word() * n
        return m >> 32 if m & 0xFFFFFFFF >= n else lemire_redraw(m, n, word)

    return draw


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
    draw = _integers(_start(np.random.default_rng(seed), how))
    assert [draw(n) for n in bounds] == want


def test_streams_refuse_other_bit_generators():
    with pytest.raises(ValueError, match="PCG64"):
        word_stream(np.random.Generator(np.random.MT19937(1)))
    with pytest.raises(ValueError, match="PCG64"):
        word_stream(np.random.Generator(np.random.PCG64DXSM(1)))

"""`word_stream` with `lemire_redraw`, and `double_stream`, against numpy's
own scalar `Generator.integers` and `Generator.random` calls."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tanglesim.seeding import double_stream, lemire_redraw, word_stream

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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    how=st.sampled_from(["fresh", "exponential", "odd"]),
    first=st.integers(0, 2600),
    then=st.integers(0, 1500),
)
# more than two chunks of 1,024 words, with a half-word buffered at entry
@example(seed=0, how="odd", first=2500, then=0)
# a hand-back at a chunk's end, and before any draw
@example(seed=1, how="fresh", first=1024, then=1025)
@example(seed=2, how="odd", first=0, then=3)
def test_double_stream_gives_scalar_random_values_and_hands_back_their_state(seed, how, first, then):
    numpy_rng = _start(np.random.default_rng(seed), how)
    rng = _start(np.random.default_rng(seed), how)
    draw, hand_back = double_stream(rng)
    assert [draw() for _ in range(first)] == [numpy_rng.random() for _ in range(first)]
    hand_back()
    assert rng.bit_generator.state == numpy_rng.bit_generator.state
    # the generator's own calls in between; one 32-bit draw flips the
    # buffered half, which random() leaves alone
    assert rng.integers(1000) == numpy_rng.integers(1000)
    assert [draw() for _ in range(then)] == [numpy_rng.random() for _ in range(then)]
    hand_back()
    hand_back()  # a second hand-back changes nothing
    assert rng.bit_generator.state == numpy_rng.bit_generator.state


def test_streams_refuse_other_bit_generators():
    for stream in (word_stream, double_stream):
        with pytest.raises(ValueError, match="PCG64"):
            stream(np.random.Generator(np.random.MT19937(1)))
        with pytest.raises(ValueError, match="PCG64"):
            stream(np.random.Generator(np.random.PCG64DXSM(1)))

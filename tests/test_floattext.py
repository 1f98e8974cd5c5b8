"""Reprs' pieces against repr, byte for byte.

The kernel finds each double's shortest round-trip digits with integer
arithmetic and lays them out as CPython's repr does, so the reference
is repr itself: on raw bit patterns (every exponent, subnormals, NaNs
and infinities), on the powers of two and ten with both neighbours, and
on the edges of the positional layout.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from peaudio import signal_io
from peaudio._floattext import Reprs

# Separators of one byte, none, and of more than one word, as the JSON
# grids of `thresholds` use them.
SEPARATORS = [",", "", "; ", ",\n      ", "\n    ],\n    [\n      ", "·"]


def join_reprs(values, sep, row_sep) -> str:
    """The text of Reprs(sep, row_sep).pieces(values), joined."""
    return "".join(Reprs(sep, row_sep).pieces(values))


def reprs(values, sep, row_sep) -> str:
    return row_sep.join(sep.join(map(repr, row)) for row in values.tolist())


def neighbours(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


doubles = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda b: np.array(b, np.uint64).view(np.float64).item()),
    st.floats(),
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(doubles, max_size=40), sep=st.sampled_from(SEPARATORS))
def test_1d_matches_repr(values, sep):
    # A list is one column whose rows are joined by the same separator.
    x = np.array(values, np.float64).reshape(-1, 1)
    assert join_reprs(x, sep, sep) == sep.join(map(repr, values))


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    shape=st.tuples(st.integers(0, 7), st.integers(1, 7)),
    sep=st.sampled_from(SEPARATORS),
    row_sep=st.sampled_from(SEPARATORS),
)
def test_2d_matches_repr(data, shape, sep, row_sep):
    values = data.draw(st.lists(doubles, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    x = np.array(values, np.float64).reshape(shape)
    assert join_reprs(x, sep, row_sep) == reprs(x, sep, row_sep)


def test_sweep_matches_repr():
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([float(f"1e{e}") for e in range(-323, 309)])
    edges = np.array([
        1e16, 9999999999999998.0, 1e-4, 1e-5, 0.0, -0.0, 5e-324, -5e-324,
        np.finfo(np.float64).max, np.finfo(np.float64).tiny, np.inf, -np.inf, np.nan,
        0.1, 1 / 3, 123456789012345680.0, 0.00012345678901234567, 2.0**53, 2.0**53 + 2,
    ])
    random_bits = np.random.default_rng(32).integers(0, 2**64, 10**6, np.uint64, endpoint=False)
    x = np.concatenate([
        neighbours(powers_of_two), neighbours(powers_of_ten), neighbours(edges), -edges,
        random_bits.view(np.float64),
    ])
    assert join_reprs(x.reshape(-1, 1), ",", ",") == ",".join(map(repr, x.tolist()))


def test_rows_are_the_same_at_any_block_size(monkeypatch):
    x = np.random.default_rng(1).standard_normal((50, 23)) * 10.0 ** np.arange(-11, 12)
    want = reprs(x, ",", "\n")
    monkeypatch.setattr(signal_io, "usable_cpus", lambda: 2)
    monkeypatch.setattr(signal_io, "PARALLEL_MIN_BLOCKS", 2)
    for elements in (1, 23 * 4, 23 * 4 * 7, 1 << 15):
        monkeypatch.setattr(signal_io, "BLOCK_ELEMENTS", elements)
        assert join_reprs(x, ",", "\n") == want
        assert join_reprs(x.reshape(-1, 1), ",", ",") == ",".join(map(repr, x.ravel().tolist()))

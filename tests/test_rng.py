import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox, SeedSequence

from norts import InvalidInputError, RngStream
from norts.rng import _philox_keys


def test_identical_identity_replays_identical_sequence():
    a = RngStream(123, stream_id=7).uniform(1000)
    b = RngStream(123, stream_id=7).uniform(1000)
    np.testing.assert_array_equal(a, b)


def test_distinct_stream_ids_differ():
    a = RngStream(123, stream_id=0).uniform(1000)
    b = RngStream(123, stream_id=1).uniform(1000)
    assert not np.array_equal(a, b)
    # weak independence: empirical correlation of long streams is small
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_substreams_are_distinct_and_reproducible():
    root = RngStream(9)
    children = [root.substream(i).uniform(200) for i in range(5)]
    again = [RngStream(9).substream(i).uniform(200) for i in range(5)]
    for c, d in zip(children, again):
        np.testing.assert_array_equal(c, d)
    flat = np.array(children)
    assert len({tuple(row) for row in flat}) == 5


def test_nested_substream_differs_from_top_level():
    # (seed, (0, 1)) and (seed, (1,)) must not collide
    a = RngStream(4).substream(0).substream(1).uniform(100)
    b = RngStream(4, stream_id=1).uniform(100)
    assert not np.array_equal(a, b)


def test_uniform_support_is_open_unit_interval():
    u = RngStream(5).uniform(100_000)
    assert np.all(u > 0.0)
    assert np.all(u < 1.0)


def test_scalar_uniform():
    u = RngStream(5).uniform()
    assert isinstance(u, float)
    assert 0.0 < u < 1.0


def test_pickle_round_trip_restarts_stream():
    s = RngStream(11, stream_id=3)
    s.uniform(10)  # consume some state
    clone = pickle.loads(pickle.dumps(s))
    assert clone == s
    np.testing.assert_array_equal(clone.uniform(10), RngStream(11, stream_id=3).uniform(10))


def test_invalid_identity_rejected():
    with pytest.raises(InvalidInputError):
        RngStream(-1)
    with pytest.raises(InvalidInputError):
        RngStream(2**64)
    with pytest.raises(InvalidInputError):
        RngStream(0, stream_id=-2)
    with pytest.raises(InvalidInputError):
        RngStream(0).substream(-1)


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
PATHS = [
    (0,),
    (2**32,),
    (2**64 - 1,),
    (3, 2**40),
    (2**32 - 1, 0, 2**64 - 1),
    (2**33, 7, 2**40, 2**64 - 1),
]


def numpy_stream(seed, path):
    return Generator(Philox(SeedSequence(seed, spawn_key=path)))


def stream_at(seed, path):
    s = RngStream(seed, stream_id=path[0])
    for entry in path[1:]:
        s = s.substream(entry)
    return s


def assert_keys_match_seed_sequence(tail):
    indices = np.r_[np.arange(130), [65535, 65536, 2**31, 2**32 - 1]]
    for seed in SEEDS:
        for path in PATHS:
            keys = _philox_keys(seed, path, indices, tail)
            for i, key in zip(indices, keys):
                spawn_key = path + (int(i),) + tail
                ref = SeedSequence(seed, spawn_key=spawn_key).generate_state(2, np.uint64)
                np.testing.assert_array_equal(key, ref)
    assert _philox_keys(5, (1,), np.arange(0), tail).shape == (0, 2)


def test_batched_keys_match_numpy_seed_sequence():
    assert_keys_match_seed_sequence(())


@pytest.mark.parametrize("tail", [(0,), (1,), (2**64 - 1, 2**32)])
def test_batched_keys_with_tail_match_numpy_seed_sequence(tail):
    # tail (0,) is the Monte-Carlo harness's per-trial simulation stream
    assert_keys_match_seed_sequence(tail)


@given(
    seed=st.integers(0, 2**64 - 1),
    path=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3).map(tuple),
    indices=st.lists(st.integers(0, 2**32 - 1), max_size=6),
    tail=st.sampled_from([(), (0,)]),
)
@settings(max_examples=60, deadline=None)
def test_batched_keys_match_seed_sequence_property(seed, path, indices, tail):
    # the seed-and-path words are mixed once in Python ints, the index and
    # tail words as uint32 columns
    keys = _philox_keys(seed, path, indices, tail)
    assert keys.shape == (len(indices), 2) and keys.dtype == np.uint64
    for i, key in zip(indices, keys):
        ref = SeedSequence(seed, spawn_key=path + (i,) + tail).generate_state(2, np.uint64)
        np.testing.assert_array_equal(key, ref)


def test_uniform_rows_match_numpy_streams():
    for seed in SEEDS:
        for path in PATHS:
            rows = stream_at(seed, path).uniform_rows(range(12), 9)
            for i, row in enumerate(rows):
                ref = np.maximum(numpy_stream(seed, path + (i,)).random(9), np.finfo(float).tiny)
                np.testing.assert_array_equal(row, ref)


def test_uniform_rows_edge_counts_leave_stream_untouched():
    s = RngStream(21, stream_id=4)
    assert s.uniform_rows(range(0), 5).shape == (0, 5)
    np.testing.assert_array_equal(s.uniform_rows(range(1), 5)[0], s.substream(0).uniform(5))
    np.testing.assert_array_equal(s.uniform(5), RngStream(21, stream_id=4).uniform(5))


@given(
    seed=st.integers(0, 2**64 - 1),
    stream_id=st.integers(0, 2**64 - 1),
    count=st.integers(0, 12),
    size=st.integers(0, 40),
)
@settings(max_examples=40, deadline=None)
def test_uniform_rows_equal_substreams_property(seed, stream_id, count, size):
    s = RngStream(seed, stream_id=stream_id)
    rows = s.uniform_rows(range(count), size)
    assert rows.shape == (count, size)
    for i in range(count):
        np.testing.assert_array_equal(rows[i], s.substream(i).uniform(size))


@given(
    seed=st.integers(0, 2**64 - 1),
    stream_id=st.integers(0, 2**64 - 1),
    indices=st.lists(st.integers(0, 2**32 - 1), max_size=8),
    tail=st.lists(st.integers(0, 2**64 - 1), max_size=2).map(tuple),
    size=st.integers(0, 40),
)
@settings(max_examples=40, deadline=None)
def test_uniform_rows_any_index_set_and_tail_property(seed, stream_id, indices, tail, size):
    s = RngStream(seed, stream_id=stream_id)
    rows = s.uniform_rows(indices, size, tail)
    assert rows.shape == (len(indices), size)
    for i, row in zip(indices, rows):
        ref = s.substream(i)
        for entry in tail:
            ref = ref.substream(entry)
        np.testing.assert_array_equal(row, ref.uniform(size))


@pytest.mark.parametrize("start", [0, 1, 2, 3, 459, 473, 500, 1001])
def test_uniform_rows_from_an_offset_skip_the_first_uniforms(start):
    # start % 4 covers each position within a Philox block of four
    s = RngStream(47, stream_id=3)
    rows = s.uniform_rows([0, 6, 2**32 - 1], 141, tail=(0,), start=start)
    for i, row in zip([0, 6, 2**32 - 1], rows):
        np.testing.assert_array_equal(row, s.substream(i).substream(0).uniform(start + 141)[start:])
    blocks = list(s._uniform_blocks(list(range(5)), 9, start=start))
    assert [list(rows) for rows, _ in blocks] == [list(range(5))]
    for i, row in enumerate(blocks[0][1]):
        np.testing.assert_array_equal(row, s.substream(i).uniform(start + 9)[start:])


@pytest.mark.parametrize("a, b", [(0, 7), (1, 10), (3, 5), (4, 4), (7, 9), (494, 106)])
def test_consecutive_draws_split_one_draw(a, b):
    # Philox hands out four 64-bit words per counter step and buffers the
    # rest, so a split off a multiple of four is covered on purpose
    whole = RngStream(31, stream_id=2).substream(5).substream(0).uniform(a + b)
    s = RngStream(31, stream_id=2).substream(5).substream(0)
    np.testing.assert_array_equal(s.uniform(a), whole[:a])
    np.testing.assert_array_equal(s.uniform(b), whole[a:])
    row = RngStream(31, stream_id=2).uniform_rows([5], a + b, tail=(0,))[0]
    np.testing.assert_array_equal(row, whole)

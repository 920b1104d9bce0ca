"""The vectorised Philox keys equal the scalar seeding route, and a reset generator runs them."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermite_trend.gaussian import FgnSpec, _fgn_drawer
from hermite_trend.rng import _seed_keys, derive_seed, philox_generator, philox_keys, philox_streams
from hermite_trend.validation import ParameterError

FEW = settings(max_examples=80, deadline=None)

# Word-count edges of SeedSequence's entropy: one uint32 word below 2^32, two from 2^32 on.
EDGE_REPS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40]


def scalar_key(master, key, r):
    """The reference route: the key philox_generator(derive_seed(...)) gives to Philox."""
    return np.random.SeedSequence(derive_seed(master, *key, r)).generate_state(2, np.uint64)


class TestPhiloxKeys:
    @FEW
    @given(master=st.integers(0, 2**130 - 1),
           key=st.lists(st.integers(0, 2**40), max_size=3).map(tuple),
           extra=st.lists(st.integers(0, 2**40), max_size=4))
    def test_rows_equal_scalar_route(self, master, key, extra):
        reps = EDGE_REPS + extra
        keys = philox_keys(master, key, reps)
        assert keys.shape == (len(reps), 2) and keys.dtype == np.uint64
        for row, r in zip(keys, reps):
            assert np.array_equal(row, scalar_key(master, key, r))

    @FEW
    @given(child=st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1)))
    @example(child=0)
    @example(child=1)
    @example(child=2**32 - 1)
    @example(child=2**32)
    def test_child_seed_keys_equal_seed_sequence(self, child):
        # A child below 2^32 has one entropy word; no findable (master, key, r) yields one.
        low = np.array([child & 0xFFFFFFFF], np.uint32)
        high = np.array([child >> 32], np.uint32)
        assert np.array_equal(_seed_keys(low, high)[0],
                              np.random.SeedSequence(child).generate_state(2, np.uint64))

    def test_row_does_not_depend_on_range(self):
        block = philox_keys(820, (3, 0), range(0, 100))
        assert np.array_equal(philox_keys(820, (3, 0), range(37, 38)), block[37:38])
        assert philox_keys(820, (3, 0), range(0)).shape == (0, 2)

    def test_negative_master_seed_names_it(self):
        with pytest.raises(ParameterError, match="master_seed"):
            philox_keys(-1, (), range(3))

    def test_scalar_key_is_the_key_philox_generator_runs(self):
        state = philox_generator(derive_seed(2024, 7)).bit_generator.state["state"]
        assert np.array_equal(scalar_key(2024, (), 7), state["key"])
        assert not state["counter"].any()


class TestPhiloxStreams:
    """One Philox, reset to each key of a range, runs the streams of fresh generators."""

    def test_each_stream_equals_a_fresh_generator(self):
        reps = [0, 5, 2**32]
        for r, rng in zip(reps, philox_streams(41, (3, 1), reps)):
            fresh = philox_generator(derive_seed(41, 3, 1, r))
            # 7 normals leave part of Philox's 4-word output block unread; the next reset drops it
            assert np.array_equal(rng.standard_normal(7), fresh.standard_normal(7))

    @pytest.mark.parametrize("n", [1, 64, 4097])
    def test_drawer_after_a_path_gives_fresh_stream(self, n):
        draw = _fgn_drawer(FgnSpec(hurst=0.7, n=n))
        streams = philox_streams(41, (3, 1), [5, 6])
        path_a = draw(next(streams)).copy()
        rng = next(streams)
        path_b = draw(rng).copy()
        fresh = philox_generator(derive_seed(41, 3, 1, 6))
        assert not np.array_equal(path_a, path_b)
        # the same bits as a drawer that never drew another path, on a fresh generator
        assert np.array_equal(path_b, _fgn_drawer(FgnSpec(hurst=0.7, n=n))(fresh))
        assert np.array_equal(rng.standard_normal(3), fresh.standard_normal(3))

    def test_empty_range_yields_nothing(self):
        assert list(philox_streams(41, (), range(0))) == []

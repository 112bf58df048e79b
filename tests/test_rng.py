import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from milsde import crosscheck, paths, rng

WORD = 1 << 32


def seedsequence_key(seed, component, index, channel):
    return np.random.SeedSequence(entropy=seed, spawn_key=(component, index, channel)) \
        .generate_state(2, np.uint64)


class TestPhiloxKeys:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.one_of(st.integers(0, WORD - 1), st.integers(WORD, 1 << 200)),
           component=st.integers(0, WORD - 1),
           indices=st.lists(st.integers(0, WORD - 1), min_size=1, max_size=6),
           channels=st.integers(1, 9))
    @example(seed=WORD - 1, component=rng.ORACLE, indices=[WORD - 1, 0], channels=64)
    @example(seed=(1 << 40) + 5, component=rng.DRIVER_W, indices=[7], channels=8)
    @example(seed=0, component=0, indices=[0], channels=1)
    def test_batch_keys_equal_seedsequence(self, seed, component, indices, channels):
        keys = rng.philox_keys(seed, component, indices, channels)
        assert keys.shape == (len(indices), channels, 2) and keys.dtype == np.uint64
        for b, idx in enumerate(indices):
            for c in range(channels):
                assert np.array_equal(keys[b, c], seedsequence_key(seed, component, idx, c))

    def test_rejects_keys_outside_one_word(self):
        with pytest.raises(ValueError, match="one 32-bit word"):
            rng.philox_keys(1, rng.DRIVER_W, [WORD], 1)
        with pytest.raises(ValueError, match="non-negative"):
            rng.philox_keys(1, rng.DRIVER_W, [-1], 1)


class TestNormalMatrix:
    def test_draws_the_reference_streams_and_rejects_indices_outside_one_word(self):
        shape = (16, 2)
        keys = rng.philox_keys(3, rng.ORACLE, [5, WORD - 1], 2)
        got = rng.normal_matrix(keys, shape, scale=0.5)
        assert got.shape == (2, 16, 4)
        for b, idx in enumerate((5, WORD - 1)):
            for c in range(2):
                want = rng.stream(3, rng.ORACLE, idx, c).standard_normal(shape) * 0.5
                assert np.array_equal(got[b, :, 2 * c:2 * c + 2], want)
        assert rng.INDEX_LIMIT == WORD
        with pytest.raises(ValueError, match="one 32-bit word"):
            rng.normal_matrix(rng.philox_keys(3, rng.ORACLE, [5, WORD + 9], 2), shape)

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("blocks", [1, 4, 16, 64])
    def test_a_carried_draw_in_time_blocks_equals_one_call(self, blocks, width):
        # the streams drawn on block after block through one carry, in
        # blocks of uneven length, give the rows of one call, and each call
        # returns exactly the normals it drew
        rows, keys = 250, rng.philox_keys(7, rng.AUX_B, [3, 0, WORD - 1], 2)
        whole = rng.normal_matrix(keys, (rows, width), scale=0.5)
        got, carry = np.full_like(whole, np.nan), []
        edges = np.linspace(0, rows, blocks + 1).astype(int)
        for lo, hi in zip(edges[:-1], edges[1:]):
            drawn = rng.normal_matrix(keys, (hi - lo, width), scale=0.5, out=got[:, lo:hi],
                                      carry=carry)
            assert drawn.size == 3 * (hi - lo) * 2 * width
        assert len(carry) == 6 and np.array_equal(got, whole)
        # a carried stream is the slot's stream, from its start
        assert np.array_equal(got[2, :, width:], 0.5 * rng.stream(
            7, rng.AUX_B, WORD - 1, 1).standard_normal((rows, width)))

    def test_threads_on_disjoint_indices_match_the_serial_draw(self):
        grid = paths.make_grid(8, 16)
        serial = crosscheck.brownian_family(grid, 21, np.arange(64), rng.AUX_B, channels=3)
        parts = {}
        barrier = threading.Barrier(4)

        def work(k):
            barrier.wait(timeout=30)
            idx = np.arange(k, 64, 4)  # interleaved, so the threads' keys alternate
            parts[k] = (idx, crosscheck.brownian_family(grid, 21, idx, rng.AUX_B, channels=3))

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        got = np.empty_like(serial)
        for idx, part in parts.values():
            got[idx] = part
        assert len(parts) == 4 and np.array_equal(got, serial)

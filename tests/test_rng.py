import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from milsde import paths, rng

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
    def test_large_index_takes_the_fallback_and_draws_the_same_stream(self):
        shape = (16, 2)
        got = rng.normal_matrix(3, rng.ORACLE, [5, WORD + 9], shape, channels=2, scale=0.5)
        assert got.shape == (2, 16, 4)
        for b, idx in enumerate((5, WORD + 9)):
            for c in range(2):
                want = rng.stream(3, rng.ORACLE, idx, c).standard_normal(shape) * 0.5
                assert np.array_equal(got[b, :, 2 * c:2 * c + 2], want)

    def test_threads_on_disjoint_indices_match_the_serial_draw(self):
        grid = paths.make_grid(8, 16)
        serial = paths.brownian_family(grid, 21, np.arange(64), rng.AUX_B, channels=3)
        parts = {}
        barrier = threading.Barrier(4)

        def work(k):
            barrier.wait(timeout=30)
            idx = np.arange(k, 64, 4)  # interleaved, so the threads' keys alternate
            parts[k] = (idx, paths.brownian_family(grid, 21, idx, rng.AUX_B, channels=3))

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

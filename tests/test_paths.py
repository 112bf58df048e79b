import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from milsde import limits, paths, rng


class TestMakeGrid:
    def test_minimal_grid(self):
        g = paths.make_grid(1, 1)
        assert g.fine_count == 1
        assert np.array_equal(g.times(), [0.0, 1.0])

    def test_index_arithmetic(self):
        g = paths.make_grid(4, 2)
        assert g.fine_count == 8
        assert len(g.times()) == 9
        assert np.array_equal(g.coarse_indices(), [0, 2, 4, 6, 8])

    def test_exact_endpoint(self):
        g = paths.make_grid(64, 64)
        assert g.fine_count == 4096
        assert g.time_of(4096) == 1.0

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            paths.make_grid(0, 4)
        with pytest.raises(ValueError):
            paths.make_grid(4, 0)
        with pytest.raises(ValueError):
            paths.make_grid(1 << 20, 1 << 20)


class TestCoarseAnchor:
    def test_mid_cell(self):
        g = paths.make_grid(4, 2)
        assert paths.coarse_anchor(g, 3) == 2

    def test_coarse_point_jumps_back(self):
        # at a coarse point the left-open convention anchors a full cell back
        g = paths.make_grid(4, 2)
        assert paths.coarse_anchor(g, 2) == 0

    def test_origin(self):
        g = paths.make_grid(4, 2)
        assert paths.coarse_anchor(g, 0) == 0

    def test_out_of_range(self):
        g = paths.make_grid(4, 2)
        with pytest.raises(ValueError):
            paths.coarse_anchor(g, 9)

    def test_anchor_law_off_grid(self):
        # time(anchor(k)) = floor(n t)/n whenever t_k is not a coarse point
        g = paths.make_grid(8, 16)
        n = g.coarse_n
        for k in range(1, g.fine_count + 1):
            t = g.time_of(k)
            if k % g.fine_factor:
                assert g.time_of(paths.coarse_anchor(g, k)) == np.floor(n * t) / n

    def test_cell_anchors_match_right_endpoint(self):
        g = paths.make_grid(8, 16)
        anchors = paths.cell_anchors(g)
        for j in range(g.fine_count):
            assert anchors[j] == paths.coarse_anchor(g, j + 1)


class TestSampleBrownian:
    def test_deterministic(self):
        g = paths.make_grid(4, 16)
        w1 = paths.sample_brownian(g, 2, (123, 7))
        w2 = paths.sample_brownian(g, 2, (123, 7))
        assert np.array_equal(w1, w2)
        assert np.all(w1[0] == 0.0)

    def test_batch_matches_single(self):
        # a path's values depend only on its index, not the batch around it
        g = paths.make_grid(4, 16)
        spec = paths.brownian_motion_driver(1)
        batch = paths.simulate_bundle(spec, g, 99, range(10))
        solo = paths.sample_brownian(g, 1, (99, 7))
        assert np.array_equal(batch.w[7], solo)

    def test_terminal_variance(self):
        # CLT oracle: Var(W_1) over 1e5 paths within [0.99, 1.01]
        g = paths.make_grid(1, 64)
        spec = paths.brownian_motion_driver(1)
        b = paths.simulate_bundle(spec, g, 2024, range(100_000))
        v = b.w[:, -1, 0].var(ddof=1)
        assert 0.99 <= v <= 1.01

    def test_disjoint_increments_independent(self):
        g = paths.make_grid(2, 32)
        spec = paths.brownian_motion_driver(1)
        b = paths.simulate_bundle(spec, g, 7, range(100_000))
        first = b.w[:, 32, 0]
        second = b.w[:, 64, 0] - b.w[:, 32, 0]
        cov = np.mean(first * second) - first.mean() * second.mean()
        assert abs(cov) < 0.01

    def test_increment_moments(self):
        g = paths.make_grid(8, 8)
        spec = paths.brownian_motion_driver(1)
        b = paths.simulate_bundle(spec, g, 5, range(20_000))
        inc = np.diff(b.w[:, :, 0], axis=1).ravel()
        dt = g.fine_dt
        se_mean = np.sqrt(dt / inc.size)
        assert abs(inc.mean()) < 3 * se_mean
        se_var = dt * np.sqrt(2.0 / inc.size)
        assert abs(inc.var() - dt) < 3 * se_var


class TestBuildDriver:
    def test_identity_driver_is_bitwise(self):
        g = paths.make_grid(8, 8)
        spec = paths.brownian_motion_driver(1)
        w = paths.sample_brownian(g, 1, (3, 0))
        y, a_int = paths.build_driver(spec, w, g)
        assert np.array_equal(y, w)
        assert np.all(a_int == 0.0)

    def test_pure_drift_exact(self):
        g = paths.make_grid(8, 8)
        w = paths.sample_brownian(g, 1, (3, 0))
        y, a_int = paths.build_driver(paths.time_driver(), w, g)
        assert np.array_equal(y[:, 0], g.times())
        assert np.array_equal(a_int, y)

    def test_drift_integral_stored_once(self):
        g = paths.make_grid(4, 4)
        b = paths.simulate_bundle(paths.ito_embedding_driver(), g, 1, range(3))
        assert b.a_int.shape == (g.fine_count + 1, 2)
        assert np.array_equal(b.a_int[:, 1], g.times())
        assert np.array_equal(b.y[:, :, 1], np.tile(g.times(), (3, 1)))

    def test_ito_isometry_time_varying_sigma(self):
        # Var(Y_1) for sigma_s = s equals the left-point sum of t_j^2 dt,
        # which converges to int s^2 ds = 1/3
        g = paths.make_grid(1, 256)
        spec = paths.DriverSpec(dim_d=1, dim_m=1,
                                sigma=lambda s: np.array([[s]]), label="scaled")
        b = paths.simulate_bundle(spec, g, 11, range(20_000))
        v = b.y[:, -1, 0].var(ddof=1)
        discrete = np.sum(g.times()[:-1] ** 2) * g.fine_dt
        se = discrete * np.sqrt(2.0 / 20_000)
        assert abs(v - discrete) < 3 * se
        assert abs(discrete - 1.0 / 3.0) < 1.0 / 256

    def test_refinement_coupling(self):
        # coarse increments are sums of fine increments, no resampling
        g = paths.make_grid(8, 16)
        spec = paths.brownian_motion_driver(2)
        b = paths.simulate_bundle(spec, g, 42, range(4))
        fine = b.fine_increments().reshape(4, 8, 16, 2).sum(axis=2)
        coarse = np.diff(b.y[:, ::16], axis=1)
        assert np.allclose(fine, coarse, rtol=0, atol=1e-14)

    def test_nonfinite_sigma_rejected(self):
        # finite at the constructor's sample points, infinite on a grid point
        g = paths.make_grid(3, 5)
        bad = 1.0 / 15.0
        spec = paths.DriverSpec(dim_d=1, dim_m=1,
                                sigma=lambda s: np.array([[np.inf if s == bad else 1.0]]))
        w = paths.sample_brownian(g, 1, (0, 0))
        with pytest.raises(ValueError, match="non-finite"):
            paths.build_driver(spec, w, g)

    def test_driver_spec_validation(self):
        with pytest.raises(ValueError):
            paths.DriverSpec(dim_d=0, dim_m=1, sigma=np.zeros((1, 1)))
        with pytest.raises(ValueError):
            paths.DriverSpec(dim_d=2, dim_m=1, sigma=np.zeros((1, 1)))


def test_cell_qv_constant_sigma_exact():
    spec = paths.brownian_motion_driver(2)
    edges = np.linspace(0, 1, 5)
    qv = spec.cell_qv(edges)
    assert np.allclose(qv, 0.25 * np.eye(2), atol=1e-15)


class TestRunningSum:
    def test_zero_started_cumsum(self):
        inc = np.arange(24.0).reshape(2, 3, 4)
        for axis in (0, 1, 2, -1):
            out = paths.running_sum(inc, axis=axis)
            first = np.take(out, [0], axis=axis)
            assert np.all(first == 0.0)
            assert np.array_equal(np.take(out, range(1, out.shape[axis]), axis=axis),
                                  np.cumsum(inc, axis=axis))


class TestCellSplit:
    @pytest.mark.parametrize("coarse_n", [12, 4, 1])  # r = 1, in between, fine_count
    def test_views_match_cell_loop(self, coarse_n):
        b = paths.simulate_bundle(paths.brownian_motion_driver(2), paths.make_grid(12, 1),
                                  3, range(5))
        inc, disp = paths.cell_split(b.fine_increments(), coarse_n)
        r = 12 // coarse_n
        assert inc.shape == (5, coarse_n, r, 2) and disp.shape == (5, coarse_n, r + 1, 2)
        for k in range(coarse_n):
            anchor = b.y[:, k * r]
            acc = np.zeros((5, 2))
            for j in range(r):
                assert np.array_equal(disp[:, k, j], acc)  # left node of sub-cell j
                step = b.y[:, k * r + j + 1] - b.y[:, k * r + j]
                assert np.array_equal(inc[:, k, j], step)
                acc = acc + step
                assert np.array_equal(disp[:, k, j + 1], acc)  # right node
            assert np.allclose(acc, b.y[:, (k + 1) * r] - anchor, rtol=0, atol=1e-14)
        assert np.all(disp[:, :, 0] == 0.0)

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError, match="does not divide"):
            paths.cell_split(np.zeros((1, 13, 1)), 5)


class TestOverChunks:
    @settings(max_examples=60, deadline=None)
    @given(total=st.integers(1, 300), chunk=st.integers(1, 120), threads=st.integers(1, 4))
    def test_matches_one_chunk_in_index_order(self, total, chunk, threads):
        seen, lock = [], threading.Lock()

        def chunk_fn(idx):
            with lock:
                seen.append(idx)
            # per-index rows of two shapes, as the engine returns them
            return np.sqrt(idx + 1.0), np.stack([idx, idx ** 2], axis=1), idx % 3 == 0

        want = chunk_fn(np.arange(total))
        seen.clear()
        got = paths.over_chunks(total, chunk, chunk_fn, threads)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        # every call gets consecutive indices, at most chunk of them
        assert all(len(idx) <= chunk and np.array_equal(idx, np.arange(idx[0], idx[-1] + 1))
                   for idx in seen)
        assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(total))


def _reference_path(seed, component, idx, shape, channel, grid):
    # the per-key numpy construction the batched draw must reproduce
    z = rng.stream(seed, component, idx, channel).standard_normal(shape)
    return np.cumsum(z * np.sqrt(grid.fine_dt), axis=0)


class TestBrownianFamily:
    GRID = paths.make_grid(4, 8)
    BATCHES = ([5], [9, 5, 2], np.arange(7))

    def test_driver_layout(self):
        g = self.GRID
        want = _reference_path(11, rng.DRIVER_W, 5, (g.fine_count, 2), 0, g)
        for batch in self.BATCHES:
            dw = paths.brownian_family(g, 11, batch, rng.DRIVER_W, width=2)
            b = list(batch).index(5)
            assert dw.shape == (len(batch), g.fine_count, 2)
            assert np.array_equal(np.cumsum(dw[b], axis=0), want)
            w = paths.simulate_bundle(paths.brownian_motion_driver(2), g, 11, batch).w
            assert np.all(w[b, 0] == 0.0)
            assert np.array_equal(w[b, 1:], want)

    def test_aux_layout(self):
        g, m = self.GRID, 2
        for batch in self.BATCHES:
            aux = limits.sample_aux(g, m, 11, batch)
            b = list(batch).index(5)
            assert aux.db.shape == (len(batch), g.fine_count, m, m, m)
            assert aux.dwbar.shape == (len(batch), g.fine_count, m)
            for p in range(m):
                for i in range(m):
                    for j in range(m):
                        want = _reference_path(11, rng.AUX_B, 5, (g.fine_count,),
                                               (p * m + i) * m + j, g)
                        assert np.array_equal(np.cumsum(aux.db[b, :, p, i, j]), want)
                want = _reference_path(11, rng.AUX_WBAR, 5, (g.fine_count,), p, g)
                assert np.array_equal(np.cumsum(aux.dwbar[b, :, p]), want)

    def test_oracle_layout(self):
        g = self.GRID
        for batch in self.BATCHES:
            fam = paths.brownian_family(g, 11, batch, rng.ORACLE, channels=4)
            b = list(batch).index(5)
            assert fam.shape == (len(batch), g.fine_count, 4)
            for c in range(4):
                want = _reference_path(11, rng.ORACLE, 5, (g.fine_count,), c, g)
                assert np.array_equal(np.cumsum(fam[b, :, c]), want)

import threading
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from milsde import crosscheck, limits, paths, rng


class TestMakeGrid:
    def test_minimal_grid(self):
        g = paths.make_grid(1, 1)
        assert g.fine_count == 1
        assert np.array_equal(g.times(), [0.0, 1.0])

    def test_index_arithmetic(self):
        g = paths.make_grid(4, 2)
        assert g.fine_count == 8
        assert len(g.times()) == 9
        assert np.array_equal(g.times()[::g.fine_factor] * g.coarse_n, range(5))

    def test_exact_endpoint(self):
        g = paths.make_grid(64, 64)
        assert g.fine_count == 4096
        assert g.times()[-1] == 1.0

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            paths.make_grid(0, 4)
        with pytest.raises(ValueError):
            paths.make_grid(4, 0)
        with pytest.raises(ValueError):
            paths.make_grid(1 << 20, 1 << 20)


class TestCoarseAnchor:
    # the anchor as :func:`crosscheck.cell_split` applies it: the displacement of
    # node j of cell c is y at that node minus y at the cell's anchor, exact
    # on the integer path y_k = k^2
    @staticmethod
    def displacements(g):
        y = np.arange(g.fine_count + 1.0) ** 2
        return y, crosscheck.cell_split(np.diff(y)[None, :, None], g.coarse_n)[1][0, ..., 0]

    def test_coarse_point_jumps_back(self):
        # at a coarse point the left-open convention anchors a full cell back:
        # t_2 closes cell 0, so its displacement is taken from t_0
        g = paths.make_grid(4, 2)
        y, disp = self.displacements(g)
        assert disp[0, 2] == y[2] - y[0]

    def test_anchor_law_off_grid(self):
        # time(anchor(k)) = floor(n t)/n whenever t_k is not a coarse point
        g = paths.make_grid(8, 16)
        n, r = g.coarse_n, g.fine_factor
        y, disp = self.displacements(g)
        for k in range(1, g.fine_count + 1):
            t = g.times()[k]
            if k % r:
                anchor = int(np.floor(n * t)) * r
                assert g.times()[anchor] == np.floor(n * t) / n
                assert disp[k // r, k % r] == y[k] - y[anchor]


class TestSampleBrownian:
    def test_deterministic(self):
        g = paths.make_grid(4, 16)
        w1 = paths.simulate_bundle(paths.brownian_motion_driver(2), g, 123, [7]).w[0]
        w2 = paths.simulate_bundle(paths.brownian_motion_driver(2), g, 123, [7]).w[0]
        assert np.array_equal(w1, w2)
        assert np.all(w1[0] == 0.0)

    def test_batch_matches_single(self):
        # a path's values depend only on its index, not the batch around it
        g = paths.make_grid(4, 16)
        spec = paths.brownian_motion_driver(1)
        batch = paths.simulate_bundle(spec, g, 99, range(10))
        solo = paths.simulate_bundle(spec, g, 99, [7]).w[0]
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


# drivers whose Y is assembled each way: W itself, W plus a drift, a
# constant sigma, and a callable sigma (with a callable drift or none)
TIME_BLOCK_DRIVERS = {
    "identity": paths.brownian_motion_driver(1),
    "identity-drift": paths.DriverSpec(dim_d=1, dim_m=1, sigma=np.eye(1), drift=np.array([0.3])),
    "embedding": paths.ito_embedding_driver(),
    "callable-drift": paths.DriverSpec(
        dim_d=2, dim_m=2, sigma=lambda s: np.array([[1.0 + s, 0.3], [-0.2, 0.8 * np.cos(s)]]),
        drift=lambda s: np.array([np.sin(3.0 * s), 1.0 - s])),
    "callable": paths.DriverSpec(dim_d=2, dim_m=1,
                                 sigma=lambda s: np.array([[1.0 + s], [np.sin(5.0 * s)]])),
}


class TestBuildDriver:
    def test_identity_driver_is_bitwise(self):
        g = paths.make_grid(8, 8)
        spec = paths.brownian_motion_driver(1)
        w = paths.simulate_bundle(spec, g, 3, [0]).w
        y, a_int = paths.build_driver(spec, w, g)
        assert np.array_equal(y, w)
        assert np.all(a_int == 0.0)

    def test_identity_driver_is_its_path(self):
        # sigma = I without a drift returns the batch w itself; any other
        # sigma, or a drift, builds a new y and leaves w as it was
        g = paths.make_grid(4, 4)
        w = paths.simulate_bundle(paths.brownian_motion_driver(2), g, 3, range(3)).w
        kept = w.copy()
        y, _ = paths.build_driver(paths.brownian_motion_driver(2), w, g)
        assert y is w
        bundle = paths.simulate_bundle(paths.brownian_motion_driver(1), g, 3, range(2))
        assert bundle.y is bundle.w
        others = [paths.DriverSpec(dim_d=2, dim_m=2, sigma=np.diag([1.0, 2.0])),
                  paths.DriverSpec(dim_d=2, dim_m=2, sigma=np.eye(2), drift=np.ones(2)),
                  paths.DriverSpec(dim_d=2, dim_m=2, sigma=lambda s: np.eye(2))]
        for spec in others:
            y, a_int = paths.build_driver(spec, w, g)
            assert y is not w and not np.shares_memory(y, w)
            np.testing.assert_allclose(y, np.einsum("dm,bkm->bkd", spec.sigma_at([0.0])[0], w)
                                       + a_int, rtol=0, atol=1e-14)
        assert np.array_equal(w, kept)

    @pytest.mark.parametrize("name", TIME_BLOCK_DRIVERS)
    def test_y_is_written_to_out(self, name):
        # given a buffer, Y is assembled there with the bits of a fresh Y;
        # when Y is W it is w itself, and the buffer is not written
        spec, g = TIME_BLOCK_DRIVERS[name], paths.make_grid(4, 4)
        w = paths.simulate_bundle(paths.brownian_motion_driver(spec.dim_m), g, 3, range(3)).w
        fresh, a_fresh = paths.build_driver(spec, w, g)
        out = np.full((3, g.fine_count + 1, spec.dim_d), np.nan)
        y, a_int = paths.build_driver(spec, w, g, out=out)
        assert y.tobytes() == fresh.tobytes() and np.array_equal(a_int, a_fresh)
        if name == "identity-drift":
            # sigma = I with a drift goes through the einsum of any constant
            # sigma, whose one product per entry is 1.0 * w
            assert y.tobytes() == (w + a_int).tobytes()
        if spec.y_is_w:
            assert y is w and np.isnan(out).all()
        else:
            assert y is out

    @pytest.mark.parametrize("drift", [False, True])
    @pytest.mark.parametrize("d,m", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)])
    def test_constant_sigma_is_the_einsum(self, d, m, drift):
        # a constant sigma's Y, assembled one output channel at a time, holds
        # the bits of the whole-array einsum plus a_int.  For m <= 2 its sum
        # over j is one add, whose order cannot matter; at m = 3 the einsum
        # sums in another order and the two differ by rounding
        sigma = np.random.default_rng(d + 3 * m).standard_normal((d, m))
        spec = paths.DriverSpec(dim_d=d, dim_m=m, sigma=sigma,
                                drift=np.linspace(-1.0, 2.0, d) if drift else None)
        g = paths.make_grid(4, 4)
        w = paths.simulate_bundle(paths.brownian_motion_driver(m), g, 3, range(5)).w
        y, a_int = paths.build_driver(spec, w, g)
        want = np.einsum("dm,bkm->bkd", sigma, w)
        if drift:
            want += a_int
        assert np.array_equal(y, want)

    def test_pure_drift_exact(self):
        g = paths.make_grid(8, 8)
        w = paths.simulate_bundle(paths.brownian_motion_driver(1), g, 3, [0]).w
        y, a_int = paths.build_driver(paths.time_driver(), w, g)
        assert np.array_equal(y[0, :, 0], g.times())
        assert np.array_equal(a_int, y[0])

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
        fine = np.diff(b.y, axis=1).reshape(4, 8, 16, 2).sum(axis=2)
        coarse = np.diff(b.y[:, ::16], axis=1)
        assert np.allclose(fine, coarse, rtol=0, atol=1e-14)

    def test_nonfinite_sigma_rejected(self):
        # finite at the constructor's sample points, infinite on a grid point
        g = paths.make_grid(3, 5)
        bad = 1.0 / 15.0
        spec = paths.DriverSpec(dim_d=1, dim_m=1,
                                sigma=lambda s: np.array([[np.inf if s == bad else 1.0]]))
        w = paths.simulate_bundle(paths.brownian_motion_driver(1), g, 0, [0]).w
        with pytest.raises(ValueError, match="non-finite"):
            paths.build_driver(spec, w, g)

    def test_driver_spec_validation(self):
        with pytest.raises(ValueError):
            paths.DriverSpec(dim_d=0, dim_m=1, sigma=np.zeros((1, 1)))
        with pytest.raises(ValueError):
            paths.DriverSpec(dim_d=2, dim_m=1, sigma=np.zeros((1, 1)))


class TestStreamTimes:
    @pytest.mark.parametrize("length", [1, 3, 7, 20])
    @pytest.mark.parametrize("name", TIME_BLOCK_DRIVERS)
    def test_blocks_hold_the_whole_bundles_nodes(self, name, length):
        # W, Y and the drift integral summed on from the last block's last
        # node, with the streams drawn on: every block holds the bits of the
        # same nodes of the whole batch's bundle, in buffers every block reuses
        spec, grid, idx = TIME_BLOCK_DRIVERS[name], paths.Grid(20, 1), [4, 0, 9, 2, 7]
        whole = paths.simulate_bundle(spec, grid, 5, idx, component=rng.LIMIT_W)
        keys = rng.philox_keys(5, rng.LIMIT_W, idx, 1)
        starts, first = [], None
        for b in paths.stream_times(spec, grid, keys, length, paths.Workspace()):
            starts.append(b.start)
            nodes = slice(b.start, b.cells.stop + 1)
            assert b.cells == slice(b.start, min(b.start + length, 20))
            assert np.array_equal(b.w, whole.w[:, nodes]) and np.array_equal(b.y, whole.y[:, nodes])
            assert np.array_equal(b.a_int, whole.a_int[nodes])
            assert (b.y is b.w) == (whole.y is whole.w) == spec.y_is_w
            first = b.w if first is None else first
            assert np.shares_memory(b.w, first)
        assert starts == list(range(0, 20, length))

    def test_a_bundle_reads_its_block_by_absolute_node(self):
        spec, grid = paths.brownian_motion_driver(1), paths.Grid(12, 1)
        keys = rng.philox_keys(1, rng.LIMIT_W, range(2), 1)
        blocks = paths.stream_times(spec, grid, keys, 5, paths.Workspace())
        next(blocks)
        b = next(blocks)
        assert b.start == 5 and b.cells == slice(5, 10)
        assert b.nodes(slice(6, 9)) == slice(1, 5)
        for outside in (slice(4, 6), slice(9, 11)):
            with pytest.raises(ValueError, match="outside"):
                b.nodes(outside)


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
        inc, disp = crosscheck.cell_split(np.diff(b.y, axis=1), coarse_n)
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
            crosscheck.cell_split(np.zeros((1, 13, 1)), 5)


class TestStreamCells:
    # cells up to SCAN_ADDS long are scanned by adds, longer ones by a cumsum
    @settings(max_examples=150, deadline=None)
    @given(count=st.integers(1, 12), n=st.integers(1, 5),
           r=st.one_of(st.integers(1, 6),
                       st.integers(paths.SCAN_ADDS - 1, 2 * paths.SCAN_ADDS)),
           channels=st.integers(1, 3), rows=st.integers(1, 13), slots=st.integers(0, 2),
           seed=st.integers(0, 1 << 16))
    @example(count=5, n=2, r=paths.SCAN_ADDS, channels=2, rows=2, slots=1, seed=0)
    @example(count=5, n=2, r=paths.SCAN_ADDS + 1, channels=2, rows=2, slots=1, seed=0)
    def test_blocks_match_the_whole_split(self, count, n, r, channels, rows, slots, seed):
        # each block's increments and displacements are those of the whole
        # split in its rows, whatever the block size and the scan; signed
        # zeros among the increments check that both scans keep the bits
        gen = np.random.default_rng(seed)
        inc = gen.standard_normal((count, n * r, channels))
        inc[gen.random(inc.shape) < 0.1] = -0.0
        want_inc, want_disp = crosscheck.cell_split(inc, n)
        filled, seen = [], []

        def fill(blk, out):
            assert out.shape == (blk.stop - blk.start, n * r, channels)
            out[...] = inc[blk]
            filled.append(blk)

        def reduce(dyc, disp, work):
            blk = filled[-1]
            assert np.array_equal(dyc, np.moveaxis(want_inc[blk], -1, 0))
            want = np.moveaxis(want_disp[blk], -1, 0)
            assert np.array_equal(disp, want) and np.array_equal(np.signbit(disp),
                                                                 np.signbit(want))
            assert np.all(disp[..., 0] == 0.0) and not np.signbit(disp[..., 0]).any()
            assert work.shape == (slots, len(dyc[0]), n, r) and work.flags.c_contiguous
            seen.append(blk)
            return np.moveaxis(disp[..., -1], 0, -1), dyc[0, :, 0, 0]

        with mock.patch.object(paths, "rows_per_block", lambda total, row_bytes: rows):
            ends, first = paths.stream_cells(count, n * r, n, channels, fill, reduce, slots)
        assert seen == [slice(s, min(s + rows, count)) for s in range(0, count, rows)]
        assert np.array_equal(ends, want_disp[:, :, -1]) and np.array_equal(first, inc[:, 0, 0])

    @settings(max_examples=50, deadline=None)
    @given(fine_count=st.integers(1, 64), coarse_n=st.integers(1, 64))
    def test_rejects_non_divisor(self, fine_count, coarse_n):
        def fill(blk, out):
            raise AssertionError("a block was filled")

        assume(fine_count % coarse_n)
        with pytest.raises(ValueError, match="does not divide"):
            paths.stream_cells(3, fine_count, coarse_n, 1, fill, fill)


    def test_a_workspace_lends_its_buffers_to_every_call(self):
        # a caller that streams many blocks of paths passes one workspace:
        # every call fills the same buffers, with the results of fresh ones,
        # and a call on fewer rows takes a prefix of them
        inc = np.random.default_rng(3).standard_normal((7, 24, 2))
        seen = []

        def fill(blk, out):
            out[...] = inc[blk]

        def reduce(dyc, disp, work):
            seen.append((dyc, disp, work))
            return (disp[..., -1].sum(axis=0),)

        want = paths.stream_cells(7, 24, 6, 2, fill, reduce, slots=1)[0]
        space = paths.Workspace()
        for count in (7, 5):
            got = paths.stream_cells(count, 24, 6, 2, fill, reduce, slots=1, space=space)[0]
            assert np.array_equal(got, want[:count])
        assert all(np.shares_memory(a, b) for a, b in zip(seen[1], seen[2]))
        assert not any(np.shares_memory(a, b) for a, b in zip(seen[0], seen[1]))


class TestRowsPerBlock:
    @settings(max_examples=300, deadline=None)
    @given(count=st.integers(1, 500), row_bytes=st.integers(1, 4000),
           budget=st.one_of(st.none(), st.integers(1, 1 << 14)))
    @example(count=100, row_bytes=10, budget=1000)
    def test_blocks_are_the_most_rows_within_the_budget(self, count, row_bytes, budget):
        # within the budget unless one row; the most such rows; never more
        # rows than there are; and the blocks of range(0, count, rows) cover
        # every row once, in order
        rows = paths.rows_per_block(count, row_bytes, budget)
        budget = paths.BLOCK_BYTES if budget is None else budget
        assert rows * row_bytes <= budget or rows == 1
        assert rows == count or (rows + 1) * row_bytes > budget
        assert 0 < rows <= count
        blocks = [range(s, min(s + rows, count)) for s in range(0, count, rows)]
        assert [i for b in blocks for i in b] == list(range(count))

    def test_u_pass_at_the_largest_grid(self, monkeypatch):
        # U's pass over 2^26 fine steps of 1000 gbm draws: 13 rows of 152000
        # bytes in the default budget, which is read at each call
        assert paths.rows_per_block(paths.MAX_FINE_COUNT, 152000) == 13
        monkeypatch.setattr(paths, "BLOCK_BYTES", 152000 * 5)
        assert paths.rows_per_block(paths.MAX_FINE_COUNT, 152000) == 5


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

    def test_a_chunk_result_does_not_outlive_its_chunk(self):
        # a returned view pins its chunk's full-size base; once stored, it
        # must be gone before the next chunk allocates its own
        bases = []

        def chunk_fn(idx):
            assert all(ref() is None for ref in bases), "an earlier chunk is still alive"
            base = np.ones((len(idx), 64)) * idx[:, None]
            bases.append(weakref.ref(base))
            return (base[:, 3],)

        (got,) = paths.over_chunks(10, 3, chunk_fn)
        assert np.array_equal(got, np.arange(10.0)) and len(bases) == 4


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
            dw = crosscheck.brownian_family(g, 11, batch, rng.DRIVER_W, width=2)
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
            fam = crosscheck.brownian_family(g, 11, batch, rng.ORACLE, channels=4)
            b = list(batch).index(5)
            assert fam.shape == (len(batch), g.fine_count, 4)
            for c in range(4):
                want = _reference_path(11, rng.ORACLE, 5, (g.fine_count,), c, g)
                assert np.array_equal(np.cumsum(fam[b, :, c]), want)

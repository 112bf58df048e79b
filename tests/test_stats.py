import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from milsde import crosscheck, paths, stats


def time_bundle(n, r, seed=1):
    return paths.simulate_bundle(paths.time_driver(), paths.make_grid(n, r), seed, [0])


def bm_bundle(n, r, seed=1, n_paths=1):
    return paths.simulate_bundle(paths.brownian_motion_driver(1),
                                 paths.make_grid(n, r), seed, range(n_paths))


def quadratic_time_bundle(n, r, seed=1):
    # finite-variation driver with density y(s) = s, so Y_t = t^2 / 2
    spec = paths.DriverSpec(dim_d=1, dim_m=1, sigma=np.zeros((1, 1)),
                            drift=lambda s: np.array([s]), label="ramp")
    return paths.simulate_bundle(spec, paths.make_grid(n, r), seed, [0])


def cells(bundle, n):
    return crosscheck.cell_split(np.diff(bundle.y, axis=1), n)


def at_end(inc):
    """A functional's value at t = 1: the sum of its (B, n, r, ...) increments."""
    return inc.sum(axis=(1, 2))


def ibp_gap(c):
    dm = stats.dm(c)
    return stats.dn(c) - (dm + np.swapaxes(dm, -1, -2) + stats.dc(c))


class TestZFunctional:
    def test_time_driver_discrete_value(self):
        # left-point sums on Y_t = t give exactly (1 - 1/r)/2 after scaling
        n, r = 8, 16
        dz = stats.dz(cells(time_bundle(n, r), n))
        assert dz.shape == (1, n, r, 1, 1)
        assert np.all(dz[:, :, 0] == 0.0)  # Z restarts at every anchor
        assert n * at_end(dz)[0, 0, 0] == pytest.approx((1 - 1 / r) / 2, abs=1e-14)
        assert n * at_end(dz)[0, 0, 0] == pytest.approx(0.5, abs=0.6 / r)

    def test_constant_path_vanishes(self):
        spec = paths.DriverSpec(dim_d=1, dim_m=1, sigma=np.zeros((1, 1)))
        b = paths.simulate_bundle(spec, paths.make_grid(4, 4), 1, [0])
        assert np.all(stats.dz(cells(b, 4)) == 0.0)

    def test_brownian_mean_and_variance(self):
        # E Z = 0; n Var(Z_1) tends to 1/2 for the unit Brownian driver
        n, r, m = 64, 16, 4000
        b = bm_bundle(n, r, seed=9, n_paths=m)
        z1 = at_end(stats.dz(cells(b, n)))[:, 0, 0]
        se = z1.std(ddof=1) / np.sqrt(m)
        assert abs(z1.mean()) < 3 * se
        nv = n * z1.var(ddof=1)
        assert abs(nv - 0.5) < 0.05

    def test_divisibility_guard(self):
        with pytest.raises(ValueError, match="divide"):
            stats.dz(cells(time_bundle(8, 16), 3))


class TestMNFunctionals:
    def test_time_driver_discrete_values(self):
        n, r = 8, 16
        c = cells(time_bundle(n, r), n)
        m1 = at_end(stats.dm(c))[0, 0, 0, 0]
        n1 = at_end(stats.dn(c))[0, 0, 0, 0]
        assert n ** 2 * m1 == pytest.approx((1 - 1 / r) * (1 - 2 / r) / 6, abs=1e-13)
        assert n ** 2 * n1 == pytest.approx((r - 1) * (2 * r - 1) / (6 * r ** 2), abs=1e-13)
        # both converge to the 1/6 and 1/3 limits at O(1/r)
        assert n ** 2 * m1 == pytest.approx(1 / 6, abs=0.6 / r)
        assert n ** 2 * n1 == pytest.approx(1 / 3, abs=0.6 / r)

    def test_outer_product_symmetry(self):
        b = paths.simulate_bundle(paths.ito_embedding_driver(),
                                  paths.make_grid(8, 8), 7, range(3))
        vals = stats.dn(cells(b, 8))
        assert vals.shape == (3, 8, 8, 2, 2, 2)
        assert np.array_equal(vals, np.swapaxes(vals, -1, -2))

    def test_ibp_identity_scalar(self):
        # dN^p = dM^p + (dM^p)^T + (C - C@anchor) dY^p holds exactly per increment
        n = 16
        b = bm_bundle(n, 8, seed=5, n_paths=6)
        assert np.max(np.abs(ibp_gap(cells(b, n)))) < 1e-14

    def test_ibp_identity_embedding(self):
        n = 8
        b = paths.simulate_bundle(paths.ito_embedding_driver(),
                                  paths.make_grid(n, 16), 11, range(4))
        assert np.max(np.abs(ibp_gap(cells(b, n)))) < 1e-14


def _random_driver(d, m, timed_sigma, drift, seed):
    rs = np.random.default_rng(seed)
    base = rs.uniform(-1.0, 1.0, (d, m))
    a = rs.uniform(-2.0, 2.0, d)
    sigma = (lambda s: base * (1.0 + s) + 0.3 * np.sin(3.0 * s)) if timed_sigma else base
    drifts = {"none": None, "constant": a, "callable": lambda s: a * np.cos(2.0 * s)}
    return paths.DriverSpec(dim_d=d, dim_m=m, sigma=sigma, drift=drifts[drift], label="random")


class TestIncrements:
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 2), m=st.integers(1, 2), timed_sigma=st.booleans(),
           drift=st.sampled_from(["none", "constant", "callable"]),
           n=st.integers(1, 12), r=st.integers(1, 9), n_paths=st.integers(1, 4),
           seed=st.integers(0, 10_000))
    @example(d=1, m=1, timed_sigma=False, drift="none", n=4, r=8, n_paths=2, seed=1)
    @example(d=2, m=1, timed_sigma=True, drift="callable", n=3, r=5, n_paths=2, seed=2)
    def test_ibp_identity_on_random_drivers(self, d, m, timed_sigma, drift, n, r,
                                            n_paths, seed):
        # dn == dm + swapaxes(dm) + dc per increment, up to rounding at the
        # scale of the terms
        drv = _random_driver(d, m, timed_sigma, drift, seed)
        b = paths.simulate_bundle(drv, paths.make_grid(n, r), seed, range(n_paths))
        c = cells(b, n)
        dm, dn, dc = stats.dm(c), stats.dn(c), stats.dc(c)
        assert dm.shape == dn.shape == dc.shape == (n_paths, n, r, d, d, d)
        scale = max(np.max(np.abs(x)) for x in (dm, dn, dc))
        gap = dn - (dm + np.swapaxes(dm, -1, -2) + dc)
        assert np.max(np.abs(gap)) <= 1e-13 * scale

    @pytest.mark.parametrize("d,m", [(1, 1), (2, 1), (2, 2)])
    def test_k_fine_sums_dz_per_cell(self, d, m):
        drv = _random_driver(d, m, True, "constant", 10 * d + m)
        b = paths.simulate_bundle(drv, paths.make_grid(6, 7), 3, range(5))
        c = cells(b, 6)
        assert np.allclose(stats.k_fine(c), stats.dz(c).sum(axis=2), rtol=1e-12, atol=0.0)

    def test_fingerprints_are_first_component_covariations(self):
        b = paths.simulate_bundle(paths.ito_embedding_driver(),
                                  paths.make_grid(4, 8), 5, range(3))
        c = cells(b, 4)
        dm, dn, dy = stats.dm(c), stats.dn(c), c[0]
        m, n, w = dm[..., 0, 0, 0], dn[..., 0, 0, 0], dy[..., 0]
        want = [(m * m), (n * n), (n * m), (n * w), (m * w)]
        fp = stats.fingerprints(dm, dn, dy)
        assert fp.shape == (3, len(stats.FINGERPRINTS))
        for col, prod in enumerate(want):
            assert np.array_equal(fp[:, col], prod.sum(axis=(1, 2)))


class TestCubeFunctional:
    def test_unit_slope_exact(self):
        for n in (4, 64, 512):
            b = time_bundle(n, 1)
            val = crosscheck.cube_functional(b.y[0, :, 0], n)
            assert n ** 2 * val == pytest.approx(1 / 3, abs=1e-13)

    def test_single_increment(self):
        y = np.array([0.0, 2.0])
        assert crosscheck.cube_functional(y, 1) == pytest.approx(8 / 3, rel=1e-15)

    def test_interior_time_respects_left_open_anchor(self):
        y = np.array([0.0, 1.0, 3.0, 4.0, 8.0])
        # at the coarse point 1/2 the anchor jumps a full cell back, so the
        # partial term is the whole first coarse increment: (3-0)^3 / 3
        assert crosscheck.cube_functional(y, 2, t_index=2) == pytest.approx(9.0, rel=1e-15)
        # mid second cell: first full increment plus the partial (4-3)^3
        assert crosscheck.cube_functional(y, 2, t_index=3) == pytest.approx(28 / 3, rel=1e-15)
        # endpoint: both coarse increments, (3^3 + 5^3) / 3
        assert crosscheck.cube_functional(y, 2, t_index=4) == pytest.approx(152 / 3, rel=1e-15)

    def test_quadratic_density_exact_value(self):
        # exact samples of Y_t = t^2/2: the scaled cube sum is
        # 1/12 - 1/(24 n^2), approaching the 1/12 limit
        for n in (4, 64, 512):
            t = np.arange(n + 1) / n
            val = crosscheck.cube_functional(t ** 2 / 2, n)
            assert n ** 2 * val == pytest.approx(1 / 12 - 1 / (24 * n ** 2), rel=1e-10)

    def test_fv_agreement_halves_with_subgrid(self):
        # for a finite-variation path the integral form approaches the
        # cube sum at rate 1/r
        n = 8
        gaps = {}
        for r in (8, 16, 32, 64):
            b = quadratic_time_bundle(n, r)
            nv = at_end(stats.dn(cells(b, n)))[0, 0, 0, 0]
            cube = crosscheck.cube_functional(b.y[0, :, 0], n)
            gaps[r] = abs(cube - nv)
        assert gaps[16] / gaps[8] == pytest.approx(0.5, abs=0.1)
        assert gaps[64] / gaps[32] == pytest.approx(0.5, abs=0.1)

    def test_martingale_identity_with_qv_correction(self):
        # for any discrete path: sum of cubes = 3 S + 3 sum disp dY^2 + sum dY^3
        n, r = 16, 32
        b = bm_bundle(n, r, seed=3, n_paths=5)
        y = b.y[:, :, 0]
        cube3 = 3 * crosscheck.cube_functional(y, n)
        dyc, disp = c = cells(b, n)
        s3 = 3 * at_end(stats.dn(c))[:, 0, 0, 0]
        corr = 3 * (disp[:, :, :-1, 0] * dyc[..., 0] ** 2).sum(axis=(1, 2)) \
            + (dyc[..., 0] ** 3).sum(axis=(1, 2))
        assert np.max(np.abs(cube3 - s3 - corr)) < 1e-13

    def test_fv_exact_pair(self):
        b = time_bundle(64, 1)
        n1, m1 = crosscheck.fv_exact_nm(b.y[0, :, 0], 64)
        assert m1 == n1 / 2.0
        assert 64 ** 2 * n1 == pytest.approx(1 / 3, abs=1e-13)


class TestEmpiricalQv:
    """stats.covariation: the quadratic (co)variation of increment arrays."""

    def test_brownian_unit_qv(self):
        b = bm_bundle(4, 128, seed=13, n_paths=2000)
        dw = np.diff(b.w[:, :, 0], axis=1)
        qv = stats.covariation(dw, dw)
        se = qv.std(ddof=1) / np.sqrt(len(qv))
        assert abs(qv.mean() - 1.0) < 3 * se

    def test_smooth_path_qv_vanishes(self):
        b = time_bundle(4, 256)
        dy = np.diff(b.y, axis=1)
        qv = stats.covariation(dy, dy)[0]
        assert qv == pytest.approx(1.0 / 1024, rel=1e-10)

    def test_grid_mismatch(self):
        # increments on grids of 4 and 8 cells
        with pytest.raises(ValueError, match="equal shapes"):
            stats.covariation(np.zeros((1, 4)), np.zeros((1, 8)))

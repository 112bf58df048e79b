import numpy as np
import pytest

from milsde import paths, stats


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


class TestZFunctional:
    def test_time_driver_discrete_value(self):
        # left-point sums on Y_t = t give exactly (1 - 1/r)/2 after scaling
        n, r = 8, 16
        series = stats.z_functional(time_bundle(n, r), n)
        assert series.values[0, 0, 0, 0] == 0.0
        assert n * series.values[0, -1, 0, 0] == pytest.approx((1 - 1 / r) / 2, abs=1e-14)
        assert n * series.values[0, -1, 0, 0] == pytest.approx(0.5, abs=0.6 / r)

    def test_constant_path_vanishes(self):
        spec = paths.DriverSpec(dim_d=1, dim_m=1, sigma=np.zeros((1, 1)))
        b = paths.simulate_bundle(spec, paths.make_grid(4, 4), 1, [0])
        assert np.all(stats.z_functional(b, 4).values == 0.0)

    def test_brownian_mean_and_variance(self):
        # E Z = 0; n Var(Z_1) tends to 1/2 for the unit Brownian driver
        n, r, m = 64, 16, 4000
        b = bm_bundle(n, r, seed=9, n_paths=m)
        z1 = stats.z_functional(b, n).values[:, -1, 0, 0]
        se = z1.std(ddof=1) / np.sqrt(m)
        assert abs(z1.mean()) < 3 * se
        nv = n * z1.var(ddof=1)
        assert abs(nv - 0.5) < 0.05

    def test_divisibility_guard(self):
        with pytest.raises(ValueError, match="divide"):
            stats.z_functional(time_bundle(8, 16), 3)


class TestMNFunctionals:
    def test_time_driver_discrete_values(self):
        n, r = 8, 16
        b = time_bundle(n, r)
        m1 = stats.m_functional(b, n).values[0, -1, 0, 0, 0]
        n1 = stats.n_functional(b, n).values[0, -1, 0, 0, 0]
        assert n ** 2 * m1 == pytest.approx((1 - 1 / r) * (1 - 2 / r) / 6, abs=1e-13)
        assert n ** 2 * n1 == pytest.approx((r - 1) * (2 * r - 1) / (6 * r ** 2), abs=1e-13)
        # both converge to the 1/6 and 1/3 limits at O(1/r)
        assert n ** 2 * m1 == pytest.approx(1 / 6, abs=0.6 / r)
        assert n ** 2 * n1 == pytest.approx(1 / 3, abs=0.6 / r)

    def test_outer_product_symmetry(self):
        b = paths.simulate_bundle(paths.ito_embedding_driver(),
                                  paths.make_grid(8, 8), 7, range(3))
        vals = stats.n_functional(b, 8).values
        assert np.array_equal(vals, np.swapaxes(vals, -1, -2))

    def test_ibp_identity_scalar(self):
        # N^p = M^p + (M^p)^T + int C^(n) dY^p holds exactly for the sums
        n = 16
        b = bm_bundle(n, 8, seed=5, n_paths=6)
        nv = stats.n_functional(b, n).values
        mv = stats.m_functional(b, n).values
        cv = stats.qv_displacement_integral(b, n).values
        gap = nv - (mv + np.swapaxes(mv, -1, -2) + cv)
        assert np.max(np.abs(gap)) < 1e-14

    def test_ibp_identity_embedding(self):
        n = 8
        b = paths.simulate_bundle(paths.ito_embedding_driver(),
                                  paths.make_grid(n, 16), 11, range(4))
        nv = stats.n_functional(b, n).values
        mv = stats.m_functional(b, n).values
        cv = stats.qv_displacement_integral(b, n).values
        gap = nv - (mv + np.swapaxes(mv, -1, -2) + cv)
        assert np.max(np.abs(gap)) < 1e-14


class TestCubeFunctional:
    def test_unit_slope_exact(self):
        for n in (4, 64, 512):
            b = time_bundle(n, 1)
            val = stats.cube_functional(b.y[0, :, 0], n)
            assert n ** 2 * val == pytest.approx(1 / 3, abs=1e-13)

    def test_single_increment(self):
        y = np.array([0.0, 2.0])
        assert stats.cube_functional(y, 1) == pytest.approx(8 / 3, rel=1e-15)

    def test_interior_time_respects_left_open_anchor(self):
        y = np.array([0.0, 1.0, 3.0, 4.0, 8.0])
        # at the coarse point 1/2 the anchor jumps a full cell back, so the
        # partial term is the whole first coarse increment: (3-0)^3 / 3
        assert stats.cube_functional(y, 2, t_index=2) == pytest.approx(9.0, rel=1e-15)
        # mid second cell: first full increment plus the partial (4-3)^3
        assert stats.cube_functional(y, 2, t_index=3) == pytest.approx(28 / 3, rel=1e-15)
        # endpoint: both coarse increments, (3^3 + 5^3) / 3
        assert stats.cube_functional(y, 2, t_index=4) == pytest.approx(152 / 3, rel=1e-15)

    def test_quadratic_density_exact_value(self):
        # exact samples of Y_t = t^2/2: the scaled cube sum is
        # 1/12 - 1/(24 n^2), approaching the 1/12 limit
        for n in (4, 64, 512):
            t = np.arange(n + 1) / n
            val = stats.cube_functional(t ** 2 / 2, n)
            assert n ** 2 * val == pytest.approx(1 / 12 - 1 / (24 * n ** 2), rel=1e-10)

    def test_fv_agreement_halves_with_subgrid(self):
        # for a finite-variation path the integral form approaches the
        # cube sum at rate 1/r
        n = 8
        gaps = {}
        for r in (8, 16, 32, 64):
            b = quadratic_time_bundle(n, r)
            nv = stats.n_functional(b, n).values[0, -1, 0, 0, 0]
            cube = stats.cube_functional(b.y[0, :, 0], n)
            gaps[r] = abs(cube - nv)
        assert gaps[16] / gaps[8] == pytest.approx(0.5, abs=0.1)
        assert gaps[64] / gaps[32] == pytest.approx(0.5, abs=0.1)

    def test_martingale_identity_with_qv_correction(self):
        # for any discrete path: sum of cubes = 3 S + 3 sum disp dY^2 + sum dY^3
        n, r = 16, 32
        b = bm_bundle(n, r, seed=3, n_paths=5)
        y = b.y[:, :, 0]
        cube3 = 3 * stats.cube_functional(y, n)
        s3 = 3 * stats.n_functional(b, n).values[:, -1, 0, 0, 0]
        dyc, disp = paths.cell_split(b.fine_increments(), n)
        corr = 3 * (disp[:, :, :-1, 0] * dyc[..., 0] ** 2).sum(axis=(1, 2)) \
            + (dyc[..., 0] ** 3).sum(axis=(1, 2))
        assert np.max(np.abs(cube3 - s3 - corr)) < 1e-13

    def test_fv_exact_pair(self):
        b = time_bundle(64, 1)
        n1, m1 = stats.fv_exact_nm(b.y[0, :, 0], 64)
        assert m1 == n1 / 2.0
        assert 64 ** 2 * n1 == pytest.approx(1 / 3, abs=1e-13)


class TestEmpiricalQv:
    def test_brownian_unit_qv(self):
        b = bm_bundle(4, 128, seed=13, n_paths=2000)
        w_series = stats.StatSeries(kind="W", grid_level="fine", times=b.grid.times(),
                                    values=b.w[:, :, 0])
        qv = stats.empirical_qv(w_series, w_series).values[:, -1]
        se = qv.std(ddof=1) / np.sqrt(len(qv))
        assert abs(qv.mean() - 1.0) < 3 * se

    def test_smooth_path_qv_vanishes(self):
        b = time_bundle(4, 256)
        y_series = stats.StatSeries(kind="A", grid_level="fine", times=b.grid.times(),
                                    values=b.y[:, :, 0])
        qv = stats.empirical_qv(y_series, y_series).values[0, -1]
        assert qv == pytest.approx(1.0 / 1024, rel=1e-10)

    def test_grid_mismatch(self):
        a = stats.StatSeries("W", "fine", np.linspace(0, 1, 5), np.zeros((1, 5)))
        b = stats.StatSeries("W", "fine", np.linspace(0, 1, 9), np.zeros((1, 9)))
        with pytest.raises(ValueError, match="grid"):
            stats.empirical_qv(a, b)


class TestFvLimitQuadrature:
    def test_unit_density(self):
        n1, m1 = stats.fv_limit_quadrature(lambda s: 1.0)
        assert (n1, m1) == pytest.approx((1 / 3, 1 / 6), rel=1e-12)

    def test_ramp_density(self):
        n1, m1 = stats.fv_limit_quadrature(lambda s: s)
        assert (n1, m1) == pytest.approx((1 / 12, 1 / 24), rel=1e-10)

    def test_zero_density(self):
        assert stats.fv_limit_quadrature(lambda s: 0.0) == (0.0, 0.0)

    def test_constant_density_matches_discrete_exactly(self):
        # for constant densities the scaled cube sum equals the limit at
        # every n, the deterministic-exactness case
        for c in (1.0, 2.0):
            spec = paths.DriverSpec(dim_d=1, dim_m=1, sigma=np.zeros((1, 1)),
                                    drift=np.array([c]))
            for n in (4, 64):
                b = paths.simulate_bundle(spec, paths.make_grid(n, 1), 1, [0])
                n_exact, m_exact = stats.fv_exact_nm(b.y[0, :, 0], n)
                n_lim, m_lim = stats.fv_limit_quadrature(lambda s: c)
                assert n ** 2 * n_exact == pytest.approx(n_lim, rel=1e-12)
                assert n ** 2 * m_exact == pytest.approx(m_lim, rel=1e-12)

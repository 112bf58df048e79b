import numpy as np
import pytest

from milsde import crosscheck, paths


class TestFvLimitQuadrature:
    def test_unit_density(self):
        n1, m1 = crosscheck.fv_limit_quadrature(lambda s: 1.0)
        assert (n1, m1) == pytest.approx((1 / 3, 1 / 6), rel=1e-12)

    def test_ramp_density(self):
        n1, m1 = crosscheck.fv_limit_quadrature(lambda s: s)
        assert (n1, m1) == pytest.approx((1 / 12, 1 / 24), rel=1e-10)

    def test_zero_density(self):
        assert crosscheck.fv_limit_quadrature(lambda s: 0.0) == (0.0, 0.0)

    def test_constant_density_matches_discrete_exactly(self):
        # for constant densities the scaled cube sum equals the limit at
        # every n, the deterministic-exactness case
        for c in (1.0, 2.0):
            spec = paths.DriverSpec(dim_d=1, dim_m=1, sigma=np.zeros((1, 1)),
                                    drift=np.array([c]))
            for n in (4, 64):
                b = paths.simulate_bundle(spec, paths.make_grid(n, 1), 1, [0])
                n_exact, m_exact = crosscheck.fv_exact_nm(b.y[0, :, 0], n)
                n_lim, m_lim = crosscheck.fv_limit_quadrature(lambda s: c)
                assert n ** 2 * n_exact == pytest.approx(n_lim, rel=1e-12)
                assert n ** 2 * m_exact == pytest.approx(m_lim, rel=1e-12)

    def test_smooth_density_matches_adaptive_quadrature(self):
        from scipy.integrate import quad
        n1, m1 = crosscheck.fv_limit_quadrature(np.exp)
        val = quad(lambda s: np.exp(3 * s), 0.0, 1.0)[0]
        assert (n1, m1) == pytest.approx((val / 3, val / 6), rel=1e-12)

    def test_component_densities_and_horizon(self):
        # y_0 = 1, y_1 = s, y_2 = 1 + s: int_0^2 s (1 + s) ds = 2 + 8/3
        dens = (lambda s: 1.0, lambda s: s, lambda s: 1.0 + s)
        n1, m1 = crosscheck.fv_limit_quadrature(dens, components=(0, 1, 2), t_end=2.0)
        assert (n1, m1) == pytest.approx((14 / 9, 7 / 9), rel=1e-12)

    def test_singular_density_does_not_converge(self):
        # s^-2.7 is not integrable at 0: doubling the nodes moves the sum
        with pytest.raises(ArithmeticError, match="did not converge"):
            crosscheck.fv_limit_quadrature(lambda s: s ** -0.9)

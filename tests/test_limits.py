import numpy as np
import pytest

from milsde import limits, model, paths, rng, schemes


def limit_inputs(problem, fine_count, seed, n_draws):
    grid = paths.Grid(fine_count, 1)
    bundle = paths.simulate_bundle(problem.driver, grid, seed, range(n_draws),
                                   component=rng.LIMIT_W)
    aux = limits.sample_aux(grid, problem.driver.dim_m, seed, range(n_draws))
    return grid, bundle, aux


class TestAuxiliaryNoise:
    def test_deterministic_and_zero_start(self):
        g = paths.Grid(64, 1)
        a1 = limits.sample_aux(g, 1, 5, range(3))
        a2 = limits.sample_aux(g, 1, 5, range(3))
        assert np.array_equal(a1.db, a2.db) and np.array_equal(a1.dwbar, a2.dwbar)
        # one increment per fine cell
        assert a1.db.shape == (3, 64, 1, 1, 1) and a1.dwbar.shape == (3, 64, 1)

    def test_families_uncorrelated(self):
        g = paths.Grid(16, 1)
        aux = limits.sample_aux(g, 1, 5, range(4000))
        w1 = paths.brownian_family(g, 5, np.arange(4000), rng.LIMIT_W)[:, :, 0].sum(axis=1)
        b1 = aux.db[:, :, 0, 0, 0].sum(axis=1)
        wbar1 = aux.dwbar[:, :, 0].sum(axis=1)
        pairs = [(b1, wbar1), (b1, w1), (wbar1, w1)]
        for a, b in pairs:
            corr = np.mean(a * b)
            assert abs(corr) < 3.0 / np.sqrt(4000)

    def test_v_covariance_structure(self):
        # [V,V] = 3t, [V,B] = sqrt2 t, [V,W] = (sqrt3/2) t
        g = paths.Grid(256, 1)
        aux = limits.sample_aux(g, 1, 8, range(3000))
        dw = paths.brownian_family(g, 8, np.arange(3000), rng.LIMIT_W)
        dv = limits.assemble_v_increments(aux, paths.running_sum(dw, axis=1))[:, :, 0, 0, 0]
        db = aux.db[:, :, 0, 0, 0]
        dw = dw[:, :, 0]
        for prod, target in (((dv * dv), 3.0), ((dv * db), np.sqrt(2)),
                             ((dv * dw), np.sqrt(3) / 2)):
            qv = prod.sum(axis=1)
            se = qv.std(ddof=1) / np.sqrt(len(qv))
            assert abs(qv.mean() - target) < 3 * se


class TestSimulateMn:
    def test_zero_sigma_gives_zero(self):
        prob = model.make_det_exp()
        grid, bundle, aux = limit_inputs(prob, 128, 3, 4)
        m, n = limits.simulate_mn(prob.driver, bundle.w, aux)
        assert np.all(m == 0.0) and np.all(n == 0.0)

    def test_scalar_moments(self):
        # Var(M_1) = 1/6, Var(N_1) = 1, Cov(N, M) = 1/3, Cov(N, W) = 1/2
        drv = paths.brownian_motion_driver(1)
        g = paths.Grid(256, 1)
        w = paths.running_sum(paths.brownian_family(g, 7, np.arange(8000), rng.LIMIT_W),
                              axis=1)
        aux = limits.sample_aux(g, 1, 7, range(8000))
        m, n = limits.simulate_mn(drv, w, aux)
        m1, n1, w1 = m[:, -1, 0, 0, 0], n[:, -1, 0, 0, 0], w[:, -1, 0]
        checks = [(m1 * m1, 1 / 6), (n1 * n1, 1.0), (n1 * m1, 1 / 3), (n1 * w1, 0.5)]
        for sample, target in checks:
            se = sample.std(ddof=1) / np.sqrt(len(sample))
            assert abs(sample.mean() - target) < 3 * se

    def test_qv_fingerprints(self):
        # pathwise covariations of the simulated limits hit the constants
        drv = paths.brownian_motion_driver(1)
        g = paths.Grid(1024, 1)
        w = paths.running_sum(paths.brownian_family(g, 15, np.arange(3000), rng.LIMIT_W),
                              axis=1)
        aux = limits.sample_aux(g, 1, 15, range(3000))
        m, n = limits.simulate_mn(drv, w, aux)
        dm = np.diff(m[:, :, 0, 0, 0], axis=1)
        dn = np.diff(n[:, :, 0, 0, 0], axis=1)
        dw = np.diff(w[:, :, 0], axis=1)
        for prod, target in ((dm * dm, 1 / 6), (dn * dn, 1.0), (dn * dm, 1 / 3),
                             (dn * dw, 0.5), (dm * dw, 0.0)):
            qv = prod.sum(axis=1)
            se = qv.std(ddof=1) / np.sqrt(len(qv))
            assert abs(qv.mean() - target) < 3 * se + 1e-4

    def test_embedding_fingerprints(self):
        # the (W, t) embedding reproduces the scalar fingerprints in its
        # first driving component and nothing in the second
        drv = paths.ito_embedding_driver()
        g = paths.Grid(1024, 1)
        w = paths.running_sum(paths.brownian_family(g, 19, np.arange(3000), rng.LIMIT_W),
                              axis=1)
        aux = limits.sample_aux(g, 1, 19, range(3000))
        m, n = limits.simulate_mn(drv, w, aux)
        assert np.all(n[:, :, 1] == 0.0)  # sigma^{2p} = 0
        dn = np.diff(n[:, :, 0, 0, 0], axis=1)
        dm = np.diff(m[:, :, 0, 0, 0], axis=1)
        dw = np.diff(w[:, :, 0], axis=1)
        for prod, target in ((dn * dn, 1.0), (dm * dm, 1 / 6), (dn * dm, 1 / 3),
                             (dn * dw, 0.5)):
            qv = prod.sum(axis=1)
            se = qv.std(ddof=1) / np.sqrt(len(qv))
            assert abs(qv.mean() - target) < 3 * se


class TestDriftCorrect:
    def test_no_drift_unchanged(self):
        drv = paths.brownian_motion_driver(1)
        series = np.random.default_rng(0).standard_normal((2, 9, 1, 1, 1))
        out = limits.drift_correct(series, drv, np.linspace(0, 1, 9))
        assert out is series

    def test_embedding_shift_is_half_t(self):
        drv = paths.ito_embedding_driver()
        times = np.linspace(0, 1, 129)
        zero = np.zeros((1, 129, 2, 2, 2))
        out = limits.drift_correct(zero, drv, times)
        assert np.allclose(out[0, :, 1, 0, 0], times / 2, atol=1e-15)
        others = out.copy()
        others[0, :, 1, 0, 0] = 0.0
        assert np.all(others == 0.0)

    def test_ramp_covariance_quarter(self):
        # c_s = s, unit drift: the shift at t = 1 is 1/4
        drv = paths.DriverSpec(dim_d=1, dim_m=1,
                               sigma=lambda s: np.array([[np.sqrt(s)]]),
                               drift=np.array([1.0]), label="ramp-cov")
        times = np.linspace(0, 1, 257)
        out = limits.drift_correct(np.zeros((1, 257, 1, 1, 1)), drv, times)
        assert out[0, -1, 0, 0, 0] == pytest.approx(0.25, abs=1e-12)


class TestSimulateU:
    def test_constant_field_zero_error(self):
        fld = model.scalar_field(lambda x: np.ones_like(x), lambda x: 0.0 * x,
                                 lambda x: 0.0 * x)
        prob = model.SdeProblem(field=fld, driver=paths.brownian_motion_driver(1),
                                x0=1.0)
        grid, bundle, aux = limit_inputs(prob, 256, 5, 8)
        m, n = limits.simulate_mn(prob.driver, bundle.w, aux)
        x_ref = schemes.reference(prob, bundle).values
        u = limits.simulate_u(prob, x_ref, bundle.fine_increments(), m, n)
        assert np.all(u == 0.0)

    def test_linearity_in_forcing(self):
        prob = model.make_gbm()
        grid, bundle, aux = limit_inputs(prob, 256, 6, 16)
        m, n = limits.simulate_mn(prob.driver, bundle.w, aux)
        x_ref = schemes.reference(prob, bundle).values
        dy = bundle.fine_increments()
        u1 = limits.simulate_u(prob, x_ref, dy, m, n)
        u2 = limits.simulate_u(prob, x_ref, dy, 2 * m, 2 * n)
        assert np.allclose(u2, 2 * u1, rtol=1e-12, atol=1e-14)

    def test_gbm_second_moment(self):
        real = limits.draw_error_limit(model.make_gbm(), 31, range(4000),
                                       fine_count=1024)
        u1 = real.u_series[:, -1, 0]
        m2 = u1 ** 2
        se = m2.std(ddof=1) / np.sqrt(len(m2))
        assert abs(m2.mean() - np.e / 6) < 3 * se + 0.01

    def test_deterministic_inputs_reduce_to_error_ode(self):
        # feeding the finite-variation limit pair reproduces the ODE solution
        prob = model.make_det_exp()
        grid = paths.Grid(4096, 1)
        bundle = paths.simulate_bundle(prob.driver, grid, 3, [0])
        x_ref = prob.closed_form(bundle)
        m_fv, n_fv = limits.fv_deterministic_mn(prob.driver, grid.times())
        u = limits.simulate_u(prob, x_ref, bundle.fine_increments(), m_fv, n_fv)
        ode = limits.fv_error_ode(prob)
        assert abs(u[0, -1, 0] - ode.u[-1, 0]) < 1e-2


class TestItoErrorLimit:
    def test_constant_coefficients_zero(self):
        prob = model.ito_problem(a=lambda x: np.ones_like(x), da=lambda x: 0.0 * x,
                                 d2a=lambda x: 0.0 * x, b=lambda x: np.ones_like(x),
                                 db=lambda x: 0.0 * x, d2b=lambda x: 0.0 * x)
        grid, bundle, aux = limit_inputs(prob, 128, 9, 4)
        x_ref = schemes.reference(prob, bundle).values
        u = limits.ito_error_limit(prob, x_ref, np.diff(bundle.w[:, :, 0], axis=1),
                                   aux.db[:, :, 0, 0, 0], aux.dwbar[:, :, 0],
                                   grid.times())
        assert np.all(u == 0.0)

    def test_matches_general_construction_pathwise(self):
        # with B1 = B^{111} and B2 = Wbar the explicit display and the
        # general simulator integrate the same equation, path by path;
        # coefficients with curvature exercise every term
        prob = model.ito_problem(a=np.sin, da=np.cos, d2a=lambda x: -np.sin(x),
                                 b=np.cos, db=lambda x: -np.sin(x),
                                 d2b=lambda x: -np.cos(x), x0=0.7, label="trig")
        grid, bundle, aux = limit_inputs(prob, 512, 21, 32)
        x_ref = schemes.reference(prob, bundle).values
        m, n = limits.simulate_mn(prob.driver, bundle.w, aux)
        n_bar = limits.drift_correct(n, prob.driver, grid.times())
        u_general = limits.simulate_u(prob, x_ref, bundle.fine_increments(), m, n_bar)
        u_display = limits.ito_error_limit(prob, x_ref, np.diff(bundle.w[:, :, 0], axis=1),
                                           aux.db[:, :, 0, 0, 0], aux.dwbar[:, :, 0],
                                           grid.times())
        assert np.max(np.abs(u_general - u_display)) < 1e-10

    def test_gbm_variance_cross_check(self):
        # a(x) = x, b = 0: the display and the general route agree in law
        prob = model.make_gbm_drift(alpha=1.0, beta=0.0)
        grid, bundle, aux = limit_inputs(prob, 512, 23, 4000)
        x_ref = prob.closed_form(bundle)
        m, n = limits.simulate_mn(prob.driver, bundle.w, aux)
        u_general = limits.simulate_u(prob, x_ref, bundle.fine_increments(), m, n)
        u_display = limits.ito_error_limit(prob, x_ref, np.diff(bundle.w[:, :, 0], axis=1),
                                           aux.db[:, :, 0, 0, 0], aux.dwbar[:, :, 0],
                                           grid.times())
        v1 = u_general[:, -1, 0].var(ddof=1)
        v2 = u_display[:, -1, 0].var(ddof=1)
        assert np.allclose(u_general, u_display, atol=1e-10)
        assert abs(v1 - v2) < 1e-10


class TestFvErrorOde:
    def test_unit_density_closed_form(self):
        # U_t = -(t/6) e^t for the exponential problem
        res = limits.fv_error_ode(model.make_det_exp())
        assert res.u[-1, 0] == pytest.approx(-np.e / 6, abs=1e-9)
        mid = res.u[len(res.u) // 2, 0]
        assert mid == pytest.approx(-(0.5 / 6) * np.exp(0.5), abs=1e-9)

    def test_constant_field_zero(self):
        fld = model.scalar_field(lambda x: np.ones_like(x), lambda x: 0.0 * x,
                                 lambda x: 0.0 * x)
        prob = model.SdeProblem(field=fld, driver=paths.time_driver(), x0=1.0)
        res = limits.fv_error_ode(prob)
        assert np.all(res.u == 0.0)

    def test_rejects_martingale_driver(self):
        with pytest.raises(ValueError, match="finite-variation"):
            limits.fv_error_ode(model.make_gbm())

    def test_ramp_density_matches_scheme_error(self):
        # driver density y(s) = s: the n^2-scaled scheme error at n = 512
        # approaches the ODE value within 1%
        spec = paths.DriverSpec(dim_d=1, dim_m=1, sigma=np.zeros((1, 1)),
                                drift=lambda s: np.array([s]), label="ramp")

        def closed_form(bundle):
            return np.exp(bundle.y[:, :, 0])[..., None]

        fld = model.scalar_field(lambda x: x, lambda x: np.ones_like(x),
                                 lambda x: 0.0 * x)
        prob = model.SdeProblem(field=fld, driver=spec, x0=1.0,
                                closed_form=None, label="ramp-exp")
        res = limits.fv_error_ode(prob)
        n = 512
        b = paths.simulate_bundle(spec, paths.make_grid(n, 16), 1, [0])
        out = schemes.milstein(prob, b, n)
        # exact solution along the realized finite-variation path is exp(Y)
        exact = np.exp(b.y[0, ::16, 0])
        err = n ** 2 * (out.values[0, :, 0] - exact)
        assert err[-1] == pytest.approx(res.u[-1, 0], rel=0.01)

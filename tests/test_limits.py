import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from milsde import cli, crosscheck, limits, model, oracles, paths, rng, schemes, stats
from test_blocks import _problem, _trig_field


def limit_inputs(problem, fine_count, seed, n_draws):
    grid = paths.Grid(fine_count, 1)
    bundle = paths.simulate_bundle(problem.driver, grid, seed, range(n_draws),
                                   component=rng.LIMIT_W)
    aux = limits.sample_aux(grid, problem.driver.dim_m, seed, range(n_draws))
    return grid, bundle, aux


def whole_inputs(problem, bundle, aux):
    """Whole-array X, dY, dM and dN of :func:`limits.simulate_u` on ``bundle``."""
    dm, dn = limits.simulate_mn(problem.driver, np.diff(bundle.w, axis=1), aux)
    dn = limits.drift_correct(dn, problem.driver, bundle.grid.times())
    return schemes.reference(problem, bundle).values, np.diff(bundle.y, axis=1), dm, dn


def u_at_every_node(problem, bundle, aux):
    """U at each fine node, stepped through one step at a time from U_0 = 0.

    The integrator is causal: U carried through the first k steps one at a
    time equals U stepped through them in one call.  Shape (n_paths, T, q);
    U_1 is the simulator's.
    """
    x_ref, dy, dm, dn = whole_inputs(problem, bundle, aux)
    steps = dy.shape[1]
    u = np.zeros((x_ref.shape[0], steps + 1, x_ref.shape[2]))
    cur = np.zeros_like(u[:, 0])
    for k in range(1, steps + 1):
        limits.integrate_u(problem, cur, *(a[:, k - 1:k] for a in (x_ref, dy, dm, dn)))
        u[:, k] = cur
        assert np.array_equal(cur, u_through(problem, *(a[:, :k] for a in (x_ref, dy, dm, dn))))
    assert np.array_equal(u[:, -1], limits.simulate_u(problem, [(bundle, aux)]))
    return u


def u_through(problem, x_left, dy, dm, dn):
    """U after the steps of the given inputs, stepped from U_0 = 0 in one call."""
    u = np.zeros((len(dy), problem.field.dim_q))
    limits.integrate_u(problem, u, x_left, dy, dm, dn)
    return u


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
        dv = limits.assemble_v_increments(aux, dw)[:, :, 0, 0, 0]
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
        dm, dn = limits.simulate_mn(prob.driver, np.diff(bundle.w, axis=1), aux)
        assert dm.shape == dn.shape == (4, 128, 1, 1, 1)
        assert np.all(dm == 0.0) and np.all(dn == 0.0)

    def test_scalar_moments(self):
        # Var(M_1) = 1/6, Var(N_1) = 1, Cov(N, M) = 1/3, Cov(N, W) = 1/2
        drv = paths.brownian_motion_driver(1)
        g = paths.Grid(256, 1)
        dw = paths.brownian_family(g, 7, np.arange(8000), rng.LIMIT_W)
        aux = limits.sample_aux(g, 1, 7, range(8000))
        dm, dn = limits.simulate_mn(drv, dw, aux)
        m1, n1, w1 = (x.sum(axis=1)[:, 0] for x in (dm[..., 0, 0], dn[..., 0, 0], dw))
        checks = [(m1 * m1, 1 / 6), (n1 * n1, 1.0), (n1 * m1, 1 / 3), (n1 * w1, 0.5)]
        for sample, target in checks:
            se = sample.std(ddof=1) / np.sqrt(len(sample))
            assert abs(sample.mean() - target) < 3 * se

    def test_qv_fingerprints(self):
        # pathwise covariations of the simulated limits hit the constants
        drv = paths.brownian_motion_driver(1)
        g = paths.Grid(1024, 1)
        dw = paths.brownian_family(g, 15, np.arange(3000), rng.LIMIT_W)
        aux = limits.sample_aux(g, 1, 15, range(3000))
        dm, dn = limits.simulate_mn(drv, dw, aux)
        dm, dn, dw = dm[:, :, 0, 0, 0], dn[:, :, 0, 0, 0], dw[:, :, 0]
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
        dw = paths.brownian_family(g, 19, np.arange(3000), rng.LIMIT_W)
        aux = limits.sample_aux(g, 1, 19, range(3000))
        dm, dn = limits.simulate_mn(drv, dw, aux)
        assert np.all(dn[:, :, 1] == 0.0)  # sigma^{2p} = 0
        dm, dn, dw = dm[:, :, 0, 0, 0], dn[:, :, 0, 0, 0], dw[:, :, 0]
        for prod, target in ((dn * dn, 1.0), (dm * dm, 1 / 6), (dn * dm, 1 / 3),
                             (dn * dw, 0.5)):
            qv = prod.sum(axis=1)
            se = qv.std(ddof=1) / np.sqrt(len(qv))
            assert abs(qv.mean() - target) < 3 * se


    @pytest.mark.parametrize("dims", [(1, 1), (2, 1), (2, 2)])
    @pytest.mark.parametrize("timed", [False, True], ids=["constant", "callable"])
    def test_matches_four_operand_einsum(self, dims, timed):
        # the pre-contracted sigma cube against the per-increment contraction
        # of the three sigma factors it replaced
        d, m = dims
        base = np.random.default_rng(d * 10 + m).uniform(-1.0, 1.0, (d, m))
        if (d, m) == (2, 1) and not timed:
            base = np.array([[1.0], [0.0]])  # the (W, t) embedding
        sigma = (lambda s: base * (1.0 + s) + 0.3 * np.sin(3.0 * s)) if timed else base
        drv = paths.DriverSpec(dim_d=d, dim_m=m, sigma=sigma, label="cube")
        g = paths.Grid(64, 1)
        dw = paths.brownian_family(g, 3, np.arange(40), rng.LIMIT_W, width=m)
        aux = limits.sample_aux(g, m, 3, range(40))
        dm, dn = limits.simulate_mn(drv, dw, aux)
        sig = drv.sigma_at(g.times()[:-1])
        for got, noise, scale in ((dm, aux.db, np.sqrt(6) / 6),
                                  (dn, limits.assemble_v_increments(aux, dw), np.sqrt(3) / 3)):
            ref = scale * np.einsum("tjp,tau,btpuv,tcv->btjac", sig, sig, noise, sig)
            assert got.shape == ref.shape == (40, 64, d, d, d)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)
        if (d, m) == (2, 1) and not timed:
            assert np.all(dm[..., 1, :, :] == 0.0) and np.all(dn[..., 1, :, :] == 0.0)


class TestDriftCorrect:
    def test_no_drift_unchanged(self):
        drv = paths.brownian_motion_driver(1)
        dn = np.random.default_rng(0).standard_normal((2, 8, 1, 1, 1))
        out = limits.drift_correct(dn, drv, np.linspace(0, 1, 9))
        assert out is dn

    def test_embedding_shift_is_half_t(self):
        drv = paths.ito_embedding_driver()
        times = np.linspace(0, 1, 129)
        out = limits.drift_correct(np.zeros((1, 128, 2, 2, 2)), drv, times)
        assert out.shape == (1, 128, 2, 2, 2)
        shift = paths.running_sum(out[0, :, 1, 0, 0], axis=0)
        assert np.allclose(shift, times / 2, atol=1e-15)
        others = out.copy()
        others[0, :, 1, 0, 0] = 0.0
        assert np.all(others == 0.0)

    def test_ramp_covariance_quarter(self):
        # c_s = s, unit drift: the shift at t = 1 is 1/4
        drv = paths.DriverSpec(dim_d=1, dim_m=1,
                               sigma=lambda s: np.array([[np.sqrt(s)]]),
                               drift=np.array([1.0]), label="ramp-cov")
        times = np.linspace(0, 1, 257)
        out = limits.drift_correct(np.zeros((1, 256, 1, 1, 1)), drv, times)
        assert out[0, :, 0, 0, 0].sum() == pytest.approx(0.25, abs=1e-12)


class TestSimulateU:
    def test_constant_field_zero_error(self):
        fld = model.scalar_field(lambda x: np.ones_like(x), lambda x: 0.0 * x,
                                 lambda x: 0.0 * x)
        prob = model.SdeProblem(field=fld, driver=paths.brownian_motion_driver(1),
                                x0=1.0)
        grid, bundle, aux = limit_inputs(prob, 256, 5, 8)
        u = limits.simulate_u(prob, [(bundle, aux)])
        assert u.shape == (8, 1) and np.all(u == 0.0)

    def test_linearity_in_forcing(self):
        prob = model.make_gbm()
        grid, bundle, aux = limit_inputs(prob, 256, 6, 16)
        dm, dn = limits.simulate_mn(prob.driver, np.diff(bundle.w, axis=1), aux)
        x_ref = schemes.reference(prob, bundle).values
        dy = np.diff(bundle.y, axis=1)
        u1 = u_through(prob, x_ref[:, :-1], dy, dm, dn)
        u2 = u_through(prob, x_ref[:, :-1], dy, 2 * dm, 2 * dn)
        assert np.allclose(u2, 2 * u1, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("make", [model.make_gbm, model.make_gbm_drift],
                             ids=["gbm", "gbm-drift"])
    def test_blocks_read_contiguous_noise(self, monkeypatch, make):
        # simulate_u copies each time block's noise once, so V, dM and dN are
        # formed from contiguous operands, not from views strided per path
        prob = make()
        grid, bundle, aux = limit_inputs(prob, 256, 6, 16)
        seen, simulate_mn = [], limits.simulate_mn

        def recording(driver, dw, block, cube):
            seen.append(len(block.times()) - 1)
            for a in (dw, block.db, block.dwbar):
                assert a.flags.c_contiguous and a.shape[:2] == (16, seen[-1])
            assert len(cube) == seen[-1]
            return simulate_mn(driver, dw, block, cube)

        monkeypatch.setattr(paths, "BLOCK_BYTES", 1 << 16)  # several time blocks
        monkeypatch.setattr(limits, "simulate_mn", recording)
        limits.simulate_u(prob, [(bundle, aux)])
        assert len(seen) > 1 and sum(seen) == grid.fine_count

    @pytest.mark.parametrize("field", ["embedding", "field2"])
    def test_n_term_matches_four_operand_einsum(self, field):
        # the N term through the (q, d^3) coefficient f^T Hf f per path and
        # step, against the four-operand contraction it replaced
        if field == "field2":
            fld = _trig_field()
        else:
            fld = model.ito_field(a=np.sin, da=np.cos, d2a=lambda x: -np.sin(x), b=np.cos,
                                  db=lambda x: -np.sin(x), d2b=lambda x: -np.cos(x))
        r = np.random.default_rng(4)
        q, d = fld.dim_q, fld.dim_d
        x = r.uniform(-1.0, 1.5, (6, 9, q))
        dn = r.standard_normal((6, 9, d, d, d))
        f, hf = fld.f_at(x), fld.hf_at(x)
        want = 0.5 * np.einsum("xtka,xtijkl,xtlc,xtjca->xti", f, hf, f, dn)
        np.testing.assert_allclose(limits._n_term(f, hf, dn), want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("field", ["embedding", "field2"])
    def test_m_term_matches_three_operand_einsum(self, field):
        # the M term through the (q, d^3) coefficient Df h per path and step,
        # against the three-operand contraction it replaced
        fld = _trig_field() if field == "field2" else model.ito_field(
            a=np.sin, da=np.cos, d2a=lambda x: -np.sin(x), b=np.cos,
            db=lambda x: -np.sin(x), d2b=lambda x: -np.cos(x))
        r = np.random.default_rng(5)
        q, d = fld.dim_q, fld.dim_d
        x = r.uniform(-1.0, 1.5, (6, 9, q))
        dm = r.standard_normal((6, 9, d, d, d))
        df = fld.df_at(x)
        h = np.einsum("xtika,xtkc->xtiac", df, fld.f_at(x))
        want = np.einsum("xtikj,xtkac,xtjca->xti", df, h, dm)
        np.testing.assert_allclose(limits._m_term(df, h, dm), want, rtol=1e-12, atol=1e-15)

    def test_a_diverged_reference_raises(self, monkeypatch):
        # gbm's closed form made +inf where W passes 1.5: those draws have no
        # U, so each chunk marks them and the run raises, naming how many
        # diverged over all of its chunks (four of 64 draws here)
        gbm = model.make_gbm()

        def cf(w, y, t):
            out = gbm.closed_form(w, y, t)
            out[w[..., 0] > 1.5] = np.inf
            return out

        prob = model.SdeProblem(field=gbm.field, driver=gbm.driver, x0=gbm.x0, closed_form=cf,
                                label="gbm-inf")
        grid, bundle, _ = limit_inputs(prob, 256, 3, 200)
        want = (bundle.w[..., 0] > 1.5).any(axis=1)
        assert 0 < want[:64].sum() < want.sum() < 200
        with np.errstate(all="ignore"):
            diverged, _ = limits.draw_error_limit(prob, 3, range(200), fine_count=256)
        assert np.array_equal(diverged, want)
        monkeypatch.setattr(limits, "DEFAULT_CHUNK", 64)
        with pytest.raises(ArithmeticError, match=f"^{want.sum()} draws diverged"):
            with np.errstate(all="ignore"):
                limits.limit_samples(prob, 3, 200, fine_count=256)
        assert limits.limit_samples(gbm, 3, 200, fine_count=256)[0].shape == (200, 1)

    def test_gbm_second_moment(self):
        _, u_end = limits.draw_error_limit(model.make_gbm(), 31, range(4000),
                                           fine_count=1024)
        u1 = u_end[:, 0]
        m2 = u1 ** 2
        se = m2.std(ddof=1) / np.sqrt(len(m2))
        assert abs(m2.mean() - np.e / 6) < 3 * se + 0.01

    def test_deterministic_inputs_reduce_to_error_ode(self):
        # feeding the finite-variation limit pair reproduces the ODE solution
        prob = model.make_det_exp()
        grid = paths.Grid(4096, 1)
        bundle = paths.simulate_bundle(prob.driver, grid, 3, [0])
        x_ref = prob.closed_form(bundle.w, bundle.y, grid.times())
        dm_fv, dn_fv = crosscheck.fv_deterministic_mn(prob.driver, grid.times())
        u = u_through(prob, x_ref[:, :-1], np.diff(bundle.y, axis=1), dm_fv, dn_fv)
        ode = crosscheck.fv_error_ode(prob)
        assert abs(u[0, 0] - ode.u[-1, 0]) < 1e-2


class TestItoErrorLimit:
    def test_constant_coefficients_zero(self):
        prob = model.ito_problem(a=lambda x: np.ones_like(x), da=lambda x: 0.0 * x,
                                 d2a=lambda x: 0.0 * x, b=lambda x: np.ones_like(x),
                                 db=lambda x: 0.0 * x, d2b=lambda x: 0.0 * x)
        grid, bundle, aux = limit_inputs(prob, 128, 9, 4)
        x_ref = schemes.reference(prob, bundle).values
        u = crosscheck.ito_error_limit(prob, x_ref, np.diff(bundle.w[:, :, 0], axis=1),
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
        u_general = u_at_every_node(prob, bundle, aux)
        u_display = crosscheck.ito_error_limit(prob, x_ref, np.diff(bundle.w[:, :, 0], axis=1),
                                               aux.db[:, :, 0, 0, 0], aux.dwbar[:, :, 0],
                                               grid.times())
        assert np.max(np.abs(u_general - u_display)) < 1e-10

    def test_gbm_variance_cross_check(self):
        # a(x) = x, b = 0: the display and the general route agree in law
        prob = model.make_gbm_drift(alpha=1.0, beta=0.0)
        grid, bundle, aux = limit_inputs(prob, 512, 23, 4000)
        x_ref = prob.closed_form(bundle.w, bundle.y, grid.times())
        u_general = limits.simulate_u(prob, [(bundle, aux)])
        u_display = crosscheck.ito_error_limit(prob, x_ref, np.diff(bundle.w[:, :, 0], axis=1),
                                               aux.db[:, :, 0, 0, 0], aux.dwbar[:, :, 0],
                                               grid.times())
        v1 = u_general[:, 0].var(ddof=1)
        v2 = u_display[:, -1, 0].var(ddof=1)
        assert np.allclose(u_general, u_display[:, -1], atol=1e-10)
        assert abs(v1 - v2) < 1e-10
        # every node of the path, on the first 32 draws: the prefix walk
        # costs one integration per node
        sub = slice(0, 32)
        bundle_sub = replace(bundle, w=bundle.w[sub], y=bundle.y[sub])
        aux_sub = replace(aux, db=aux.db[sub], dwbar=aux.dwbar[sub])
        u_nodes = u_at_every_node(prob, bundle_sub, aux_sub)
        assert np.allclose(u_nodes, u_display[sub], atol=1e-10)


class TestFvErrorOde:
    def test_unit_density_closed_form(self):
        # U_t = -(t/6) e^t for the exponential problem
        res = crosscheck.fv_error_ode(model.make_det_exp())
        assert res.u[-1, 0] == pytest.approx(-np.e / 6, abs=1e-9)
        mid = res.u[len(res.u) // 2, 0]
        assert mid == pytest.approx(-(0.5 / 6) * np.exp(0.5), abs=1e-9)

    def test_constant_field_zero(self):
        fld = model.scalar_field(lambda x: np.ones_like(x), lambda x: 0.0 * x,
                                 lambda x: 0.0 * x)
        prob = model.SdeProblem(field=fld, driver=paths.time_driver(), x0=1.0)
        res = crosscheck.fv_error_ode(prob)
        assert np.all(res.u == 0.0)

    def test_rejects_martingale_driver(self):
        with pytest.raises(ValueError, match="finite-variation"):
            crosscheck.fv_error_ode(model.make_gbm())

    def test_ramp_density_matches_scheme_error(self):
        # driver density y(s) = s: the n^2-scaled scheme error at n = 512
        # approaches the ODE value within 1%
        spec = paths.DriverSpec(dim_d=1, dim_m=1, sigma=np.zeros((1, 1)),
                                drift=lambda s: np.array([s]), label="ramp")

        fld = model.scalar_field(lambda x: x, lambda x: np.ones_like(x),
                                 lambda x: 0.0 * x)
        prob = model.SdeProblem(field=fld, driver=spec, x0=1.0,
                                closed_form=None, label="ramp-exp")
        res = crosscheck.fv_error_ode(prob)
        n = 512
        b = paths.simulate_bundle(spec, paths.make_grid(n, 16), 1, [0])
        out = schemes.milstein(prob, b, n)
        # exact solution along the realized finite-variation path is exp(Y)
        exact = np.exp(b.y[0, ::16, 0])
        err = n ** 2 * (out.values[0, :, 0] - exact)
        assert err[-1] == pytest.approx(res.u[-1, 0], rel=0.01)


class TestFingerprints:
    @pytest.mark.parametrize("make", [model.make_gbm, model.make_gbm_drift],
                             ids=["gbm", "gbm-drift"])
    def test_block_sums_match_whole_array_sums(self, make):
        # limit-sim's fingerprints are summed in step order; against pairwise
        # sums over whole-size dM, dN and dW they move in the last bits only
        prob, fine_count, draws = make(), 4096, 40
        _, u_end, fps = limits.draw_error_limit(prob, 3, range(draws), fine_count,
                                                fingerprints=True)
        grid, bundle, aux = limit_inputs(prob, fine_count, 3, draws)
        dw = np.diff(bundle.w, axis=1)
        dm, dn = limits.simulate_mn(prob.driver, dw, aux)
        dn = limits.drift_correct(dn, prob.driver, grid.times())
        want = stats.fingerprints(dm, dn, dw)
        # relative to the sum of |products|: [M,W] is a sum around zero
        m, n, w = dm[..., 0, 0, 0], dn[..., 0, 0, 0], dw[..., 0]
        scale = np.stack([np.abs(a * b).sum(axis=1)
                          for a, b in ((m, m), (n, n), (n, m), (n, w), (m, w))], axis=1)
        assert fps.shape == (draws, len(stats.FINGERPRINTS))
        assert np.all(np.abs(fps - want) <= 1e-13 * scale)
        np.testing.assert_allclose(fps.mean(axis=0), want.mean(axis=0), rtol=1e-13)
        # the endpoints do not depend on whether the fingerprints are taken
        plain = limits.draw_error_limit(prob, 3, range(draws), fine_count)
        assert len(plain) == 2 and np.array_equal(plain[1], u_end)


def _wbar_keys_hashed(monkeypatch, run) -> bool:
    """Whether ``run()`` hashes any key of the Wbar family."""
    components, philox_keys = set(), rng.philox_keys

    def spy(master_seed, component, *args, **kwargs):
        components.add(component)
        return philox_keys(master_seed, component, *args, **kwargs)

    monkeypatch.setattr(rng, "philox_keys", spy)
    run()
    monkeypatch.setattr(rng, "philox_keys", philox_keys)
    assert rng.AUX_B in components
    return rng.AUX_WBAR in components


class TestFormsN:
    # a limit chunk forms N (draws Wbar, builds V and dN, adds the N term)
    # only when its fingerprints or the field's Hessian read it
    @pytest.mark.parametrize("case", ["gbm", "gbm-drift", "ou", "embedding", "field2"])
    def test_wbar_is_drawn_only_for_a_field_with_a_hessian(self, monkeypatch, case):
        prob = model.get_model(case) if case in model.builtin_models() else _problem(case, False)
        assert (prob.field.hf is None) == (case in ("gbm", "gbm-drift", "ou"))
        assert _wbar_keys_hashed(monkeypatch, lambda: limits.limit_samples(prob, 2, 40, 64)) \
            == (prob.field.hf is not None)
        assert _wbar_keys_hashed(monkeypatch, lambda: limits.limit_samples(
            prob, 2, 40, 64, fingerprints=True))

    def test_error_law_draws_no_wbar_and_limit_sim_does(self, monkeypatch, tmp_path):
        # the verbs on the affine gbm: error-law reads U alone, limit-sim
        # also the fingerprints of dN
        error_law = ["error-law", "--model", "gbm", "--n", "16", "--fine-factor", "8",
                     "--fine-count", "128", "--paths", "1000", "--draws", "1000"]
        limit_sim = ["limit-sim", "--model", "gbm", "--fine-count", "128", "--draws", "40"]
        for argv, wbar in ((error_law, False), (limit_sim, True)):
            def run():
                assert cli.main(argv + ["--seed", "2", "--out", str(tmp_path / argv[0])]) in (0, 1)

            assert _wbar_keys_hashed(monkeypatch, run) == wbar

    def test_hf_at_of_an_affine_field_is_zero(self):
        # hf = None: f is affine, and Hf reads zeros of the documented shape
        for fld in (model.make_gbm().field, model.make_gbm_drift().field):
            x = np.linspace(-2.0, 2.0, 12).reshape(3, 4, 1)
            hf = fld.hf_at(x)
            assert hf.shape == (3, 4, fld.dim_q, fld.dim_d, fld.dim_q, fld.dim_q)
            assert not hf.any()
        with pytest.raises(ValueError, match="both"):
            model.ito_field(np.sin, np.cos, None, np.cos, np.sin, lambda x: -np.cos(x))


class TestZeroLimit:
    @pytest.mark.parametrize("name", ["gbm", "gbm-drift", "ou", "det-exp"])
    def test_the_zero_limit_models_have_u_exactly_zero(self, name):
        # ou's noise is additive and det-exp has none, so every term of U's
        # equation vanishes and the limit law is the point mass at 0: the
        # bundled factories mark exactly those, which error-law refuses
        prob = model.get_model(name)
        (u,) = limits.limit_samples(prob, 3, 200, fine_count=128)
        assert prob.zero_limit == (name in ("ou", "det-exp"))
        assert np.all(u == 0.0) == prob.zero_limit
        if not prob.zero_limit:
            assert np.all(u != 0.0)


@pytest.mark.parametrize("case", ["gbm", "gbm-drift", "ou", "embedding-callable"])
def test_limit_samples_do_not_depend_on_noise_blocks_chunks_or_threads(monkeypatch, case):
    # the noise drawn in time blocks of any length (down to one step, 1
    # byte), in chunks of any size and on one or two threads gives the same
    # endpoints and fingerprints, bit for bit: the fingerprints are summed in
    # step order, wherever the blocks of U's steps fall; the callable sigma
    # carries Y's running sum across the blocks
    prob = _problem("embedding", True) if case == "embedding-callable" else model.get_model(case)
    want = limits.limit_samples(prob, 4, 150, 256, fingerprints=True)
    for noise_bytes, threads in ((1 << 14, 1), (1, 1), (1 << 12, 2), (paths.NOISE_BYTES, 2)):
        monkeypatch.setattr(paths, "NOISE_BYTES", noise_bytes)
        got = limits.limit_samples(prob, 4, 150, 256, threads, fingerprints=True)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), (noise_bytes, threads)
    for chunk, threads in ((64, 1), (37, 2)):
        monkeypatch.setattr(limits, "DEFAULT_CHUNK", chunk)
        got = limits.limit_samples(prob, 4, 150, 256, threads, fingerprints=True)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), (chunk, threads)


def test_limit_sim_reports_do_not_depend_on_chunks_or_threads(monkeypatch, tmp_path, capsys):
    # a chunk's blocks of U's steps are sized by its draw count (gbm-drift at
    # 150 draws: 37, 87 and 150 steps for chunks of 1000, 64 and 37), and
    # limit-sim's report is the same bytes for every chunk size and thread count
    argv = ["limit-sim", "--model", "gbm-drift", "--draws", "150", "--fine-count", "256",
            "--seed", "4"]
    reports = set()
    for chunk, threads in ((1000, 1), (64, 1), (37, 1), (1000, 2), (64, 2), (37, 2)):
        monkeypatch.setattr(limits, "DEFAULT_CHUNK", chunk)
        out = tmp_path / f"chunk-{chunk}-threads-{threads}"
        assert cli.main(argv + ["--threads", str(threads), "--out", str(out)]) == 0
        reports.add(tuple(out.with_suffix(suffix).read_bytes() for suffix in (".json", ".csv")))
    capsys.readouterr()
    assert len(reports) == 1


def _limit_chunk_peak(prob, draws, fine_count):
    limits.limit_samples(prob, 2, 50, 256)  # warm caches
    tracemalloc.start()
    try:
        limits.limit_samples(prob, 2, draws, fine_count)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# one limit chunk's peak in units of its noise budget, paths.NOISE_BYTES: a
# time block of noise, about the budget, the blocks of U's steps (about
# paths.BLOCK_BYTES) and one generator per carried stream (about 600 bytes)
LIMIT_CHUNK_BUDGETS = {"gbm": 1.4, "gbm-drift": 1.4, "ou": 1.4}


class TestChunkMemory:
    @pytest.mark.parametrize("name", LIMIT_CHUNK_BUDGETS)
    def test_limit_chunk_peak_is_bounded(self, name):
        # 1000 draws of 1025 nodes hold 16.4 MB of noise for gbm and 32.8 MB
        # for the (W, t) models, whose Y has two components (all three are
        # affine, so no Wbar is drawn), but a chunk holds one time block of
        # it at a time, with the reference, dY, dW, dM and every other term
        # built one cache block of time steps at a time (1.17, 1.22 and 1.22
        # budgets; 1.23, 1.29 and 1.29 with Wbar, V and dN formed; holding
        # the noise whole read 1.56, 2.60 and 2.60)
        peak = _limit_chunk_peak(model.get_model(name), 1000, 1024)
        assert peak <= LIMIT_CHUNK_BUDGETS[name] * paths.NOISE_BYTES

    @pytest.mark.parametrize("name", ["gbm", "gbm-drift"])
    def test_limit_chunk_peak_does_not_grow_with_the_fine_grid(self, monkeypatch, name):
        # with the budget below both sizes' noise, 16x the fine cells move the
        # peak by 2-6% (no array of the fine grid's size is formed: not the
        # drift integral, sigma's cube or the times); holding the noise whole
        # it grew 16x
        monkeypatch.setattr(paths, "NOISE_BYTES", 1 << 20)
        prob = model.get_model(name)
        small, large = (_limit_chunk_peak(prob, 100, fine_count) for fine_count in (4096, 65536))
        assert 100 * 4097 * 2 * 8 > paths.NOISE_BYTES  # W and B of gbm
        assert max(small, large) <= 1.25 * min(small, large)


class TestByteFormulas:
    # each hand-kept per-row byte formula against the tracemalloc peak of the
    # one block it sizes, at 200 draws (400 paths for stream_cells); the U
    # formula is an upper estimate (gbm shares dY and dW, 0.64 of it; the
    # others read 0.96-0.97) and the noise formula leaves out the carried
    # streams' generators (0.91-1.14)
    CASES = {"gbm": model.make_gbm, "gbm-drift": model.make_gbm_drift,
             "field2-callable": lambda: _problem("field2", True),
             "embedding-callable": lambda: _problem("embedding", True)}

    @staticmethod
    def _u_peak_per_formula(prob, with_n, fingerprints=False):
        draws = 200
        row = limits.u_row_bytes(prob, with_n)
        steps = paths.rows_per_block(1 << 20, draws * row)
        grid, bundle, aux = limit_inputs(prob, steps, 3, draws)
        aux = aux if with_n else replace(aux, dwbar=None)
        fps = np.zeros((draws, len(stats.FINGERPRINTS))) if fingerprints else None
        limits.simulate_u(prob, [(bundle, aux)], fps)
        tracemalloc.start()
        try:
            limits.simulate_u(prob, [(bundle, aux)], fps)  # one block of U's steps
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (draws * steps * row)

    @pytest.mark.parametrize("case", CASES)
    def test_u_row_bytes_size_one_block_of_u(self, case):
        assert 0.5 <= self._u_peak_per_formula(self.CASES[case](), True) <= 1.25

    @pytest.mark.parametrize("case", CASES)
    def test_u_row_bytes_size_limit_sims_block_of_u(self, case):
        # limit-sim's block also holds each step's fingerprint products,
        # their stacked rows and the cumsum that adds them, which the formula
        # leaves out: it undercounts them, inside the band (1.09-1.20)
        assert 0.5 <= self._u_peak_per_formula(self.CASES[case](), True, True) <= 1.25

    @pytest.mark.parametrize("case", ["gbm", "gbm-drift"])
    def test_u_row_bytes_without_n_size_one_block_of_u(self, case):
        # an affine field's chunk forms no V, dN or N term: the smaller
        # formula, against the peak of a pass on noise without Wbar (gbm
        # 0.60, gbm-drift 1.06)
        assert 0.5 <= self._u_peak_per_formula(self.CASES[case](), False) <= 1.25

    @pytest.mark.parametrize("case", ["7.3", "7.4", "7.7-80", "null"])
    def test_stream_cells_row_bytes_size_one_block(self, monkeypatch, case):
        # stream_cells' per-row formula (the increments, their cell split, the
        # work slots and the arrays the reduce owns) against the peak of an
        # oracle chunk of 400 paths, one block of which is live at a time
        # (1.07-1.12); 7.6's own = 10 is an upper estimate (0.44), and K's
        # pass is held to it below
        size = dict(n=16, paths=400, fine_factor=64, seed=1)
        sizes, rows_per_block = set(), paths.rows_per_block
        monkeypatch.setattr(paths, "rows_per_block", lambda count, row_bytes: (
            sizes.add((count, row_bytes)) or rows_per_block(count, row_bytes)))
        oracles.run_case(case, **size)  # warm caches
        tracemalloc.start()
        try:
            oracles.run_case(case, **size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ((count, row),) = sizes
        assert 0.5 <= peak / (rows_per_block(count, row) * row) <= 1.25

    @pytest.mark.parametrize("name,r", [("ou", 8), ("gbm-drift", 64)])
    def test_k_row_bytes_size_one_block(self, monkeypatch, name, r):
        # K's pass over 400 paths at n = 16: the formula counts K and its QV,
        # which the reduce owns, and the QV's correction is formed in place
        # (1.05 and 1.15; 1.32 and 1.17 with three temporaries and neither
        # counted)
        prob = model.get_model(name)
        bundle = paths.simulate_bundle(prob.driver, paths.make_grid(16, r), 1, range(400))
        sizes, rows_per_block = set(), paths.rows_per_block
        monkeypatch.setattr(paths, "rows_per_block", lambda count, row_bytes: (
            sizes.add((count, row_bytes)) or rows_per_block(count, row_bytes)))
        schemes.iterated_integrals(bundle, 16)  # warm caches
        tracemalloc.start()
        try:
            schemes.iterated_integrals(bundle, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ((count, row),) = sizes
        assert rows_per_block(count, row) < count  # more than one block
        assert 0.5 <= peak / (rows_per_block(count, row) * row) <= 1.25

    @staticmethod
    def _noise_peak_per_formula(prob, with_n):
        draws, length = 200, 500
        grid, driver = paths.Grid(4 * length, 1), prob.driver
        keys = rng.philox_keys(3, rng.LIMIT_W, range(draws), 1)
        tracemalloc.start()
        try:
            space = paths.Workspace()
            bundle = next(paths.stream_times(driver, grid, keys, length, space))
            limits.sample_aux(grid, driver.dim_m, 3, range(draws), bundle.cells, {}, space,
                              with_n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (draws * length * limits.noise_bytes(driver, with_n))

    @pytest.mark.parametrize("case", CASES)
    def test_noise_bytes_size_one_time_block(self, case):
        assert 0.85 <= self._noise_peak_per_formula(self.CASES[case](), True) <= 1.25

    @pytest.mark.parametrize("case", ["gbm", "gbm-drift"])
    def test_noise_bytes_without_wbar_size_one_time_block(self, case):
        # W, Y and B alone, as an affine field's chunk draws them
        assert 0.85 <= self._noise_peak_per_formula(self.CASES[case](), False) <= 1.25

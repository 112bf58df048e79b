import numpy as np
import pytest

from milsde import crosscheck, model, paths, schemes
from test_blocks import _trig_field


def scalar_linear():
    return model.scalar_field(lambda x: x, lambda x: np.ones_like(x), lambda x: 0.0 * x)


def scalar_square():
    return model.scalar_field(lambda x: x ** 2, lambda x: 2 * x,
                              lambda x: 2 * np.ones_like(x))


def finite_difference_gradient(field: model.CoefficientField, x, h: float) -> np.ndarray:
    """Centered-difference estimate of df at a single point x (q,)."""
    x = np.asarray(x, dtype=float)
    q = field.dim_q
    out = np.empty((q, q, field.dim_d))
    for k in range(q):
        e = np.zeros(q)
        e[k] = h
        out[:, k, :] = (field.f_at(x + e) - field.f_at(x - e)) / (2 * h)
    return out


def finite_difference_hessian(field: model.CoefficientField, x, h: float) -> np.ndarray:
    """Centered-difference estimate of hf at a single point x (q,)."""
    x = np.asarray(x, dtype=float)
    q = field.dim_q
    out = np.empty((q, field.dim_d, q, q))
    for l in range(q):
        e = np.zeros(q)
        e[l] = h
        d_plus = field.df_at(x + e)
        d_minus = field.df_at(x - e)
        # d/dx_l of df[i, k, j] gives Hf^{ij}[k, l]
        out[:, :, :, l] = np.transpose((d_plus - d_minus) / (2 * h), (0, 2, 1))
    return out


class TestCorrectionPairing:
    def test_linear_field(self):
        # f(x) = x has unit gradient, so the pairing returns f itself
        h = model.correction_pairing(scalar_linear(), np.array([[3.5]]))
        assert h.shape == (1, 1, 1, 1)
        assert h[0, 0, 0, 0] == 3.5

    def test_sine_at_zero(self):
        f = model.scalar_field(np.sin, np.cos, lambda x: -np.sin(x))
        h = model.correction_pairing(f, np.array([[0.0]]))
        assert h[0, 0, 0, 0] == 0.0

    def test_two_column_field(self):
        # f = (x, 1): pairing is (1,0)^T (2,1) = [[2,1],[0,0]] at x = 2
        fld = model.ito_field(a=lambda x: x, da=lambda x: np.ones_like(x),
                              d2a=lambda x: 0.0 * x,
                              b=lambda x: np.ones_like(x), db=lambda x: 0.0 * x,
                              d2b=lambda x: 0.0 * x)
        h = model.correction_pairing(fld, np.array([[2.0]]))
        assert np.array_equal(h[0, 0], [[2.0, 1.0], [0.0, 0.0]])

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_nonfinite_raises(self):
        fld = model.scalar_field(lambda x: x / 0.0, lambda x: np.ones_like(x),
                                 lambda x: 0.0 * x)
        x = np.array([[1.0]])
        with pytest.raises(FloatingPointError):
            model.correction_pairing(fld, x)
        with pytest.raises(FloatingPointError):  # a step's own f is checked the same way
            model.correction_pairing(fld, x, fld.f_at(x))

    def test_overflow_and_diverged_states_do_not_raise(self):
        # x^2 pairs to 2 x^3: it overflows at 1e144 while f and Df stay
        # finite, and at 1e160 the state itself has diverged
        with np.errstate(over="ignore"):
            h = model.correction_pairing(scalar_square(), np.array([[1e144], [1e160], [2.0]]))
        assert np.isinf(h[:2]).all() and h[2, 0, 0, 0] == 16.0

    @pytest.mark.parametrize("name", [*model.builtin_models(), "trig2", "square"])
    def test_a_given_f_leaves_every_bit(self, name):
        # a scheme step passes the f it has evaluated; at ordinary,
        # overflowing (x^2 at 1e144), diverged and non-finite states the
        # pairing is the one that evaluates f itself, bit for bit
        fld = {"trig2": _trig_field, "square": scalar_square}.get(
            name, lambda: model.get_model(name).field)()
        states = np.array([0.3, -1.7, 2.0, 1e144, 1e160, np.inf, np.nan])
        x = np.stack([states, 0.5 * states[::-1]], axis=-1)[:, :fld.dim_q]
        with np.errstate(over="ignore", invalid="ignore"):
            want = model.correction_pairing(fld, x)
            got = model.correction_pairing(fld, x, fld.f_at(x))
        assert got.shape == want.shape == (len(states), fld.dim_q, fld.dim_d, fld.dim_d)
        assert got.tobytes() == want.tobytes()


def _stacked(w, z, x):
    """The pair (w(v), z(v)) as ito_field's callbacks once formed it: a stack
    of the two values broadcast to v = x[..., 0]."""
    v = x[..., 0]
    return np.stack([np.broadcast_to(w(v), v.shape), np.broadcast_to(z(v), v.shape)], axis=-1)


class TestItoField:
    @pytest.mark.parametrize("shape", [(1,), (5, 1), (3, 4, 1)], ids=["state", "1d", "2d"])
    def test_callbacks_match_the_stacked_pair(self, shape):
        # b and its derivatives return Python scalars, which must broadcast
        a, da, d2a = np.sin, np.cos, lambda x: -np.sin(x)
        b, db, d2b = (lambda x: 1.0), (lambda x: 0.5), (lambda x: 0.0)
        fld = model.ito_field(a, da, d2a, b, db, d2b)
        x = np.random.default_rng(3).standard_normal(shape)
        for got, want in ((fld.f(x), _stacked(a, b, x)[..., None, :]),
                          (fld.df(x), _stacked(da, db, x)[..., None, None, :]),
                          (fld.hf(x), _stacked(d2a, d2b, x)[..., None, :, None, None])):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestOdeCurvature:
    def test_linear(self):
        g = crosscheck.ode_curvature(scalar_linear(), np.array([[1.0]]))
        assert g.shape == (1, 1, 1, 1, 1)
        assert g[0, 0, 0, 0, 0] == 1.0

    def test_constant_field(self):
        fld = model.scalar_field(lambda x: np.ones_like(x), lambda x: 0.0 * x,
                                 lambda x: 0.0 * x)
        g = crosscheck.ode_curvature(fld, np.array([[2.0]]))
        assert g[0, 0, 0, 0, 0] == 0.0

    def test_square(self):
        # f = x^2 at x = 1: f^T Hf + f_1 (Df)^T = 1*2 + 2*2 = 6
        g = crosscheck.ode_curvature(scalar_square(), np.array([[1.0]]))
        assert g[0, 0, 0, 0, 0] == 6.0


class TestDerivativeConsistency:
    points = [np.array([0.3]), np.array([1.0]), np.array([-0.7])]

    @pytest.mark.parametrize("problem_name", ["gbm", "gbm-drift", "det-exp", "ou"])
    def test_gradient_matches_finite_differences(self, problem_name):
        field = model.get_model(problem_name).field
        for x in self.points:
            errs = {}
            for h in (1e-3, 1e-4):
                fd = finite_difference_gradient(field, x, h)
                errs[h] = np.max(np.abs(fd - field.df_at(x[None])[0]))
            # centered differences are exact for these polynomial fields
            assert errs[1e-3] < 1e-10

    def test_second_order_fd_convergence(self):
        # cubic coefficient: FD error scales like h^2 (ratio about 100)
        fld = model.scalar_field(lambda x: x ** 3 / 3.0, lambda x: x ** 2,
                                 lambda x: 2 * x)
        x = np.array([0.9])
        err = {h: np.max(np.abs(finite_difference_gradient(fld, x, h)
                                - fld.df_at(x[None])[0])) for h in (1e-3, 1e-4)}
        assert 50 < err[1e-3] / err[1e-4] < 200

    @pytest.mark.parametrize("problem_name", ["gbm", "gbm-drift", "det-exp", "ou"])
    def test_hessian_matches_and_symmetric(self, problem_name):
        field = model.get_model(problem_name).field
        for x in self.points:
            hf = field.hf_at(x[None])[0]
            assert np.array_equal(hf, np.swapaxes(hf, -1, -2))
            fd = finite_difference_hessian(field, x, 1e-4)
            assert np.max(np.abs(fd - hf)) < 1e-6

    @pytest.mark.parametrize("problem_name", ["gbm", "gbm-drift", "det-exp", "ou"])
    def test_linear_growth_on_sample(self, problem_name):
        problem = model.get_model(problem_name)
        for v in np.linspace(-20, 20, 17):
            x = np.array([[v]])
            norm = np.linalg.norm(problem.field.f_at(x))
            assert norm <= problem.field.growth_bound * (1 + abs(v)) + 1e-12


class TestBuiltinModels:
    def test_registry(self):
        names = set(model.builtin_models())
        assert {"gbm", "gbm-drift", "det-exp", "ou"} <= names
        with pytest.raises(KeyError, match="unknown model"):
            model.get_model("nope")

    def test_gbm_closed_form_at_zero_noise(self):
        # W_1 = 0 gives X_1 = exp(-1/2)
        prob = model.make_gbm()
        g = paths.make_grid(1, 4)
        b = paths.simulate_bundle(prob.driver, g, 1, [0])
        frozen = prob.closed_form(np.zeros_like(b.w), np.zeros_like(b.y), g.times())
        assert np.isclose(frozen[0, -1, 0], np.exp(-0.5), atol=1e-15)

    def test_det_exp_closed_form(self):
        prob = model.make_det_exp()
        g = paths.make_grid(4, 4)
        b = paths.simulate_bundle(prob.driver, g, 1, [0])
        assert np.isclose(prob.closed_form(b.w, b.y, g.times())[0, -1, 0], np.e, atol=1e-14)

    def test_gbm_terminal_mean_is_martingale(self):
        prob = model.make_gbm()
        g = paths.make_grid(1, 1)
        b = paths.simulate_bundle(prob.driver, g, 33, range(100_000))
        x1 = prob.closed_form(b.w, b.y, g.times())[:, -1, 0]
        se = x1.std(ddof=1) / np.sqrt(x1.size)
        assert abs(x1.mean() - 1.0) < 3 * se

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="driver dimension"):
            model.SdeProblem(field=scalar_linear(),
                             driver=paths.ito_embedding_driver(), x0=1.0)

    def test_closed_forms_match_fine_reference(self):
        # finest-grid second-order solve vs closed form, 1e-3 RMS at t=1
        for name in ("gbm", "gbm-drift", "det-exp"):
            prob = model.get_model(name)
            g = paths.make_grid(1 << 14, 1)
            b = paths.simulate_bundle(prob.driver, g, 17, range(100))
            solved = schemes.milstein(prob, b, g.fine_count).values[:, -1, 0]
            exact = prob.closed_form(b.w, b.y, g.times())[:, -1, 0]
            rms = np.sqrt(np.mean((solved - exact) ** 2))
            assert rms < 1e-3, name

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from milsde import crosscheck, model, montecarlo, paths, rng, schemes, stats


def det_exp_bundle(n, r, seed=1, n_paths=1):
    prob = model.make_det_exp()
    b = paths.simulate_bundle(prob.driver, paths.make_grid(n, r), seed, range(n_paths))
    return prob, b


class TestEuler:
    def test_zero_field_is_constant(self):
        fld = model.scalar_field(lambda x: 0.0 * x, lambda x: 0.0 * x, lambda x: 0.0 * x)
        prob = model.SdeProblem(field=fld, driver=paths.brownian_motion_driver(1), x0=2.5)
        b = paths.simulate_bundle(prob.driver, paths.make_grid(8, 4), 3, range(5))
        out = schemes.euler(prob, b, 8)
        assert np.all(out.values == 2.5)

    def test_det_exp_product(self):
        prob, b = det_exp_bundle(4, 4)
        out = schemes.euler(prob, b, 4)
        assert out.values[0, -1, 0] == 2.44140625

    def test_grid_mismatch(self):
        prob, b = det_exp_bundle(4, 4)
        with pytest.raises(ValueError, match="does not divide"):
            schemes.euler(prob, b, 3)


def k_subgrid(bundle, coarse_n):
    # the left-point sub-grid sum alone, without the exact symmetric part:
    # a K that the schemes accept through ``kmat``
    return stats.k_fine(crosscheck.cell_split(np.diff(bundle.y, axis=1), coarse_n))


class TestIteratedIntegrals:
    def test_fine_mode_single_subcell_vanishes(self):
        prob, b = det_exp_bundle(8, 1)
        k = k_subgrid(b, 8)
        assert np.all(k == 0.0)

    def test_exact_mode_time_driver(self):
        # pure drift: every cell integral is exactly h^2 / 2
        prob, b = det_exp_bundle(8, 8)
        k = schemes.iterated_integrals(b, 8)
        assert np.allclose(k[0, :, 0, 0], 0.5 / 64, rtol=0, atol=1e-16)

    def test_exact_mode_brownian_identity(self):
        gbm = model.make_gbm()
        b = paths.simulate_bundle(gbm.driver, paths.make_grid(4, 32), 9, range(16))
        k = schemes.iterated_integrals(b, 4)
        dw = np.diff(b.w[:, ::32, 0], axis=1)
        assert np.allclose(k[:, :, 0, 0], (dw ** 2 - 0.25) / 2, atol=1e-15)

    def test_fine_sums_converge_to_identity(self):
        # RMS gap to ((dW)^2 - dt)/2 halves per 4x sub-grid refinement
        gbm = model.make_gbm()
        gaps = {}
        for r in (16, 64, 256):
            b = paths.simulate_bundle(gbm.driver, paths.make_grid(8, r), 21, range(400))
            cells = crosscheck.cell_split(np.diff(b.y, axis=1), 8)
            k_fine = stats.k_fine(cells)[:, :, 0, 0]
            dw = np.diff(b.w[:, ::r, 0], axis=1)
            exact = (dw ** 2 - 1.0 / 8.0) / 2
            gaps[r] = np.sqrt(np.mean((k_fine - exact) ** 2))
        assert gaps[64] / gaps[16] == pytest.approx(0.5, abs=0.12)
        assert gaps[256] / gaps[64] == pytest.approx(0.5, abs=0.12)

    def test_single_subcell_exact_mode_is_the_identity(self):
        # r = 1: the left-point sum vanishes, so K is (dY dY^T - cell QV) / 2
        prob = model.make_gbm_drift()
        b = paths.simulate_bundle(prob.driver, paths.make_grid(8, 4), 3, range(5))
        k = schemes.iterated_integrals(b, 32)
        dy = np.diff(b.y, axis=1)
        qv = prob.driver.cell_qv(np.arange(33) / 32)
        assert np.array_equal(k, 0.5 * (dy[..., :, None] * dy[..., None, :] - qv))

    @pytest.mark.parametrize("driver", ["gbm", "det-exp", "scaled-1d"])
    @pytest.mark.parametrize("coarse_n,fine_factor", [(8, 1), (1, 4), (8, 4), (5, 24), (16, 256)])
    def test_scalar_k_is_the_k_of_its_own_dy(self, driver, coarse_n, fine_factor):
        # a scalar driver has no Levy area: its sub-grid K equals the K that
        # a Milstein step forms from the cell's own dY, (dY^2 - cell QV)/2.
        # In reals this is exact, since the left-point sum of r increments
        # is ((sum dy)^2 - sum dy^2)/2.  In floats the running sum, the
        # left-point sum and the sum of squares take r roundings each, and
        # the cell's dY (a difference of nodes, not the sum of the dy) and
        # the formula a few more; each is at most eps times a magnitude below
        # (sum |dy|)^2 + |QV|, so 4r + 8 of those bound the gap.  With one
        # sub-cell there is no sum, and K is the formula bit for bit
        spec = {"gbm": model.make_gbm().driver, "det-exp": model.make_det_exp().driver,
                "scaled-1d": _DRIVERS["scaled-1d"]}[driver]
        b = paths.simulate_bundle(spec, paths.make_grid(coarse_n, fine_factor), 7, range(50))
        k = schemes.iterated_integrals(b, coarse_n)
        qv = spec.cell_qv(np.arange(coarse_n + 1) / coarse_n)
        dy = np.diff(b.y[:, ::fine_factor], axis=1)
        k_at = schemes._own_k(qv)
        own = np.stack([k_at(dy[:, c], c) for c in range(coarse_n)], axis=1)
        if fine_factor == 1:
            assert np.array_equal(k, own)
        sub = np.abs(np.diff(b.y[..., 0], axis=1)).reshape(50, coarse_n, fine_factor)
        scale = sub.sum(axis=2) ** 2 + np.abs(qv[:, 0, 0])
        tol = (4 * fine_factor + 8) * np.finfo(float).eps * scale
        assert np.all(np.abs(k - own)[..., 0, 0] <= tol)


# time-varying sigma, not smooth at s = 0: the Gauss rule's cell QVs are then
# not additive across cells, so the fold's QV swap is exercised
_DRIVERS = {
    "bm": paths.brownian_motion_driver(1),
    "ito-embed": paths.ito_embedding_driver(),
    "scaled-1d": paths.DriverSpec(dim_d=1, dim_m=1,
                                  sigma=lambda s: np.array([[1.0 + s ** 0.25]]),
                                  drift=lambda s: np.array([0.5 - s]), label="scaled-1d"),
    "scaled-2d": paths.DriverSpec(dim_d=2, dim_m=2,
                                  sigma=lambda s: np.array([[1.0 + s, 0.0],
                                                            [0.5 * s ** 0.5, 1.0 - 0.5 * s]]),
                                  drift=lambda s: np.array([s, 1.0]), label="scaled-2d"),
}


class TestChenFold:
    @settings(max_examples=40, deadline=None)
    @given(driver=st.sampled_from(sorted(_DRIVERS)),
           n_list=st.lists(st.integers(1, 48), min_size=1, max_size=3).filter(
               lambda ns: math.lcm(*ns) <= 192),
           r=st.integers(1, 4), seed=st.integers(0, 1000))
    @example(driver="scaled-2d", n_list=[12, 32], r=2, seed=1)
    @example(driver="scaled-1d", n_list=[12, 32], r=1, seed=2)
    def test_fold_matches_direct(self, driver, n_list, r, seed):
        # folding the base-level K to every n equals summing each n's
        # sub-grid directly; tolerance is rounding relative to K's scale
        base = math.lcm(*n_list)
        b = paths.simulate_bundle(_DRIVERS[driver], paths.make_grid(base, r), seed, range(4))
        kbase = schemes.iterated_integrals(b, base)
        for n in n_list:
            folded = schemes.fold_iterated_integrals(b, kbase, n)
            direct = schemes.iterated_integrals(b, n)
            assert folded.shape == direct.shape
            np.testing.assert_allclose(folded, direct, rtol=1e-12,
                                       atol=1e-12 * np.abs(direct).max())

    def test_fold_to_the_base_level_is_a_sum_of_one(self):
        prob = model.make_gbm_drift()
        b = paths.simulate_bundle(prob.driver, paths.make_grid(16, 4), 8, range(3))
        kbase = schemes.iterated_integrals(b, 16)
        assert np.array_equal(schemes.fold_iterated_integrals(b, kbase, 16), kbase)

    def test_base_must_be_divisible(self):
        prob = model.make_gbm()
        b = paths.simulate_bundle(prob.driver, paths.make_grid(12, 2), 8, range(3))
        kbase = schemes.iterated_integrals(b, 12)
        with pytest.raises(ValueError, match="does not divide"):
            schemes.fold_iterated_integrals(b, kbase, 8)

    @settings(max_examples=12, deadline=None)
    @given(n_list=st.sampled_from([(4, 8, 32), (12, 32), (6, 16, 48), (16, 32, 64, 128)]),
           fine_factor=st.sampled_from([3, 6]), seed=st.integers(0, 1000))
    def test_milstein_pair_agrees_through_the_engine(self, n_list, fine_factor, seed):
        # criterion 10c on folded K: milstein54 reads it, while Milstein's
        # step on the commutative gbm-drift forms each cell's K from its own
        # dY, which has the same symmetric part
        prob = model.make_gbm_drift()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "DEFAULT_CHUNK", 25)
            runs = [montecarlo.scheme_error_samples(prob, scheme, n_list, 40, fine_factor,
                                                    seed)
                    for scheme in ("milstein", "milstein54")]
        for n in n_list:
            assert np.max(np.abs(runs[0]["err"][n] - runs[1]["err"][n])) <= 1e-12


def _band_values():
    # each bad value sits at a known (path, node, component)
    values = np.random.default_rng(4).uniform(-1e3, 1e3, (8, 9, 2))
    values[0, 3, 1] = np.nan
    values[1, 5, 0] = np.inf
    values[2, 2, 1] = -np.inf
    values[3, 7, 0] = 1.01e150
    values[3, 8, 1] = np.nan  # a second bad value on the same path
    values[4, 1, 0] = -1.01e150
    values[5, :, :] = model.DIVERGENCE_LIMIT  # the limit itself is finite
    values[6, 4, :] = -model.DIVERGENCE_LIMIT
    values[7, 0, 1] = np.nan  # a bad start
    return values


class TestMilstein:
    def test_det_exp_step_multiplier_exact(self):
        for n in (4, 16, 64):
            prob, b = det_exp_bundle(n, 8)
            out = schemes.milstein(prob, b, n)
            h = 1.0 / n
            assert out.values[0, -1, 0] == pytest.approx((1 + h + h * h / 2) ** n,
                                                         rel=1e-15)

    def test_gbm_single_step_identity(self):
        gbm = model.make_gbm()
        b = paths.simulate_bundle(gbm.driver, paths.make_grid(1, 16), 5, range(8))
        out = schemes.milstein(gbm, b, 1)
        w = b.y[:, -1, 0]
        assert np.allclose(out.values[:, -1, 0], 1 + w + (w ** 2 - 1) / 2, atol=1e-12)

    def test_fine_mode_single_subcell_matches_euler(self):
        # r = 1: the sub-grid K vanishes, so the correction adds nothing
        gbm = model.make_gbm()
        b = paths.simulate_bundle(gbm.driver, paths.make_grid(16, 1), 5, range(32))
        mil = schemes.milstein(gbm, b, 16, kmat=k_subgrid(b, 16))
        eul = schemes.euler(gbm, b, 16)
        assert np.array_equal(mil.values, eul.values)

    def test_coupling_monotone_on_det_exp(self):
        prob, b = det_exp_bundle(512, 1)
        errors = []
        for n in (4, 8, 16, 32, 64, 128, 256, 512):
            out = schemes.milstein(prob, b, n)
            errors.append(abs(out.values[0, -1, 0] - np.e))
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_divergence_flagged_and_counted(self):
        # x' = 100 x^2 from 1e3 overflows within 16 steps; every scheme's
        # step runs in the shared loop, which flags the paths and never raises
        zero = lambda x: 0.0 * x
        fld = model.scalar_field(lambda x: x ** 2, lambda x: 2 * x,
                                 lambda x: 2 * np.ones_like(x), growth_bound=1e9)
        spec = paths.DriverSpec(dim_d=1, dim_m=1, sigma=np.zeros((1, 1)),
                                drift=np.array([100.0]), label="blowup")
        prob = model.SdeProblem(field=fld, driver=spec, x0=1e3)
        ito = model.ito_problem(a=zero, da=zero, d2a=zero, b=lambda x: 100 * x ** 2,
                                db=lambda x: 200 * x, d2b=lambda x: 200 * np.ones_like(x),
                                x0=1e3, growth_bound=1e9)
        for scheme, problem in ((schemes.euler, prob), (schemes.milstein, prob),
                                (schemes.milstein_ito54, ito)):
            b = paths.simulate_bundle(problem.driver, paths.make_grid(16, 1), 1, range(3))
            out = scheme(problem, b, 16)
            assert out.diverged.all(), scheme.__name__

    def test_divergence_flag_catches_nan_inf_and_overflow(self):
        # the single comparison must agree with the explicit finite-or-large test
        values = _band_values()
        diverged = schemes._flag_divergence(values)
        assert diverged.tolist() == [True] * 5 + [False, False, True]
        bad = ~np.isfinite(values).all(axis=2) \
            | (np.abs(values) > model.DIVERGENCE_LIMIT).any(axis=2)
        assert np.array_equal(diverged, bad.any(axis=1))

    @pytest.mark.parametrize("every", [1, 2, 4, 8])
    def test_march_flags_what_the_band_check_flags(self, every):
        # a step that returns the values node by node: the march's running
        # max of |x| from x0 flags every path the whole-array check flags,
        # whether or not the bad node is one it keeps
        values = _band_values()
        cells = values.shape[1] - 1
        y = np.zeros((len(values), cells + 1, 1))
        with np.errstate(invalid="ignore"):
            out = schemes._march(values[:, 0], y, cells, lambda x, dy, k: values[:, k + 1],
                                 every)
        assert np.array_equal(out.values, values[:, ::every], equal_nan=True)
        assert out.coarse_n == cells // every
        assert np.array_equal(out.diverged, schemes._flag_divergence(values))


def _area_gap(prob, n, fine_factor, coarse_n):
    """Per path, the largest gap between Milstein with the sub-grid K and
    Milstein without kmat over the nodes, and the rounding bound on it for a
    commutative field.

    K is the sub-grid sum at n, folded to ``coarse_n`` (the base grid's
    bundle, as in a rate run) when that is coarser.  With a symmetric
    pairing the two runs agree in reals: the correction pairs h with K's
    symmetric part only, which is the cell's own (dY dY^T - QV)/2, and K's
    Levy area cancels.  In floats each step's two K differ in their symmetric
    part by at most (4r + 8) eps S, S = (sum |dy|)^2 + |QV| over the cell's r
    fine cells (see test_scalar_k_is_the_k_of_its_own_dy); a fold of m base
    cells adds at most 12 m eps S for its sums of m K_j, of the Chen terms and
    of the QV, and m <= r, so 16 r + 8 covers both.  h's two halves round
    apart by at most 2 eps |h|, against an area of at most S, and the step's
    einsums and adds round different operands by a few eps |x|.  For the
    linear gbm-drift field |h| <= c^2 |x|, c = max(|alpha|, |beta|), and a
    relative slip at one step stays relative through the product of later
    steps, so the per-step terms add: at every node the gap is at most
    eps max|X| sum_k (8 + (16 r + 10) c^2 S_k).  Measured gaps reach 4.3 eps
    max|X|, far inside it.
    """
    fine = paths.simulate_bundle(prob.driver, paths.make_grid(n, fine_factor), 7, range(50))
    bundle, kmat = fine, schemes.iterated_integrals(fine, n)
    if coarse_n < n:
        bundle = paths.PathBundle(paths.make_grid(n, 1), prob.driver, None,
                                  fine.y[:, ::fine_factor], None)
        kmat = schemes.fold_iterated_integrals(bundle, kmat, coarse_n)
    sub = schemes.milstein(prob, bundle, coarse_n, kmat=kmat).values
    own = schemes.milstein(prob, bundle, coarse_n).values
    r = n * fine_factor // coarse_n
    moves = np.abs(np.diff(fine.y, axis=1)).sum(axis=2).reshape(50, coarse_n, r).sum(axis=2)
    qv = prob.driver.cell_qv(np.arange(coarse_n + 1) / coarse_n)
    s = moves ** 2 + np.abs(qv).sum(axis=(1, 2))
    c = np.abs(prob.field.df_at(np.ones((1, 1)))).max()  # the linear field's slopes (alpha, beta)
    tol = np.finfo(float).eps * np.abs(own).max(axis=(1, 2)) \
        * (8 + (16 * r + 10) * c ** 2 * s).sum(axis=1)
    return np.abs(sub - own).max(axis=(1, 2)), tol


class TestCommutativeField:
    @pytest.mark.parametrize("params", [{}, {"alpha": 0.6, "beta": -1.5}])
    @pytest.mark.parametrize("n,fine_factor,coarse_n",
                             [(4, 16, 4), (8, 8, 2), (5, 24, 5), (6, 24, 3), (16, 64, 4)])
    def test_own_k_is_the_subgrid_k_on_gbm_drift(self, params, n, fine_factor, coarse_n):
        # Milstein without kmat, whose step forms each cell's K from its own
        # dY on a commutative field, is Milstein with the sub-grid K (direct
        # or folded) up to the rounding bound of _area_gap
        prob = model.make_gbm_drift(**params)
        assert prob.field.commutative
        gap, tol = _area_gap(prob, n, fine_factor, coarse_n)
        assert np.all(gap <= tol)

    @pytest.mark.parametrize("n,fine_factor,coarse_n", [(8, 8, 2), (16, 64, 4)])
    def test_levy_area_matters_on_ou(self, n, fine_factor, coarse_n):
        # ou's pairing is not symmetric (h_Wt = 0, h_tW = -kappa noise), so
        # its K's Levy area reaches the step: declared commutative, its
        # Milstein run without kmat drops the area and moves far past the
        # bound that holds on gbm-drift
        prob = model.make_ou()
        assert schemes.has_levy_area(prob.driver, prob.field)
        wrong = dataclasses.replace(prob, field=dataclasses.replace(prob.field, commutative=True))
        gap, tol = _area_gap(wrong, n, fine_factor, coarse_n)
        assert gap.max() > 1e6 * tol.max()


class TestColumnForms:
    # the step loop's dY and own-dY K are formed one column of paths at a
    # time; each must hold the bits of the whole-row expressions it replaced,
    # kept here as the reference
    @pytest.mark.parametrize("timed", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_own_k_is_the_broadcast_outer_product(self, d, timed):
        sigma = np.array([[1.0, 0.0], [0.4, -0.7], [0.2, 0.9]])[:d]
        spec = paths.DriverSpec(dim_d=d, dim_m=2, sigma=(lambda s: (1.0 + s) * sigma)
                                if timed else sigma)
        qv = spec.cell_qv(np.arange(9) / 8)
        dy = np.random.default_rng(3).standard_normal((40, d)) / 3.0
        k_at = schemes._own_k(qv)
        for k in range(8):
            assert np.array_equal(k_at(dy, k), 0.5 * (dy[:, :, None] * dy[:, None, :] - qv[k]))

    def test_march_reads_each_cells_move_from_its_nodes(self):
        # on a strided base-grid Y (a rate chunk's bundle.y[:, ::every]) and
        # on a time block's nodes (a limit chunk's bundle.y[:, nodes]), every
        # step's dy is the row difference y[:, (k+1) r] - y[:, k r]
        spec, grid = paths.ito_embedding_driver(), paths.make_grid(6, 4)
        whole = paths.simulate_bundle(spec, grid, 5, range(7)).y
        keys = rng.philox_keys(5, rng.DRIVER_W, range(7), 1)
        blocks = paths.stream_times(spec, grid, keys, 10, paths.Workspace())
        next(blocks)
        block = next(blocks).y  # fine nodes 10..20
        for y, cells in ((whole[:, ::4], 6), (whole, 12), (block, 5), (block, 10)):
            seen = []
            schemes._march(np.zeros(1), y, cells, lambda x, dy, k: seen.append(dy.copy()) or x)
            r = (y.shape[1] - 1) // cells
            for k, dy in enumerate(seen):
                assert np.array_equal(dy, y[:, (k + 1) * r] - y[:, k * r])
            assert len(seen) == cells


class TestMilsteinIto54:
    def test_requires_embedding(self):
        gbm = model.make_gbm()
        b = paths.simulate_bundle(gbm.driver, paths.make_grid(4, 4), 1, [0])
        with pytest.raises(ValueError, match="embedding"):
            schemes.milstein_ito54(gbm, b, 4)

    def test_pure_drift_second_order_taylor(self):
        # a = 0 reduces to X (1 + b h + b b' h^2 / 2) per step for b(x) = x
        prob = model.ito_problem(a=lambda x: 0.0 * x, da=lambda x: 0.0 * x,
                                 d2a=lambda x: 0.0 * x, b=lambda x: x,
                                 db=lambda x: np.ones_like(x), d2b=lambda x: 0.0 * x)
        b = paths.simulate_bundle(prob.driver, paths.make_grid(8, 8), 3, [0])
        out = schemes.milstein_ito54(prob, b, 8)
        h = 1.0 / 8.0
        assert out.values[0, -1, 0] == pytest.approx((1 + h + h * h / 2) ** 8, rel=1e-14)

    def test_no_drift_matches_scalar_milstein_step(self):
        # b = 0, a(x) = x: one step is the classical 1 + dW + ((dW)^2 - h)/2
        prob = model.make_gbm_drift(alpha=1.0, beta=0.0)
        b = paths.simulate_bundle(prob.driver, paths.make_grid(1, 32), 5, range(8))
        out = schemes.milstein_ito54(prob, b, 1)
        w = b.w[:, -1, 0]
        assert np.allclose(out.values[:, -1, 0], 1 + w + (w ** 2 - 1) / 2, atol=1e-12)

    @pytest.mark.parametrize("mode", ["exact", "fine"])
    def test_agrees_with_general_scheme(self, mode):
        # same bundle: agreement at rounding level, for the schemes' own K
        # (Milstein's from each cell's dY, milstein54's from the sub-grid)
        # and for the sub-grid sum handed in to both as kmat
        prob = model.make_gbm_drift()
        b = paths.simulate_bundle(prob.driver, paths.make_grid(64, 16), 11, range(64))
        kmat = k_subgrid(b, 64) if mode == "fine" else None
        general = schemes.milstein(prob, b, 64, kmat=kmat)
        explicit = schemes.milstein_ito54(prob, b, 64, kmat=kmat)
        assert np.max(np.abs(general.values - explicit.values)) <= 1e-12


class TestReference:
    def test_closed_form_plugin(self):
        gbm = model.make_gbm()
        g = paths.make_grid(2, 8)
        b = paths.simulate_bundle(gbm.driver, g, 5, [0])
        ref = schemes.reference(gbm, b)
        w1 = b.w[0, -1, 0]
        assert np.isclose(ref.values[0, -1, 0], np.exp(w1 - 0.5), atol=1e-14)

    def test_det_exp_machine_precision(self):
        prob, b = det_exp_bundle(16, 4)
        ref = schemes.reference(prob, b)
        assert ref.values[0, -1, 0] == pytest.approx(np.e, rel=1e-14)

    def test_ou_self_consistency(self):
        # no closed form: doubling the solve grid moves t=1 by < 1e-3 RMS
        prob = model.make_ou()
        g = paths.make_grid(1 << 12, 4)
        b = paths.simulate_bundle(prob.driver, g, 23, range(100))
        fine = schemes.milstein(prob, b, 1 << 14).values[:, -1, 0]
        coarse = schemes.milstein(prob, b, 1 << 12).values[:, -1, 0]
        assert np.sqrt(np.mean((fine - coarse) ** 2)) < 1e-3
        # without a closed form the reference is Milstein on every fine cell
        assert np.array_equal(schemes.reference(prob, b).values,
                              schemes.milstein(prob, b, g.fine_count).values)


class TestErrorProcess:
    def test_reference_against_itself_is_zero(self):
        gbm = model.make_gbm()
        b = paths.simulate_bundle(gbm.driver, paths.make_grid(8, 8), 5, range(4))
        ref = schemes.reference(gbm, b)
        assert np.all(crosscheck.error_process(ref, ref, alpha="n") == 0.0)

    def test_det_exp_second_order_limit(self):
        prob, b = det_exp_bundle(256, 1)
        out = schemes.milstein(prob, b, 256)
        ref = schemes.reference(prob, b)
        err = crosscheck.error_process(out, ref, alpha="n2")
        assert err[0, -1, 0] == pytest.approx(-np.e / 6, rel=0.01)

    def test_gbm_variance_toward_limit(self):
        gbm = model.make_gbm()
        b = paths.simulate_bundle(gbm.driver, paths.make_grid(128, 1), 2, range(10_000))
        out = schemes.milstein(gbm, b, 128)
        ref = schemes.reference(gbm, b)
        err = crosscheck.error_process(out, ref, alpha="n")
        v = err[:, -1, 0].var(ddof=1)
        assert abs(v - np.e / 6) <= 0.1 * np.e / 6

    def test_alpha_validation(self):
        gbm = model.make_gbm()
        b = paths.simulate_bundle(gbm.driver, paths.make_grid(8, 8), 5, [0])
        out = schemes.euler(gbm, b, 8)
        ref = schemes.reference(gbm, b)
        with pytest.raises(ValueError, match="alpha"):
            crosscheck.error_process(out, ref, alpha="n3")

    def test_rate_separation(self):
        # fitted Euler slope minus Milstein slope is at least 0.35 on gbm
        from milsde import montecarlo
        gbm = model.make_gbm()
        rep_e = montecarlo.run_rate_experiment(gbm, "euler", [16, 32, 64, 128],
                                               10_000, 1, seed=1)
        rep_m = montecarlo.run_rate_experiment(gbm, "milstein", [16, 32, 64, 128],
                                               10_000, 1, seed=1)
        assert rep_e.rate_fit.slope - rep_m.rate_fit.slope >= 0.35

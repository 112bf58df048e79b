import tracemalloc

import numpy as np
import pytest

from milsde import model, montecarlo, paths


class TestEstimateMoments:
    def test_constant_sample(self):
        mom = montecarlo.estimate_moments(np.full(100, 3.25))
        assert mom.variance == 0.0 and mom.variance_se == 0.0
        assert mom.mean == 3.25 and mom.mean_se == 0.0

    def test_standard_normal(self):
        x = np.random.default_rng(7).standard_normal(100_000)
        mom = montecarlo.estimate_moments(x)
        assert abs(mom.variance - 1.0) < 3 * mom.variance_se
        assert abs(mom.mean) < 3 * mom.mean_se

    def test_degenerate_sample_rejected(self):
        with pytest.raises(ValueError, match="at least 30"):
            montecarlo.estimate_moments(np.arange(5.0))


class TestKsStatistic:
    def test_identical_samples(self):
        x = np.random.default_rng(0).standard_normal(500)
        assert montecarlo.ks_statistic(x, x) == 0.0

    def test_disjoint_point_masses(self):
        assert montecarlo.ks_statistic(np.zeros(50), np.ones(60)) == 1.0

    def test_matches_brute_force(self):
        rs = np.random.default_rng(3)
        for _ in range(10):
            a = rs.standard_normal(37)
            b = rs.standard_normal(53) * 1.3 + 0.2
            grid = np.concatenate([a, b])
            brute = max(abs(np.mean(a <= t) - np.mean(b <= t)) for t in grid)
            assert montecarlo.ks_statistic(a, b) == pytest.approx(brute, abs=1e-12)

    def test_self_test_pass_rate(self):
        # two same-law samples of 1e4 stay under the soft 0.05 threshold
        # at least 95 times out of 100
        rs = np.random.default_rng(11)
        passes = sum(
            montecarlo.ks_statistic(rs.standard_normal(10_000),
                                    rs.standard_normal(10_000)) <= 0.05
            for _ in range(100))
        assert passes >= 95


class TestCompareDistributions:
    def test_min_size(self):
        with pytest.raises(ValueError, match="at least"):
            montecarlo.compare_distributions(np.zeros(10), np.zeros(2000))

    def test_componentwise(self):
        rs = np.random.default_rng(5)
        a = rs.standard_normal((2000, 2))
        b = rs.standard_normal((2000, 2))
        b[:, 1] += 3.0
        rep = montecarlo.compare_distributions(a, b)
        # a 3-sigma shift has KS = 2 Phi(1.5) - 1 = 0.866
        assert rep.ks[0] < 0.06 and rep.ks[1] == pytest.approx(0.866, abs=0.03)
        assert rep.same_law_95 == pytest.approx(1.358 * np.sqrt(4000 / 4e6))


class TestNullLimitCheck:
    def test_trivia(self):
        assert montecarlo.null_tolerance(0.002, 0.0) == 3.0 * 0.002
        # a zero SE with no budget leaves no band to check against
        with pytest.raises(ValueError):
            montecarlo.null_tolerance(0.0, 0.0)

    def test_band_is_three_se_plus_budget(self):
        assert montecarlo.null_tolerance(0.01, 0.5) == 3.0 * 0.01 + 0.5
        # an identically zero statistic (zero SE) is judged by its budget alone
        assert montecarlo.null_tolerance(0.0, 0.5) == 0.5
        with pytest.raises(ValueError):
            montecarlo.null_tolerance(-0.1, 1.0)


class TestFitRate:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least 3"):
            montecarlo.fit_rate([16, 32], [1.0, 0.5])
        with pytest.raises(ValueError, match="at least 3 distinct"):
            montecarlo.fit_rate([16, 16, 128], [1.0, 1.0, 0.1])
        with pytest.raises(ValueError, match="8x"):
            montecarlo.fit_rate([16, 32, 64], [1.0, 0.5, 0.25])
        with pytest.raises(ValueError, match="positive"):
            montecarlo.fit_rate([16, 32, 64, 128], [1.0, 0.5, 0.0, 0.1])

    def test_exact_power_law(self):
        n = np.array([16, 32, 64, 128])
        fit = montecarlo.fit_rate(n, 3.0 * n ** -1.5)
        assert fit.slope == pytest.approx(-1.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert max(abs(r) for r in fit.residuals) < 1e-12


class TestRateExperiment:
    def test_gbm_slopes(self):
        gbm = model.make_gbm()
        rep = montecarlo.run_rate_experiment(gbm, "milstein", [16, 32, 64, 128],
                                             2000, 1, seed=4)
        assert -1.15 <= rep.rate_fit.slope <= -0.85
        rep_e = montecarlo.run_rate_experiment(gbm, "euler", [16, 32, 64, 128],
                                               2000, 1, seed=4)
        assert -0.65 <= rep_e.rate_fit.slope <= -0.35

    def test_deterministic_single_path(self):
        rep = montecarlo.run_rate_experiment(model.make_det_exp(), "milstein",
                                             [16, 32, 64, 128], 1, 1, seed=1)
        assert -2.05 <= rep.rate_fit.slope <= -1.95
        assert rep.excluded_paths == 0

    def test_chunking_and_threads_do_not_change_results(self, monkeypatch):
        gbm = model.make_gbm()
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 600)
        base = montecarlo.run_rate_experiment(gbm, "milstein", [16, 32, 64, 128],
                                              600, 2, seed=9)
        for chunk, threads in ((100, 1), (250, 3)):
            monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", chunk)
            other = montecarlo.run_rate_experiment(gbm, "milstein",
                                                   [16, 32, 64, 128],
                                                   600, 2, seed=9, threads=threads)
            assert other.to_dict() == base.to_dict()

    def test_every_n_runs_on_the_same_bundle(self):
        # recomputing one coarseness from a hand-built bundle on the common
        # grid reproduces the engine's errors exactly: the coupling contract.
        # gbm's driver is scalar, so each level's Milstein step forms its K
        # from its own dY, on the whole bundle as on the engine's base grid
        from milsde import paths, schemes
        gbm = model.make_gbm()
        data = montecarlo.scheme_error_samples(gbm, "milstein", [32, 128],
                                               300, 1, seed=13)
        grid = paths.make_grid(128, 1)
        bundle = paths.simulate_bundle(gbm.driver, grid, 13, range(300))
        ref = schemes.reference(gbm, bundle).values[:, -1]
        for n in (32, 128):
            manual = schemes.milstein(gbm, bundle, n).values[:, -1] - ref
            assert np.array_equal(manual, data["err"][n])
        # the shared reference couples the endpoints across n
        corr = np.corrcoef(data["err"][32][:, 0], data["err"][128][:, 0])[0, 1]
        assert corr > 0.05

    @pytest.mark.parametrize("scheme", ["euler", "milstein"])
    def test_divergence_is_excluded_not_raised(self, scheme):
        # f(x) = x^2 blows up on some paths; with no closed form the fine
        # reference is Milstein, whose pairing overflows on those paths
        fld = model.scalar_field(lambda x: x ** 2, lambda x: 2 * x,
                                 lambda x: 2 * np.ones_like(x))
        prob = model.SdeProblem(field=fld, driver=paths.brownian_motion_driver(1), x0=1.0)
        data = montecarlo.scheme_error_samples(prob, scheme, [16, 32, 128], 2000,
                                               fine_factor=1, seed=1)
        kept = data["kept"]
        assert 0 < int((~kept).sum()) < kept.size
        for n in data["n_list"]:
            assert np.isfinite(data["err"][n][kept]).all()
            assert np.isfinite(data["sup"][n][kept]).all()

    @pytest.mark.parametrize("scheme", ["euler", "milstein"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_overflowing_field_is_excluded_not_raised(self, scheme, seed):
        # f(x) = x^3 overflows in f itself at finite states near 5.6e102,
        # below the divergence limit: overflow alone marks a diverged path
        fld = model.scalar_field(lambda x: x ** 3, lambda x: 3 * x ** 2, lambda x: 6 * x)
        prob = model.SdeProblem(field=fld, driver=paths.brownian_motion_driver(1), x0=1.0)
        data = montecarlo.scheme_error_samples(prob, scheme, [16, 32, 128], 2000,
                                               fine_factor=1, seed=seed)
        kept = data["kept"]
        assert 0 < int((~kept).sum()) < kept.size
        for n in data["n_list"]:
            assert np.isfinite(data["err"][n][kept]).all()

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_defective_field_raises(self):
        # 1/(x-1) divides by zero at the finite start x0 = 1
        fld = model.scalar_field(lambda x: 1.0 / (x - 1.0), lambda x: -1.0 / (x - 1.0) ** 2,
                                 lambda x: 2.0 / (x - 1.0) ** 3)
        prob = model.SdeProblem(field=fld, driver=paths.brownian_motion_driver(1), x0=1.0)
        with pytest.raises(FloatingPointError, match="divide"):
            montecarlo.scheme_error_samples(prob, "milstein", [16, 32, 128], 100,
                                            fine_factor=1, seed=1)

    def test_unknown_scheme(self):
        with pytest.raises(KeyError, match="unknown scheme"):
            montecarlo.scheme_error_samples(model.make_gbm(), "rk4", [16, 32, 64],
                                            10, 1, seed=1)

    def test_indivisible_n_rejected(self):
        with pytest.raises(ValueError, match="does not divide"):
            montecarlo.run_rate_experiment(model.make_gbm(), "milstein",
                                           [12, 32, 64, 128], 10, 1, seed=1)


class TestErrorLaw:
    def test_report_content(self):
        rep = montecarlo.run_error_law(model.make_gbm(), 64, 2000, 1500, 1,
                                       seed=3, fine_count=512, ks_threshold=0.1)
        assert set(rep.moments) == {"scheme", "limit"}
        assert rep.distance.size_a == 2000 and rep.distance.size_b == 1500
        d = rep.to_dict()
        assert d["config"]["n"] == 64
        assert "distance" in d and "moments" in d

    def test_scheme_sample_is_normalized_error(self):
        s = montecarlo.error_law_samples(model.make_gbm(), 128, 500, 1, seed=2)
        assert s.shape == (500, 1)
        # n U^n has spread near the limit law's, far from the raw error's
        assert 0.2 < s[:, 0].std() < 1.5


def _scheme_chunk_arrays(fine_factor, n_list, paths_n=1000, make=model.make_gbm):
    """tracemalloc peak of a rate chunk in arrays of paths x fine_count."""
    montecarlo.scheme_error_samples(make(), "milstein", n_list, 50,
                                    fine_factor, 1)  # warm caches
    tracemalloc.start()
    try:
        montecarlo.scheme_error_samples(make(), "milstein", n_list, paths_n,
                                        fine_factor, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (paths_n * fine_factor * n_list[-1] * 8)


class TestChunkMemory:
    def test_scheme_chunk_peak_is_bounded(self):
        # a gbm rate chunk draws, assembles and reduces its paths one block
        # of paths at a time, so no full-size array exists: what it holds is
        # on the base grid (Y, K and the reference at its nodes) and one
        # block's reused buffers, and the divergence check makes no float
        # copy of the values
        assert _scheme_chunk_arrays(16, [8, 16, 32, 64]) <= 0.8

    def test_scheme_chunk_peak_is_bounded_at_n_128(self):
        # the sup error is reduced in the scheme's own values, reading the
        # kept reference rows in place, so a finer coarsest level (n = 128
        # on the same fine grid) adds no full-size temporary
        assert _scheme_chunk_arrays(8, [16, 32, 64, 128]) <= 1

    def test_drift_scheme_chunk_peak_is_bounded(self):
        # a gbm-drift block holds W and the two-channel Y, whose drift is
        # added in place; the chunk keeps the base grid's Y, K (four
        # channels) and reference
        assert _scheme_chunk_arrays(8, [16, 32, 64, 128], make=model.make_gbm_drift) <= 2

    def test_marched_scheme_chunk_peak_is_bounded(self):
        # ou has no closed form: the chunk keeps the fine two-channel Y that
        # its reference marches over, forming each cell's K from its dY and
        # keeping only the base nodes, so neither a fine K nor a fine
        # solution is ever whole
        assert _scheme_chunk_arrays(8, [16, 32, 128], make=model.make_ou) <= 3.6

    def test_closed_form_chunk_peak_does_not_grow_with_the_fine_grid(self):
        # a closed-form chunk holds no fine node beyond one block of paths,
        # so 8 times the fine cells (at the same base grid) leave its peak
        peaks = [_scheme_chunk_arrays(ff, [16, 32, 64, 128], make=model.make_gbm_drift) * ff
                 for ff in (8, 64)]
        assert peaks[1] <= 1.25 * peaks[0]

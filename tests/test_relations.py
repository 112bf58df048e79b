"""Exact relations between two runs of the instrument.

A golden holds whatever the code did when it was recorded, and a
statistical band is wide; a relation between two runs on the same driver
paths has no reference to freeze and no noise.  Each test here runs the
engine twice on one fine grid and one seed and requires the shared
quantity to agree, bit for bit where both runs do the same arithmetic, and
within a stated rounding bound where they sum it in another order.
"""

import numpy as np
import pytest

from milsde import model, montecarlo, paths, schemes

EPS = np.finfo(float).eps
PATHS, SEED = 500, 3
# one fine grid of 1024 cells: level 64 folded from base 128, or the base
FOLDED = ([16, 64, 128], 8)
BASE = ([8, 16, 64], 16)


def _level_64(prob, scheme, n_list, fine_factor):
    data = montecarlo.scheme_error_samples(prob, scheme, n_list, PATHS, fine_factor, SEED)
    return data["err"][64], data["sup"][64], data["kept"]


def _fold_bound(prob):
    """Per path, the rounding bound on level 64's folded-against-base gap for ``prob``.

    Both runs step the same dY (the nodes 16 fine cells apart) from the
    same reference; only K differs.  As base it is summed over the cell's
    r = 16 sub-cells; folded, over 2 base cells of 8 and joined by Chen's
    identity with the QV swapped.  In reals the two are equal.  In floats
    each entry's two sums differ by at most (16 r + 8) eps S, S = (sum |dy|)^2
    + |QV| over the cell (see tests/test_schemes.py::_area_gap).  The step
    pairs K with h, |h| <= H, and rounds its different operands by a few
    eps |x| more; ou's drift contracts, so a slip at one step is not
    amplified by later ones and the per-step terms add: the gap is at most
    eps sum_k (8 max|X| + (16 r + 8) H S_k).  For ou, h_tW = -kappa noise and
    h_tt = kappa^2 x, so H = kappa max(noise, kappa max|X|), max|X| read
    from Milstein at level 64 on the same paths.
    """
    n, r = 64, 16
    fine = paths.simulate_bundle(prob.driver, paths.make_grid(n, r), SEED, range(PATHS))
    x = schemes.milstein(prob, fine, n).values[..., 0]
    size = np.abs(x).max(axis=1)
    zero = np.zeros((1, 1))
    noise = prob.field.f_at(zero)[0, 0, 0]  # a(x) = noise
    kappa = -prob.field.df_at(zero)[0, 0, 0, 1]  # b'(x) = -kappa
    h = kappa * np.maximum(noise, kappa * size)
    moves = np.abs(np.diff(fine.y, axis=1)).sum(axis=2).reshape(PATHS, n, r).sum(axis=2)
    qv = np.abs(prob.driver.cell_qv(np.arange(n + 1) / n)).sum(axis=(1, 2))
    s = (moves ** 2 + qv).sum(axis=1)
    return EPS * (8 * n * size + (16 * r + 8) * h * s)


class TestLevelCoupling:
    # the level-64 errors do not depend on whether the level is the base
    # grid or folded from a finer one
    def test_own_dy_k_levels_are_bit_equal(self):
        # gbm-drift declares itself commutative, so Milstein forms each
        # cell's K from its own dY: no fold runs, and both runs do the same
        # arithmetic on the same nodes
        prob = model.make_gbm_drift()
        folded, base = _level_64(prob, "milstein", *FOLDED), _level_64(prob, "milstein", *BASE)
        for a, b in zip(folded, base):
            assert np.array_equal(a, b)

    def test_folded_k_levels_agree_to_rounding(self):
        # ou's pairing is not symmetric, so its level 64 reads the sub-grid
        # K: folded from base 128 in one run, summed directly in the other.
        # The gap is a rounding of K (at most 1 eps of |X| here, 3.4e-12 of
        # max |err|), far inside _fold_bound.  A K shifted by one base cell
        # moves the errors by about their own size, past the last assertion
        prob = model.make_ou()
        (err_f, sup_f, kept_f), (err_b, sup_b, kept_b) = (
            _level_64(prob, "milstein", *FOLDED), _level_64(prob, "milstein", *BASE))
        tol = _fold_bound(prob)
        assert np.array_equal(kept_f, kept_b) and kept_f.all()
        assert np.all(np.abs(err_f - err_b)[:, 0] <= tol)
        assert np.all(np.abs(sup_f - sup_b) <= tol)
        assert tol.max() < 1e-6 * np.abs(err_b).max()


class TestErrorLawIsTheRateLevel:
    # error-law's sample is n times the rate run's level-n error on the
    # same paths, bit for bit
    @pytest.mark.parametrize("name", ["gbm", "gbm-drift"])
    def test_error_law_sample_is_n_times_the_rate_error(self, name):
        prob = model.get_model(name)
        law = montecarlo.error_law_samples(prob, 128, 1000, 8, seed=2)
        rate = montecarlo.scheme_error_samples(prob, "milstein", [16, 32, 128], 1000, 8, 2)
        assert rate["kept"].all()
        assert np.array_equal(law, 128 * rate["err"][128])

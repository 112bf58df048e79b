"""The blocked passes over the fine grid against whole-array references.

A rate chunk runs through :func:`paths.stream_paths` over blocks of paths,
evaluating a closed-form ``reference`` whole on each block,
``iterated_integrals`` and ``fold_iterated_integrals`` (which a verb runs
only for a d > 1 driver, a scalar one's Milstein step forming K from its
own dY) and every stochastic oracle case through
:func:`paths.stream_cells` over blocks of paths, and
``simulate_u`` (which forms the reference, dY, dW, dM and dN per time
block) over blocks of time; every block is sized by
:func:`paths.rows_per_block`.  The marched reference runs in no block; it
is checked here against one Milstein march and across calls chained over
slices of the cells.  Here ``paths.BLOCK_BYTES`` is set so that every pass
runs in blocks of one row, of three rows (which divides none of the counts
below) and in a single block, and each result is compared with the
whole-array formulation kept in this file.
"""

import math
import pathlib

import numpy as np
import pytest

from milsde import crosscheck, limits, model, montecarlo, oracles, paths, rng, schemes, stats
from test_paths import TIME_BLOCK_DRIVERS

PATHS, FINE, COARSE = 7, 64, 8  # 3 divides neither the paths nor the steps


def k_whole(bundle, coarse_n):
    cells = crosscheck.cell_split(np.diff(bundle.y, axis=1), coarse_n)
    kmat = stats.k_fine(cells)
    qv_emp = np.swapaxes(cells[0], -1, -2) @ cells[0]
    qv_exact = bundle.driver.cell_qv(np.arange(coarse_n + 1) / coarse_n)
    return kmat + 0.5 * (qv_emp - qv_exact)


def mn_whole(driver, dw, aux):
    d = driver.dim_d
    B, T, m = dw.shape
    sig = driver.sigma_at(aux.grid.times()[:-1])
    cube = np.einsum("tjp,tau,tcv->tpuvjac", sig, sig, sig).reshape(T, m ** 3, d ** 3)
    dv = limits.assemble_v_increments(aux, dw).reshape(B, T, m ** 3)
    dn = np.einsum("btk,tkl->btl", dv, (limits.SQRT3 / 3.0) * cube)
    dm = np.einsum("btk,tkl->btl", aux.db.reshape(B, T, m ** 3), (limits.SQRT6 / 6.0) * cube)
    return dm.reshape(B, T, d, d, d), dn.reshape(B, T, d, d, d)


def u_whole(problem, x_ref, dy, dm, dn):
    B, T, q = x_ref.shape
    x_left = x_ref[:, :-1]
    field = problem.field
    f, df, hf = field.f_at(x_left), field.df_at(x_left), field.hf_at(x_left)
    h = np.einsum("xtika,xtkc->xtiac", df, f)
    # Df h contracted first, then one product against dM
    dfh = np.einsum("xtikj,xtkac->xtijca", df, h)
    forcing = -np.einsum("xtiz,xtz->xti", dfh.reshape(B, T - 1, q, -1), dm.reshape(B, T - 1, -1))
    # f^T Hf f contracted first, then one product against dN
    coef = np.einsum("xtka,xtijkc->xtijca", f, np.einsum("xtijkl,xtlc->xtijkc", hf, f))
    forcing -= 0.5 * np.einsum("xtiz,xtz->xti", coef.reshape(B, T - 1, q, -1),
                               dn.reshape(B, T - 1, -1))
    coupling = np.einsum("xtikj,xtj->xtik", df, dy)
    cur = np.zeros((B, q))
    for t in range(T - 1):
        cur = cur + np.einsum("bik,bk->bi", coupling[:, t], cur) + forcing[:, t]
    return cur


def _trig_field():
    # f^{ij}(x) = sin(u_ij . x): every derivative and curvature term is live
    u = np.array([[[0.7, -0.4], [0.3, 0.9]], [[-0.5, 0.2], [0.8, 0.6]]])  # [i, j, k]

    def arg(x):
        return np.einsum("...k,ijk->...ij", x, u)

    return model.CoefficientField(
        dim_q=2, dim_d=2, f=lambda x: np.sin(arg(x)),
        df=lambda x: np.einsum("...ij,ijk->...ikj", np.cos(arg(x)), u),
        hf=lambda x: -np.einsum("...ij,ijk,ijl->...ijkl", np.sin(arg(x)), u, u))


def _problem(case, timed):
    """The three shapes (q, d, m): gbm (1, 1, 1), the (W, t) embedding
    (1, 2, 1) and a (2, 2, 2) field, each with constant or callable sigma."""
    if case == "gbm":
        base = np.eye(1)
        prob = model.make_gbm()
    elif case == "embedding":
        base = np.array([[1.0], [0.0]])
        prob = model.ito_problem(a=np.sin, da=np.cos, d2a=lambda x: -np.sin(x),
                                 b=np.cos, db=lambda x: -np.sin(x),
                                 d2b=lambda x: -np.cos(x), x0=0.7, label="trig")
    else:
        base = np.array([[1.0, 0.3], [-0.2, 0.8]])
        prob = model.SdeProblem(field=_trig_field(), driver=paths.brownian_motion_driver(2),
                                x0=np.array([0.4, -0.3]), label="trig2")
    drv = prob.driver
    sigma = (lambda s: base * (1.0 + s) + 0.2 * np.sin(3.0 * s)) if timed else base
    drv = paths.DriverSpec(dim_d=drv.dim_d, dim_m=drv.dim_m, sigma=sigma,
                           drift=drv.drift, label=drv.label)
    return model.SdeProblem(field=prob.field, driver=drv, x0=prob.x0, label=prob.label)


@pytest.fixture(params=[1, 3, None], ids=["rows-1", "rows-3", "one-block"])
def block_rows(request, monkeypatch):
    """Sets ``paths.BLOCK_BYTES`` per pass so that a block holds the given
    number of rows (all of them for None), then checks the blocks used.  A
    limit chunk's noise blocks, sized in their own budget, are left to it."""
    rows, sizes, rows_per_block = request.param, [], paths.rows_per_block

    def sized(count, row_bytes, budget=None):
        if budget is None:
            monkeypatch.setattr(paths, "BLOCK_BYTES", row_bytes * (rows or count))
            sizes.append((count, rows_per_block(count, row_bytes)))
        return rows_per_block(count, row_bytes, budget)

    # where the streamers and the time-sliced U pass look it up
    for module in (paths, limits):
        monkeypatch.setattr(module, "rows_per_block", sized)
    yield
    assert sizes, "no pass ran through rows_per_block"
    assert all(got == min(rows or count, count) for count, got in sizes)
    if rows == 3:
        # every pass ends in a partial block, but for one nested in a block of
        # three (K on a block of 3 paths); the passes the tests start have
        # counts that 3 does not divide
        assert all(count % 3 for count, _ in sizes if count != 3)


CASES = [(case, timed) for case in ("gbm", "embedding", "field2") for timed in (False, True)]
IDS = [f"{case}-{'callable' if timed else 'constant'}" for case, timed in CASES]


@pytest.mark.parametrize("case,timed", CASES, ids=IDS)
def test_iterated_integrals(block_rows, case, timed):
    prob = _problem(case, timed)
    bundle = paths.simulate_bundle(prob.driver, paths.make_grid(COARSE, FINE // COARSE), 5,
                                   range(PATHS))
    # r = 8 and 64: at d > 1 and r >= 32 the matmul's rounding follows its
    # left operand's layout, which the streamed K must match
    for coarse_n in (COARSE, 1):
        got = schemes.iterated_integrals(bundle, coarse_n)
        assert np.array_equal(got, k_whole(bundle, coarse_n))


def fold_whole(bundle, kbase, coarse_n):
    n_paths, base, d = kbase.shape[:3]
    m = base // coarse_n
    dybase = np.diff(bundle.y[:, ::bundle.grid.fine_count // base], axis=1)
    # the base cells summed in sequence, numpy's order along a middle axis;
    # its sum of a d = 1 K, whose cell axis is then innermost, is pairwise
    ksum = np.add.accumulate(kbase.reshape(n_paths, coarse_n, m, d, d), axis=2)[:, :, -1]
    kmat = ksum + stats.k_fine(crosscheck.cell_split(dybase, coarse_n))
    qv_base = bundle.driver.cell_qv(np.arange(base + 1) / base)
    qv_coarse = bundle.driver.cell_qv(np.arange(coarse_n + 1) / coarse_n)
    return kmat + 0.5 * (qv_base.reshape(coarse_n, m, d, d).sum(axis=1) - qv_coarse)


@pytest.mark.parametrize("case,timed", CASES, ids=IDS)
def test_fold_iterated_integrals(block_rows, case, timed):
    # K on the base grid of 16 cells, folded to 8, 4, 2 and 1 cells: m = 2
    # to 16 base cells per coarse cell, which the fold sums in sequence by
    # whole-array adds
    prob = _problem(case, timed)
    base = 2 * COARSE
    bundle = paths.simulate_bundle(prob.driver, paths.make_grid(base, FINE // base), 5,
                                   range(PATHS))
    kbase = k_whole(bundle, base)
    for coarse_n in (COARSE, 4, 2, 1):
        got = schemes.fold_iterated_integrals(bundle, kbase, coarse_n)
        assert np.array_equal(got, fold_whole(bundle, kbase, coarse_n))


def scheme_whole(prob, scheme, n_list, fine_factor, seed):
    """A rate chunk from the whole bundle: K at the base grid lcm(n_list)
    folded to each n (a scalar driver's Milstein step forms its own K), the
    reference at every fine node, and every level on the fine paths; the
    errors, sups and kept mask of :func:`montecarlo.scheme_error_samples`."""
    grid = paths.make_grid(n_list[-1], fine_factor)
    bundle = paths.simulate_bundle(prob.driver, grid, seed, range(PATHS))
    ref = schemes.reference(prob, bundle)
    base = math.lcm(*n_list)
    kbase = k_whole(bundle, base)
    runner = montecarlo._SCHEMES[scheme]
    kept, err, sup = ~ref.diverged, {}, {}
    for n in n_list:
        if scheme == "euler" or prob.driver.dim_d == 1:
            out = runner(prob, bundle, n)
        else:
            kmat = kbase if n == base else fold_whole(bundle, kbase, n)
            out = runner(prob, bundle, n, kmat=kmat)
        kept &= ~out.diverged
        gap = out.values - ref.values[:, ::grid.fine_count // n]
        err[n] = gap[:, -1]
        sup[n] = np.sqrt((gap ** 2).sum(axis=2).max(axis=1))
    return err, sup, kept


# every bundled model with each scheme it runs; ou has no closed form, so
# its reference is marched over the fine Y of the whole chunk
CHUNK_CASES = [(m, s) for m in ("gbm", "gbm-drift", "det-exp", "ou")
               for s in ("euler", "milstein", "milstein54")
               if s != "milstein54" or m in ("gbm-drift", "ou")]


@pytest.mark.parametrize("name,scheme", CHUNK_CASES, ids=[f"{m}-{s}" for m, s in CHUNK_CASES])
def test_scheme_chunk_streams_blocks_of_paths(block_rows, name, scheme):
    # a rate chunk drawn, assembled and reduced one block of paths at a
    # time, with its levels run on the base grid, against the same chunk
    # from its whole bundle.  (2, 4, 8) has base 8 = max(n_list); (4, 5, 8)
    # has base 40 > max(n_list), two fine cells of 80 apart
    prob = model.get_model(name)
    for n_list, fine_factor in (((2, 4, 8), FINE // 8), ((4, 5, 8), 10)):
        got = montecarlo.scheme_error_samples(prob, scheme, n_list, PATHS, fine_factor, 5)
        err, sup, kept = scheme_whole(prob, scheme, list(n_list), fine_factor, 5)
        assert np.array_equal(got["kept"], kept)
        for n in n_list:
            assert np.array_equal(got["err"][n], err[n])
            assert np.array_equal(got["sup"][n], sup[n])


@pytest.mark.parametrize("name", TIME_BLOCK_DRIVERS)
def test_stream_paths_blocks_are_rows_of_the_whole_bundle(block_rows, name):
    # every block of paths is drawn and assembled by the draw step that makes
    # the whole batch: its W and Y are those rows of the whole bundle, in
    # buffers every block shares, and Y is W itself exactly when Y is W
    spec, grid = TIME_BLOCK_DRIVERS[name], paths.make_grid(COARSE, FINE // COARSE)
    whole = paths.simulate_bundle(spec, grid, 5, range(PATHS))
    keys = rng.philox_keys(5, rng.DRIVER_W, range(PATHS), 1)
    first, done = [], [0]

    def reduce(bundle, space):
        rows = slice(done[0], done[0] + bundle.n_paths)
        done[0] = rows.stop
        assert np.array_equal(bundle.w, whole.w[rows]) and np.array_equal(bundle.y, whole.y[rows])
        assert np.array_equal(bundle.a_int, whole.a_int)
        assert (bundle.y is bundle.w) == spec.y_is_w
        first.append(bundle)
        assert np.shares_memory(bundle.w, first[0].w) and np.shares_memory(bundle.y, first[0].y)
        return [bundle.y[:, -1]]

    (y_end,) = paths.stream_paths(spec, grid, keys, reduce)
    assert done[0] == PATHS and np.array_equal(y_end, whole.y[:, -1])


@pytest.mark.parametrize("closed_form", [False, True], ids=["marched", "closed-form"])
def test_scheme_chunk_evaluates_coefficients_once(monkeypatch, closed_form):
    # a callable sigma and drift are evaluated on the grid once per chunk
    # (the left nodes for Y and a_int, the quadrature nodes of the exact
    # QV), however many blocks of paths the chunk is drawn in
    calls = []

    def counted(fn):
        return lambda t: calls.append(t) or fn(t)

    drv = paths.DriverSpec(dim_d=2, dim_m=1,
                           sigma=counted(lambda t: np.array([[1.0 + t], [0.0]])),
                           drift=counted(lambda t: np.array([0.5 * t, 1.0])), label="timed")
    ou = model.make_ou()
    cf = model.make_gbm_drift().closed_form if closed_form else None
    prob = model.SdeProblem(field=ou.field, driver=drv, x0=ou.x0, closed_form=cf, label="timed")
    counts = []
    for block_bytes in (1, paths.BLOCK_BYTES):
        monkeypatch.setattr(paths, "BLOCK_BYTES", block_bytes)
        calls.clear()
        montecarlo.scheme_error_samples(prob, "milstein", (2, 4, 8), PATHS, FINE // 8, 5)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_only_the_streamers_and_u_read_rows_per_block():
    # block_rows patches rows_per_block in paths (stream_cells and the rate
    # chunk's stream_paths) and limits (the time-sliced U pass and the
    # noise blocks it walks); a pass that looked it up elsewhere would
    # run unpatched, so the block tests here could not see its blocks
    src = pathlib.Path(paths.__file__).parent
    readers = sorted(f.stem for f in src.glob("*.py") if "rows_per_block" in f.read_text())
    assert readers == ["limits", "paths"]


def _gbm_with_bad_nodes():
    # gbm's closed form made +inf at fine node 5 where W_5 > 0.4 and NaN at
    # node 7 where W_7 < 0: both sit between the kept nodes of every = 4
    # and 8, so only a check of every fine node flags them
    gbm = model.make_gbm()

    def cf(w, y, t):
        out = gbm.closed_form(w, y, t)
        w = w[..., 0]
        out[(w > 0.4) & (t == 5 / FINE)] = np.inf
        out[(w < 0.0) & (t == 7 / FINE)] = np.nan
        return out

    return model.SdeProblem(field=gbm.field, driver=gbm.driver, x0=gbm.x0, closed_form=cf,
                            label="gbm-bad-nodes")


REFERENCE_CASES = {"gbm": model.make_gbm, "gbm-drift": model.make_gbm_drift,
                   "det-exp": model.make_det_exp, "bad-nodes": _gbm_with_bad_nodes}


def _whole_flags(values):
    return ~np.all(np.abs(values) <= model.DIVERGENCE_LIMIT, axis=(1, 2))


def _blocks_of_paths(prob, reduce):
    """``reduce(bundle)`` on each block of paths that a rate chunk of the
    driver paths of seed 5 draws, as :func:`paths.stream_paths` hands them."""
    keys = rng.philox_keys(5, rng.DRIVER_W, range(PATHS), 1)
    return paths.stream_paths(prob.driver, paths.make_grid(COARSE, FINE // COARSE), keys,
                              lambda bundle, space: reduce(bundle))


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_reference_keeps_every_kth_node(block_rows, case):
    # the closed form, evaluated whole on each block of paths a rate chunk
    # draws and thinned, against the whole-bundle closed form and its flags
    # on every fine node
    prob = REFERENCE_CASES[case]()
    bundle = paths.simulate_bundle(prob.driver, paths.make_grid(COARSE, FINE // COARSE), 5,
                                   range(PATHS))
    whole = np.asarray(prob.closed_form(bundle.w, bundle.y, bundle.grid.times()), dtype=float)
    diverged = _whole_flags(whole)
    if case == "bad-nodes":
        w = bundle.w[..., 0]
        inf, nan = w[:, 5] > 0.4, w[:, 7] < 0.0
        assert inf.any() and (nan & ~inf).any() and not (inf | nan).all()
        assert np.array_equal(diverged, inf | nan)
    for every in (1, 4, COARSE, FINE):
        def reduce(blk):
            ref = schemes.reference(prob, blk, every=every)
            assert ref.values.shape == (blk.n_paths, FINE // every + 1, 1)
            assert ref.coarse_n == FINE // every
            return ref.values, ref.diverged

        values, flags = _blocks_of_paths(prob, reduce)
        assert np.array_equal(values, whole[:, ::every], equal_nan=True)
        assert np.array_equal(flags, diverged)


@pytest.mark.parametrize("every", [1, 4, FINE])
def test_closed_form_reference_values_own_their_memory(every):
    # the kept nodes are copied out of the closed form's whole-node array, so
    # a caller that keeps the values does not keep every fine node with them
    prob = model.make_gbm_drift()
    bundle = paths.simulate_bundle(prob.driver, paths.make_grid(COARSE, FINE // COARSE), 5,
                                   range(PATHS))
    values = schemes.reference(prob, bundle, every=every).values
    assert values.base is None and values.flags.owndata


def _squared_noise():
    # dX = X^2 dW from 2 has no closed form and leaves the band at fine
    # node 19 on path 0 and 9 on path 1 of the seed below; the rest stay
    fld = model.scalar_field(lambda x: x ** 2, lambda x: 2 * x, lambda x: 2 + 0 * x)
    return model.SdeProblem(field=fld, driver=paths.brownian_motion_driver(1), x0=2.0,
                            label="squared-noise")


def test_reference_without_closed_form_keeps_every_kth_node():
    # ou has no closed form: Milstein on every fine cell, flagged there and
    # thinned after
    prob = model.make_ou()
    bundle = paths.simulate_bundle(prob.driver, paths.make_grid(COARSE, FINE // COARSE), 5,
                                   range(PATHS))
    full = schemes.milstein(prob, bundle, FINE)
    assert not full.diverged.any()
    for every in (1, 4, COARSE, FINE):
        ref = schemes.reference(prob, bundle, every=every)
        assert np.array_equal(ref.values, full.values[:, ::every])
        assert np.array_equal(ref.diverged, full.diverged)


@pytest.mark.parametrize("make", [model.make_ou, _squared_noise], ids=["ou", "squared-noise"])
def test_marched_reference_walks_blocks_of_cells(block_rows, make):
    # no closed form: the reference marches every fine cell, forming each
    # cell's K from its dY, flagged there and thinned after, against one
    # Milstein march over the grid on the sub-grid K that iterated_integrals
    # forms over blocks of paths, with the paths that leave the band.  A
    # scalar Milstein would form its K from dY too, so it is handed that K
    prob = make()
    bundle = paths.simulate_bundle(prob.driver, paths.make_grid(COARSE, FINE // COARSE), 5,
                                   range(PATHS))
    with np.errstate(all="ignore"):
        full = schemes.milstein(prob, bundle, FINE, kmat=schemes.iterated_integrals(bundle, FINE))
        if prob.label == "squared-noise":
            assert full.diverged.tolist() == [True, True] + [False] * (PATHS - 2)
        for every in (1, 4, COARSE, FINE):
            ref = schemes.reference(prob, bundle, every=every)
            assert np.array_equal(ref.values, full.values[:, ::every], equal_nan=True)
            assert np.array_equal(ref.diverged, full.diverged)


@pytest.mark.parametrize("case,timed", CASES, ids=IDS)
def test_marched_reference_k_is_the_one_sub_cell_k(monkeypatch, case, timed):
    # the K the marched reference forms from each cell's dY is K of a cell of
    # one sub-cell, as iterated_integrals forms it on a fine-factor-1 grid,
    # on all cells and on a slice of them
    prob = _problem(case, timed)
    bundle = paths.simulate_bundle(prob.driver, paths.make_grid(FINE, 1), 5, range(PATHS))
    whole = schemes.iterated_integrals(bundle, FINE)
    dy = np.diff(bundle.y, axis=1)
    k_ats, step = [], schemes._milstein_step
    monkeypatch.setattr(schemes, "_milstein_step",
                        lambda fld, k_at: k_ats.append(k_at) or step(fld, k_at))
    for cells in (slice(0, FINE), slice(11, 40)):
        schemes.reference(prob, bundle, cells=cells)
        got = np.stack([k_ats[-1](dy[:, cells.start + k], k)
                        for k in range(cells.stop - cells.start)], axis=1)
        assert np.array_equal(got, whole[:, cells])


def _walk_cells(prob, bundle):
    """The reference on ``bundle`` walked in slices of the cells, each call
    started from the last values of the one before, checked node for node
    and flag for flag against the whole-grid reference; returns the flags."""
    whole = schemes.reference(prob, bundle)
    x, values, diverged = None, [], np.zeros(bundle.n_paths, dtype=bool)
    for cells in (slice(0, 8), slice(8, 11), slice(11, 12), slice(12, FINE)):
        ref = schemes.reference(prob, bundle, cells=cells, x=x)
        assert ref.values.shape == (bundle.n_paths, cells.stop - cells.start + 1,
                                    prob.field.dim_q)
        assert ref.coarse_n == cells.stop - cells.start
        x = ref.values[:, -1]
        values.append(ref.values[:, :-1])
        diverged |= ref.diverged
    values.append(x[:, None])
    assert np.array_equal(np.concatenate(values, axis=1), whole.values, equal_nan=True)
    assert np.array_equal(diverged, whole.diverged)
    return diverged


@pytest.mark.parametrize("case", ["gbm", "bad-nodes", "ou", "field2-callable"])
def test_reference_walks_blocks_of_cells(block_rows, case):
    # slices of the cells, each started from the last values of the one
    # before, give the whole-grid reference node for node, with its flags:
    # the closed form on each slice of each block of paths a rate chunk
    # draws, or Milstein chained through x as the limit side walks its time
    # blocks, which is also one Milstein march whose K is formed over blocks
    # of paths
    if case in REFERENCE_CASES:
        prob = REFERENCE_CASES[case]()
        (diverged,) = _blocks_of_paths(prob, lambda blk: (_walk_cells(prob, blk),))
        if case == "bad-nodes":
            assert 0 < diverged.sum() < PATHS
        return
    prob = _problem("field2", True) if case == "field2-callable" else model.make_ou()
    bundle = paths.simulate_bundle(prob.driver, paths.make_grid(COARSE, FINE // COARSE), 5,
                                   range(PATHS))
    _walk_cells(prob, bundle)
    full = schemes.milstein(prob, bundle, FINE)
    whole = schemes.reference(prob, bundle)
    assert np.array_equal(whole.values, full.values)
    assert np.array_equal(whole.diverged, full.diverged)


def test_reference_rejects_a_step_that_does_not_divide_the_grid():
    prob = model.make_gbm()
    bundle = paths.simulate_bundle(prob.driver, paths.make_grid(COARSE, FINE // COARSE), 5,
                                   range(2))
    with pytest.raises(ValueError, match="does not divide"):
        schemes.reference(prob, bundle, every=3)


def _limit_inputs(prob):
    grid = paths.Grid(FINE, 1)
    dw = paths.brownian_family(grid, 9, np.arange(PATHS), rng.LIMIT_W, width=prob.driver.dim_m)
    aux = limits.sample_aux(grid, prob.driver.dim_m, 9, range(PATHS))
    return grid, dw, aux


@pytest.mark.parametrize("case,timed", CASES, ids=IDS)
def test_simulate_mn(block_rows, case, timed):
    # dM and dN of each block of time steps (sized by block_rows through
    # limits.rows_per_block), as simulate_u asks for them, against the same
    # steps of the whole-grid increments: sigma is read at the block's nodes
    prob = _problem(case, timed)
    _, dw, aux = _limit_inputs(prob)
    whole = mn_whole(prob.driver, dw, aux)
    rows = limits.rows_per_block(FINE, 1)
    for blk in (slice(s, min(s + rows, FINE)) for s in range(0, FINE, rows)):
        for got, want in zip(limits.simulate_mn(prob.driver, dw[:, blk], aux.steps(blk)),
                             whole):
            assert got.shape == want[:, blk].shape and np.array_equal(got, want[:, blk])


# the shapes of CASES, all marched (no closed form), and two closed forms:
# gbm, whose Y is its W, and the (W, t) embedding with a drift
U_CASES = {**{i: (lambda c=c, t=t: _problem(c, t)) for i, (c, t) in zip(IDS, CASES)},
           "gbm-closed-form": model.make_gbm, "gbm-drift-closed-form": model.make_gbm_drift}


@pytest.mark.parametrize("case", U_CASES)
def test_simulate_u(block_rows, monkeypatch, case):
    # the reference, dY, dW, dM and dN formed (and dN drift-corrected) one
    # time block at a time, against the whole-grid reference, np.diff of the
    # paths, whole-size dM/dN, the whole-grid drift correction and the
    # whole-array integrator; and the chunk's noise drawn in time blocks of
    # one step each, which cut U's blocks short, against its whole-grid draw
    prob = U_CASES[case]()
    grid = paths.Grid(FINE, 1)
    bundle = paths.simulate_bundle(prob.driver, grid, 9, range(PATHS), component=rng.LIMIT_W)
    aux = limits.sample_aux(grid, prob.driver.dim_m, 9, range(PATHS))
    dm, dn = mn_whole(prob.driver, np.diff(bundle.w, axis=1), aux)
    dn = limits.drift_correct(dn, prob.driver, grid.times())
    x_ref = schemes.reference(prob, bundle).values
    got = limits.simulate_u(prob, [(bundle, aux)])
    want = u_whole(prob, x_ref, np.diff(bundle.y, axis=1), dm, dn)
    assert got.shape == (PATHS, prob.field.dim_q) and np.array_equal(got, want)
    monkeypatch.setattr(paths, "NOISE_BYTES", 1)
    assert np.array_equal(limits.draw_error_limit(prob, 9, range(PATHS), FINE)[1], got)


@pytest.mark.parametrize("name", ["gbm", "gbm-drift"])
def test_u_without_n_equals_u_with_it(block_rows, name):
    # an affine field's chunk forms no N unless its fingerprints are read:
    # U skips the term 0 dN, in blocks of U's steps of its own (smaller)
    # size, and is the same bit for bit as when N is formed and added
    prob = model.get_model(name)
    plain = limits.limit_samples(prob, 9, PATHS, FINE)
    u_end, _ = limits.limit_samples(prob, 9, PATHS, FINE, fingerprints=True)
    assert np.array_equal(plain[0], u_end)


def oracle_whole(case, n, fine_factor, n_paths, seed):
    """Per-path samples of an oracle case in row order, each chunk statistic
    formed over all paths at once from the channel-last cell split."""
    grid = paths.Grid(n, fine_factor)
    idx = np.arange(n_paths)
    trapz = oracles._trapz_cells
    if case == "7.6":
        cells = crosscheck.cell_split(paths.brownian_family(grid, seed, idx, rng.DRIVER_W), n)
        scale = np.array([n ** 2, n ** 2, n ** 2, n, n], dtype=float)
        mm, nn, nm, nw, mw = (scale * stats.fingerprints(stats.dm(cells), stats.dn(cells),
                                                         cells[0])).T
        return [nn, mm, nm, nw, mw]
    if case == "7.7-80":
        nodes = crosscheck.cell_split(paths.brownian_family(grid, seed, idx, rng.ORACLE), n)[1]
        return [n * trapz(nodes[:, :, 1:, 0] ** 2)]
    if case == "null":
        r, dt = fine_factor, grid.fine_dt
        tau_left, tau_nodes = np.arange(r) * dt, np.arange(1, r + 1) * dt
        dyc, disp = crosscheck.cell_split(
            paths.brownian_family(grid, seed, idx, rng.ORACLE, channels=2), n)
        dw, db = dyc[..., 0], dyc[..., 1]
        w_left, w_nodes = disp[:, :, :-1, 0], disp[:, :, 1:, 0]
        inner_wb = paths.running_sum(w_left * db, axis=2)
        inner_aw = paths.running_sum(tau_left * dw, axis=2)
        return [n * (w_left * tau_left * db).sum(axis=(1, 2)),
                n * trapz(w_nodes * tau_nodes),
                n * trapz(inner_wb[:, :, 1:]),
                n * (inner_aw[:, :, :-1] * db).sum(axis=(1, 2)),
                n * trapz(inner_aw[:, :, 1:])]
    dyc, disp = crosscheck.cell_split(
        paths.brownian_family(grid, seed, idx, rng.ORACLE, channels=4), n)

    def inner(u, v):
        return paths.running_sum(disp[:, :, :-1, u] * dyc[..., v], axis=2)[:, :, 1:]

    # the statistics of the sub-cases of a family id or of one sub-case id
    specs = [("quartic", combo) for c, (combo, _) in oracles._QUARTIC_CASES.items()
             if c.startswith(case)]
    specs += [(kind, combo) for c, nested in oracles._NESTED_CASES.items()
              if c.startswith(case) for kind, combo, _ in nested]
    nodes, out = disp[:, :, 1:], []
    for kind, (w, b, u, v) in specs:
        if kind == "quartic":
            prod = nodes[..., w] * nodes[..., b] * nodes[..., u] * nodes[..., v]
        elif kind == "inner_product":
            prod = inner(w, b) * inner(u, v)
        else:
            prod = nodes[..., w] * nodes[..., b] * inner(u, v)
        out.append(n ** 2 * trapz(prod))
    return out


ORACLE_CASES = ("7.3", "7.3d", "7.4", "7.4a", "7.6", "7.7-80", "null")


@pytest.mark.parametrize("n_paths", [PATHS, 2], ids=["paths-7", "paths-2"])
@pytest.mark.parametrize("case", ORACLE_CASES)
def test_oracle_blocks(block_rows, case, n_paths):
    # 2 paths are fewer than one block of three
    n, fine_factor, seed = COARSE, 4, 13
    rows = oracles.run_case(case, n=n, paths=n_paths, fine_factor=fine_factor, seed=seed)
    samples = oracle_whole(case, n, fine_factor, n_paths, seed)
    assert len(rows) == len(samples)
    for row, sample in zip(rows, samples):
        assert row.estimate == float(sample.mean())
        assert row.se == float(sample.std(ddof=1) / math.sqrt(n_paths))

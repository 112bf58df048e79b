"""Solvers on a path bundle: Euler, Milstein and reference solutions.

A scheme is its step x_{k+1} = step(x_k, dY_k, k), run by one coarse loop
(:func:`_march`).  Milstein's step is Euler's plus the correction
sum_{ab} h^i_{ba} K_{ab} per cell; the Ito form writes it out term by term.

In the correction h^i = (Df^i)^T f, and K_{ab} integrates the within-cell
displacement of driver component a against the increments of component b.
Its symmetric part is exactly (dY dY^T - cell QV)/2, from the driver's
deterministic quadratic variation, so a cell with no Levy area, a scalar
driver's or one of one sub-cell, forms K from its own dY inside the step
(:func:`_own_k`; for Brownian noise ((dW)^2 - dt)/2).  Only a d > 1
driver's cell (:func:`has_levy_area`) reads the sub-grid K, the sum
:func:`stats.k_fine` with its symmetric part replaced by that identity.
A rate run builds that K once per bundle, at the base level lcm(n_list),
and folds it to each coarser n with Chen's identity
(:func:`fold_iterated_integrals`), so the fine sub-grid is summed once, not
once per n.  Both run in :func:`paths.stream_cells`, which differences and
splits one cache block of paths at a time, so the fine increments and their
cell split never exist at full size.  A rate chunk forms the base K one
block of paths of its fine bundle at a time, with the base cells' exact QV
given once; the fold and every level then read only a base-grid bundle,
the driver at the base nodes.

The reference (:func:`reference`) is checked for divergence at every fine
node but kept only at the nodes a caller reads; a rate run keeps the base
grid's, which every level's grid is a subset of.  A closed form is
evaluated whole on the paths and nodes it is handed, so a rate chunk
evaluates it on each block of paths it draws.  Without one the reference
is Milstein on every fine cell, one :func:`_march` whose step forms each
cell's K from its own dY, since a cell of one sub-cell has no Levy area.
It runs on all fine cells or on one block of them from a given state, so
the limit side walks the grid one time block at a time.
"""

from dataclasses import dataclass

import numpy as np

from . import stats
from .model import DIVERGENCE_LIMIT, SdeProblem, correction_pairing
from .paths import PathBundle, Workspace, cell_size, stream_cells


@dataclass(frozen=True)
class SchemeOutput:
    values: np.ndarray  # (n_paths, n_times, q)
    coarse_n: int
    diverged: np.ndarray  # (n_paths,) bool

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]


def _flag_divergence(values: np.ndarray) -> np.ndarray:
    """The paths of ``values``, (n_paths, nodes, q), with a value outside the band."""
    # NaN and +-inf fail a comparison, so the band check flags them with the
    # overflow; two boolean passes, no float copy of the values
    ok = values <= DIVERGENCE_LIMIT
    ok &= values >= -DIVERGENCE_LIMIT
    return ~ok.all(axis=(1, 2))


def _channel_last(src: np.ndarray, work: np.ndarray) -> np.ndarray:
    """``src``, (d, ...) channel-major, as a (..., d) matmul operand.

    A matmul's rounding follows the layout of its left operand, and one on
    two views of a buffer runs as a syrk, slower than a gemm; so ``src`` is
    copied to the d work slots in the whole-array layout."""
    d = src.shape[0]
    out = work.reshape(*src.shape[1:], d)
    for c in range(d):  # a channel at a time: a gather along d goes element by element
        out[..., c] = src[c]
    return out


def _k_block(dyc: np.ndarray, disp: np.ndarray, work: np.ndarray) -> np.ndarray:
    """:func:`stats.k_fine` of a :func:`paths.stream_cells` block."""
    return stats.k_fine((np.moveaxis(dyc, 0, -1), _channel_last(disp[..., :-1], work)))


def _increments(y: np.ndarray, step: int):
    """The :func:`paths.stream_cells` fill of the driver's moves over every ``step`` fine cells."""
    def fill(blk, out):
        for c in range(y.shape[2]):
            np.subtract(y[blk, step::step, c], y[blk, :-step:step, c], out=out[..., c])
    return fill


def iterated_integrals(bundle: PathBundle, coarse_n: int, qv_exact: np.ndarray = None,
                       space: Workspace = None) -> np.ndarray:
    """Per-cell iterated-integral matrices K, shape (n_paths, coarse_n, d, d).

    ``qv_exact`` is the driver's exact QV per cell,
    ``bundle.driver.cell_qv`` of the cells' edges; it is formed here when not
    given.  A caller that runs many blocks of paths forms it once and passes
    one :class:`paths.Workspace` for the streamer's buffers.
    """
    if qv_exact is None:
        qv_exact = bundle.driver.cell_qv(np.arange(coarse_n + 1) / coarse_n)

    def reduce(dyc, disp, work):
        kmat = _k_block(dyc, disp, work)  # K is formed before the QV reuses its work slots
        qv = np.swapaxes(_channel_last(dyc, work), -1, -2) @ np.moveaxis(dyc, 0, -1)
        qv -= qv_exact
        qv *= 0.5
        kmat += qv
        return (kmat,)

    y = bundle.y
    d = y.shape[2]
    # the reduce owns K and its QV, d^2 floats per cell each
    return stream_cells(len(y), y.shape[1] - 1, coarse_n, d, _increments(y, 1), reduce,
                        slots=d, own_cells=2 * d * d, space=space)[0]


def fold_iterated_integrals(bundle: PathBundle, kbase: np.ndarray, coarse_n: int) -> np.ndarray:
    """K on ``coarse_n`` cells from K on a finer base grid that it divides.

    Chen's identity for left-point sums: a coarse cell's K is the sum of its
    base cells' K_j plus the left-point sum of the driver over the base
    grid, sum_j S_j (x) dY_j with S_j the move before base cell j.  The base
    cells' exact QV is then swapped for the coarse cell's, so the result
    equals :func:`iterated_integrals` at ``coarse_n`` up to rounding.  The
    cost is O(n_paths * base * d^2), with no sub-grid pass.  The base cells
    are summed by m - 1 whole-array adds, in sequence.
    """
    n_paths, base, d = kbase.shape[:3]
    m = cell_size(base, coarse_n)
    (kmat,) = stream_cells(n_paths, base, coarse_n, d,
                           _increments(bundle.y, cell_size(bundle.grid.fine_count, base)),
                           lambda dyc, disp, work: (_k_block(dyc, disp, work),), slots=d)
    cells = kbase.reshape(n_paths, coarse_n, m, d, d)
    ksum = cells[:, :, 0].copy()
    for j in range(1, m):
        ksum += cells[:, :, j]
    kmat += ksum
    qv_base = bundle.driver.cell_qv(np.arange(base + 1) / base)
    qv_coarse = bundle.driver.cell_qv(np.arange(coarse_n + 1) / coarse_n)
    kmat += 0.5 * (qv_base.reshape(coarse_n, m, d, d).sum(axis=1) - qv_coarse)
    return kmat


def _march(x0, y: np.ndarray, coarse_n: int, step, every: int = 1) -> SchemeOutput:
    """Run ``x = step(x, dy, k)`` from ``x0`` over ``coarse_n`` cells of the nodes of ``y``.

    ``x0`` is the start state, (q,) or one per path (n_paths, q); ``x`` is
    (n_paths, q) and ``dy`` the driver's move over cell k, (n_paths, d).
    Every ``every``-th node is kept; ``every`` must divide ``coarse_n``.  A
    path that leaves the band at any node, kept or not, is flagged, never
    raised.
    """
    r = cell_size(y.shape[1] - 1, coarse_n)
    kept = cell_size(coarse_n, every)
    B, q = len(y), np.shape(x0)[-1]
    out = np.empty((B, kept + 1, q))
    x = np.broadcast_to(x0, (B, q)).copy()
    out[:, 0] = x
    # the band check on a running max of |x|: np.maximum keeps a NaN once seen
    peak = np.abs(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(coarse_n):
            x = step(x, y[:, (k + 1) * r] - y[:, k * r], k)
            np.maximum(peak, np.abs(x), out=peak)
            if (k + 1) % every == 0:
                out[:, (k + 1) // every] = x
    diverged = ~(peak <= DIVERGENCE_LIMIT).all(axis=1)
    return SchemeOutput(out, kept, diverged)


def euler(problem: SdeProblem, bundle: PathBundle, coarse_n: int) -> SchemeOutput:
    """Euler scheme X_{k+1} = X_k + f(X_k)(Y_{k+1} - Y_k) on the coarse grid."""
    f_at = problem.field.f_at
    return _march(problem.x0, bundle.y, coarse_n,
                  lambda x, dy, k: x + np.einsum("bqd,bd->bq", f_at(x), dy))


def milstein(problem: SdeProblem, bundle: PathBundle, coarse_n: int,
             kmat: np.ndarray = None) -> SchemeOutput:
    """Second-order scheme: the Euler step plus the correction sum h K.

    ``kmat`` is K on the ``coarse_n`` cells.  When it is not given, it is
    computed from the sub-grid for a driver with a Levy area, and any other
    driver's step forms each cell's K from its own dY (:func:`_own_k`).
    """
    if kmat is None and has_levy_area(bundle.driver):
        kmat = iterated_integrals(bundle, coarse_n)
    k_at = (_own_k(bundle.driver.cell_qv(np.arange(coarse_n + 1) / coarse_n))
            if kmat is None else lambda dy, k: kmat[:, k])
    return _march(problem.x0, bundle.y, coarse_n, _milstein_step(problem.field, k_at))


def has_levy_area(driver) -> bool:
    """Whether a cell of ``driver`` can carry a Levy area, so that its K needs the sub-grid."""
    return driver.dim_d > 1


def _own_k(qv: np.ndarray):
    """``k_at(dy, k)``: cell k's K = (dY dY^T - QV)/2, exact with no Levy area; ``qv`` per cell."""
    def k_at(dy, k):
        kk = dy[:, :, None] * dy[:, None, :]
        kk -= qv[k]
        kk *= 0.5
        return kk
    return k_at


def _milstein_step(fld, k_at):
    """Milstein's step with cell k's K, (n_paths, d, d), given by ``k_at(dy, k)``."""
    def step(x, dy, k):
        f = fld.f_at(x)
        return x + np.einsum("bqd,bd->bq", f, dy) \
                 + np.einsum("biac,bca->bi", correction_pairing(fld, x, f), k_at(dy, k))

    return step


def has_ito_embedding(problem: SdeProblem) -> bool:
    """Whether ``problem`` is dX = a(X) dW + b(X) dt on the (W, t) driver pair."""
    drv = problem.driver
    return (problem.field.dim_q == 1 and drv.dim_d == 2 and drv.dim_m == 1
            and not callable(drv.sigma) and not callable(drv.drift)
            and drv.drift is not None
            and np.array_equal(np.asarray(drv.sigma, dtype=float), [[1.0], [0.0]])
            and np.array_equal(np.asarray(drv.drift, dtype=float), [0.0, 1.0]))


def milstein_ito54(problem: SdeProblem, bundle: PathBundle, coarse_n: int,
                   kmat: np.ndarray = None) -> SchemeOutput:
    """Milstein step for dX = a(X) dW + b(X) dt, written out term by term.

    X_{k+1} = X_k + a dW + b dt + a a' K_WW + a b' K_Wt + a' b K_tW
                  + b b' K_tt, with the same per-cell K matrix used by
    :func:`milstein`, so the two agree to rounding error on shared bundles.
    ``kmat`` is as in :func:`milstein`.
    """
    if not has_ito_embedding(problem):
        raise ValueError("this scheme needs the (W, t) embedding with f = (a(x), b(x))")
    if kmat is None:
        kmat = iterated_integrals(bundle, coarse_n)
    fld = problem.field

    def step(x, dy, k):
        f, df = fld.f_at(x), fld.df_at(x)
        a, b = f[:, 0, 0], f[:, 0, 1]
        da, db = df[:, 0, 0, 0], df[:, 0, 0, 1]
        kc, x = kmat[:, k], x[:, 0]
        return (x + a * dy[:, 0] + b * dy[:, 1]
                + a * da * kc[:, 0, 0] + a * db * kc[:, 0, 1]
                + da * b * kc[:, 1, 0] + b * db * kc[:, 1, 1])[:, None]

    return _march(problem.x0, bundle.y, coarse_n, step)


def reference(problem: SdeProblem, bundle: PathBundle, every: int = 1,
              cells: slice = None, x: np.ndarray = None) -> SchemeOutput:
    """Fine-grid stand-in for the exact solution, kept at every ``every``-th fine node.

    ``cells`` is a slice of the fine cells with its start and stop given,
    all of the bundle's by default; the solution runs over its nodes,
    ``cells.start`` to ``cells.stop``, which a bundle of one time block
    holds from its ``start`` on.  The closed form is used when the model has one,
    evaluated in one piece on those nodes of every path of the bundle, which
    a caller hands it one block of paths at a time.  Otherwise the
    second-order scheme is run with every fine cell as its own step, which
    carries O(1/fine_count) error of its own, from the states ``x`` at node
    ``cells.start`` (x0 when not given): one :func:`_march` whose step forms
    each cell's K from that cell's dY (:func:`_own_k`), so no K of many
    cells is held.  A caller may walk the grid in blocks of cells,
    passing each call's last values as the next call's ``x``, with the same
    bits.  Either way the divergence check reads every node, while
    ``values`` hold only the len(cells) / every + 1 kept nodes (``coarse_n``
    of them cells).  ``every`` must divide len(cells).
    """
    if cells is None:
        cells = bundle.cells
    count = cells.stop - cells.start
    kept = cell_size(count, every)
    times = bundle.grid.times(slice(cells.start, cells.stop + 1))
    nodes = bundle.nodes(cells)
    if problem.closed_form is None:
        step = _milstein_step(problem.field, _own_k(bundle.driver.cell_qv(times)))
        return _march(problem.x0 if x is None else x, bundle.y[:, nodes], count, step, every)
    full = np.asarray(problem.closed_form(bundle.w[:, nodes], bundle.y[:, nodes], times),
                      dtype=float)
    # the kept nodes copied, so that the values hold no more than they keep
    return SchemeOutput(full[:, ::every].copy(), kept, _flag_divergence(full))

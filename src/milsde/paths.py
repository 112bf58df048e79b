"""Driving paths on a nested pair of grids.

The unit interval is split into ``coarse_n`` cells, each refined into
``fine_factor`` sub-cells.  All stochastic integrals in the package are
left-point sums over the fine grid, with integrands anchored at the coarse
cell containing each fine cell.  At a coarse grid point the anchor jumps
back a full coarse cell (left-open convention), so the anchor of the point
``t_k`` equals the anchor of the fine cell ending at ``t_k``.

Paths are generated per path index from splittable streams; a path's values
depend only on (master_seed, path_index), never on batch composition.

Every driver path is drawn and assembled by one step, :func:`_draw`: the
increments drawn into W's nodes, summed in place and turned into Y by
:func:`build_driver`, the one assembly of Y = int sigma dW + int a ds.  It
makes a whole batch (:func:`simulate_bundle`), a block of paths
(:func:`stream_paths`) and a block of time (:func:`stream_times`).

Vectorized passes over the fine grid run in blocks of rows (paths or time
steps), each block as many rows as :func:`rows_per_block` fits in
``BLOCK_BYTES``, so no full-size temporary is built.  A rate chunk draws,
assembles and reduces its driver paths one block of paths at a time
(:func:`stream_paths`, which forms the coefficients every block shares
once and draws into a :class:`Workspace` of buffers every block reuses),
so its fine paths never exist whole; a closed-form reference solution is
evaluated on each block it draws.  Every pass over the cells of a coarse
grid (K, its fold and the oracle cases) is a :func:`stream_cells` over
blocks of paths; a marched reference, which recurs in time, forms one
cell's K at a time and needs no block.  U runs in blocks of time, and so
do the reference, dY and dW it reads.  A limit chunk draws its driver
paths one time block at a time (:func:`stream_times`), each block's noise
about ``NOISE_BYTES``: its streams are drawn on from where the last block
stopped and its running sums carried from the last block's last node, so
a bundle of one time block (``PathBundle.start``) holds the bits of the
same nodes of the whole batch.  A block bounds memory only: no result
depends on it.
"""

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng

MAX_FINE_COUNT = 1 << 26  # allocation guard for index arithmetic and arrays
DEFAULT_CHUNK = 1000  # path indices per chunk of :func:`over_chunks`
MAX_THREADS = 64  # most worker threads the CLI accepts (--threads), a config check
BLOCK_BYTES = 1 << 21  # working set of one block of rows (:func:`rows_per_block`)
# noise that a chunk of limit draws holds at once, which sets the length of
# the time blocks it is drawn in (:func:`stream_times`): a memory bound, not a setting
NOISE_BYTES = 1 << 24
# longest cell that :func:`stream_cells` scans by whole-block adds: at its
# block sizes the adds take 0.14-0.99x numpy's cumsum time for r = 2..16 and
# 1.1-1.8x for r = 32..64 (2-vCPU Xeon, numpy 2.4), a crossover, not a setting
SCAN_ADDS = 16


@dataclass(frozen=True)
class Grid:
    """Coarse/fine subdivision of the fixed horizon [0, 1]."""

    coarse_n: int
    fine_factor: int

    def __post_init__(self):
        if self.coarse_n < 1 or self.fine_factor < 1:
            raise ValueError("coarse_n and fine_factor must be >= 1")
        if self.coarse_n * self.fine_factor > MAX_FINE_COUNT:
            raise ValueError(f"grid of {self.coarse_n}x{self.fine_factor} cells is too large")

    @property
    def fine_count(self) -> int:
        return self.coarse_n * self.fine_factor

    @property
    def fine_dt(self) -> float:
        return 1.0 / self.fine_count

    def times(self, nodes: slice = slice(None)) -> np.ndarray:
        """The fine nodes ``nodes`` (all of them by default) as times."""
        # k/fine_count from index arithmetic; never an accumulated float sum
        return np.arange(*nodes.indices(self.fine_count + 1)) / self.fine_count


def make_grid(coarse_n: int, fine_factor: int) -> Grid:
    return Grid(int(coarse_n), int(fine_factor))


def cell_size(fine_count: int, coarse_n: int) -> int:
    """Fine cells per coarse cell; ``coarse_n`` must divide ``fine_count``."""
    if coarse_n < 1 or fine_count % coarse_n:
        raise ValueError(f"coarse_n={coarse_n} does not divide the fine grid of {fine_count}")
    return fine_count // coarse_n


def running_sum(inc: np.ndarray, axis: int = 1) -> np.ndarray:
    """Zero-started cumulative sum of ``inc`` along ``axis``.

    The result has one more entry than ``inc`` along ``axis``; entry 0 is
    zero and entry k is the sum of the first k increments.
    """
    axis = axis % inc.ndim
    shape = list(inc.shape)
    shape[axis] += 1
    out = np.empty(shape)
    lead = (slice(None),) * axis
    out[lead + (0,)] = 0.0
    np.cumsum(inc, axis=axis, out=out[lead + (slice(1, None),)])
    return out


def _sum_on(nodes: np.ndarray, start: int, axis: int = 1) -> np.ndarray:
    """Sum the increments in nodes 1.. of ``nodes`` along ``axis`` onto node 0, in place.

    Node 0 holds the last block's last node; at the grid's start (``start``
    0) it is 0, and node 1 stays the first increment, as in
    :func:`running_sum`.  One cumsum adds in sequence, so a sum carried
    across blocks has the bits of one over the whole grid; a cumsum and
    then an added carry would not.
    """
    part = nodes[(slice(None),) * axis + (slice(0 if start else 1, None),)]
    np.cumsum(part, axis=axis, out=part)
    return nodes


def rows_per_block(count: int, row_bytes: int, budget: int = None) -> int:
    """Rows per block of a pass over ``count`` rows that hold ``row_bytes`` each.

    The most rows whose bytes fit in ``budget`` (``BLOCK_BYTES`` when None),
    at least one and at most all ``count`` rows; the blocks are
    ``range(0, count, rows)``.
    """
    if budget is None:
        budget = BLOCK_BYTES
    return min(count, max(1, budget // row_bytes))


class Workspace:
    """Float buffers a caller keeps across the blocks of a pass, one per name.

    A pass run once per block of paths asks for the same buffers every
    block; taken from here they are allocated once, at the largest size
    asked, and not paged in anew each block.  A workspace belongs to one
    thread, and a buffer to one pass at a time.
    """

    def __init__(self):
        self._buffers = {}

    def take(self, name: str, shape: tuple) -> np.ndarray:
        """An uninitialized contiguous array of ``shape``, the buffer ``name`` reused."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


def stream_cells(count: int, fine_count: int, coarse_n: int, channels: int, fill, reduce,
                 slots: int = 0, own: int = 0, own_cells: int = 0,
                 space: Workspace = None) -> tuple:
    """Fill, cell-split and reduce ``count`` rows one cache block at a time.

    ``fill(blk, out)`` writes the fine increments of rows ``blk`` to ``out``,
    (rows, fine_count, channels), a view of a reused channel-major buffer;
    ``reduce(dyc, disp, work)`` turns them into per-row arrays, which
    :func:`over_chunks` copies into their rows of the result.  ``dyc`` is
    (channels, rows, coarse_n, r), ``disp`` its running sum from 0 along
    each cell, r + 1 nodes, and ``work`` ``slots`` reused (rows, coarse_n, r)
    arrays, contiguous as one; with the ``own`` arrays of that size and the
    ``own_cells`` floats per row and cell that ``reduce`` allocates they size
    the block.  Up to ``SCAN_ADDS`` sub-cells the running sum is r
    whole-block copies and adds, else a cumsum along the cell; both add in
    sequence, so their bits are equal.  The buffers
    come from ``space`` when given, so a caller that streams many blocks of
    paths reuses them.
    """
    r = cell_size(fine_count, coarse_n)
    rows = rows_per_block(count, ((2 * channels + slots + own) * fine_count
                                  + (channels + own_cells) * coarse_n) * 8)
    take = (space or Workspace()).take
    inc = take("cells.inc", (channels, rows, fine_count))
    disp = take("cells.disp", (channels, rows, coarse_n, r + 1))
    disp[..., 0] = 0.0
    work = take("cells.work", (slots * rows * fine_count,))

    def block(idx):
        m = len(idx)
        fill(slice(idx[0], idx[0] + m), inc[:, :m].transpose(1, 2, 0))
        dyc = inc[:, :m].reshape(channels, m, coarse_n, r)
        nodes = disp[:, :m]
        if r <= SCAN_ADDS:  # the cumsum's own order: node 1 is a copy, not 0 + dy
            np.copyto(nodes[..., 1], dyc[..., 0])
            for j in range(1, r):
                np.add(nodes[..., j], dyc[..., j], out=nodes[..., j + 1])
        else:
            np.cumsum(dyc, axis=3, out=nodes[..., 1:])
        slot = work[:slots * m * fine_count].reshape(slots, m, coarse_n, r)
        return reduce(dyc, nodes, slot)

    return over_chunks(count, rows, block)


def over_chunks(total: int, chunk: int, chunk_fn, threads: int = 1) -> tuple:
    """Run ``chunk_fn`` over 0..total-1 in chunks of consecutive indices.

    ``chunk_fn(idx)`` returns arrays of ``len(idx)`` rows.  Each is copied
    into its rows of a result allocated at the first chunk, in index order,
    so nothing a chunk returns outlives it: its locals and any base a
    returned view pins are freed before the next chunk runs.  Memory peaks
    near one chunk per worker, and ``threads > 1`` runs that many chunks at
    once.
    """
    chunks = [np.arange(s, min(s + chunk, total)) for s in range(0, total, chunk)]
    outs = []

    def store(idx, part):
        if not outs:
            outs.extend(np.empty((total, *col.shape[1:]), dtype=col.dtype) for col in part)
        for out, col in zip(outs, part):
            out[idx[0]:idx[0] + len(idx)] = col

    if threads <= 1 or len(chunks) <= 1:
        for idx in chunks:
            store(idx, chunk_fn(idx))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for idx, part in zip(chunks, pool.map(chunk_fn, chunks)):
                store(idx, part)
    return tuple(outs)


def _coefficient_at(coef, times: np.ndarray, shape: tuple) -> np.ndarray:
    """A constant or callable coefficient at the given times, shape (T, *shape)."""
    times = np.asarray(times, dtype=float)
    if callable(coef):
        out = np.stack([np.asarray(coef(t), dtype=float) for t in times])
    else:
        out = np.broadcast_to(np.asarray(coef, dtype=float), (len(times), *shape)).copy()
    return out.reshape(len(times), *shape)


@functools.lru_cache
def _gauss_legendre(order: int) -> tuple:
    """Nodes and weights of the ``order``-node Gauss-Legendre rule on [-1, 1].

    Formed once per order: ``leggauss`` solves an eigenproblem per call, and
    importing ``numpy.polynomial`` at the first call, not the package's
    import, keeps it out of a run's start-up.
    """
    return np.polynomial.legendre.leggauss(order)


@dataclass(frozen=True)
class DriverSpec:
    """Driving semimartingale as coefficient data.

    ``sigma`` maps time to the (dim_d, dim_m) volatility matrix; ``drift``
    maps time to the dim_d drift vector.  Either may be given as a constant
    array, and ``drift`` may be None for a local martingale driver.  The
    instantaneous covariance is c_s = sigma_s sigma_s^T.
    """

    dim_d: int
    dim_m: int
    sigma: object  # ndarray (d, m) or callable s -> ndarray (d, m)
    drift: object = None  # None, ndarray (d,) or callable s -> ndarray (d,)
    label: str = ""

    def __post_init__(self):
        if self.dim_d < 1 or self.dim_m < 1:
            raise ValueError("driver dimensions must be >= 1")
        if not callable(self.sigma) and \
                np.asarray(self.sigma).shape != (self.dim_d, self.dim_m):
            raise ValueError(f"constant sigma must have shape ({self.dim_d}, {self.dim_m})")
        if self.drift is not None and not callable(self.drift) and \
                np.asarray(self.drift).shape != (self.dim_d,):
            raise ValueError(f"constant drift must have shape ({self.dim_d},)")
        s = self.sigma_at(np.linspace(0.0, 1.0, 17))
        if s.shape[1:] != (self.dim_d, self.dim_m):
            raise ValueError(f"sigma must produce ({self.dim_d}, {self.dim_m}) matrices")
        c = np.einsum("tim,tjm->tij", s, s)
        eig = np.linalg.eigvalsh(c)
        if eig.min() < -1e-12:
            raise ValueError("sigma sigma^T must be positive semidefinite")
        # integrability gates on [0,1], checked on a sample for deterministic
        # coefficients: int ||c||^3 ds and int ||a||^2 ds finite
        if not np.isfinite(np.linalg.norm(c, axis=(1, 2)) ** 3).all():
            raise ValueError("int ||c_s||^3 ds diverges on [0,1]")
        a = self.drift_at(np.linspace(0.0, 1.0, 17))
        if not np.isfinite(a).all():
            raise ValueError("int ||a_s||^2 ds diverges on [0,1]")

    @property
    def y_is_w(self) -> bool:
        """Whether the driver is its Brownian path W: a constant sigma = I and no drift."""
        return (not callable(self.sigma) and self.drift is None
                and np.array_equal(np.asarray(self.sigma, dtype=float), np.eye(self.dim_d)))

    def sigma_at(self, times: np.ndarray) -> np.ndarray:
        """Volatility matrices at the given times, shape (T, d, m)."""
        return _coefficient_at(self.sigma, times, (self.dim_d, self.dim_m))

    def drift_at(self, times: np.ndarray) -> np.ndarray:
        """Drift vectors at the given times, shape (T, d); zero without a drift."""
        return _coefficient_at(0.0 if self.drift is None else self.drift, times, (self.dim_d,))

    def c_at(self, times: np.ndarray) -> np.ndarray:
        s = self.sigma_at(times)
        return np.einsum("tim,tjm->tij", s, s)

    @property
    def has_drift(self) -> bool:
        if self.drift is None:
            return False
        if callable(self.drift):
            return True
        return bool(np.any(np.asarray(self.drift) != 0.0))

    def cell_qv(self, edges: np.ndarray) -> np.ndarray:
        """Exact quadratic variation of the martingale part per cell.

        Integrates c_s over each interval [edges[k], edges[k+1]] with an
        8-node Gauss-Legendre rule (exact for constant sigma, and for
        polynomial c of degree <= 15).  Shape (len(edges)-1, d, d).
        """
        edges = np.asarray(edges, dtype=float)
        nodes, weights = _gauss_legendre(8)
        lo, hi = edges[:-1], edges[1:]
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        qv = np.zeros((len(lo), self.dim_d, self.dim_d))
        for x, wgt in zip(nodes, weights):
            t = mid + half * x
            qv += wgt * half[:, None, None] * self.c_at(t)
        return qv


def brownian_motion_driver(dim: int = 1, label: str = "bm") -> DriverSpec:
    """Standard d-dimensional Brownian driver (sigma = identity, no drift)."""
    return DriverSpec(dim_d=dim, dim_m=dim, sigma=np.eye(dim), label=label)


def time_driver(label: str = "time") -> DriverSpec:
    """Deterministic finite-variation driver Y_t = t."""
    return DriverSpec(dim_d=1, dim_m=1, sigma=np.zeros((1, 1)),
                      drift=np.ones(1), label=label)


def ito_embedding_driver(label: str = "ito-embed") -> DriverSpec:
    """The (W, t) pair as a two-component semimartingale driver."""
    return DriverSpec(dim_d=2, dim_m=1, sigma=np.array([[1.0], [0.0]]),
                      drift=np.array([0.0, 1.0]), label=label)


@dataclass(frozen=True)
class PathBundle:
    """Coupled batch of driving paths on one grid.

    ``w`` is (n_paths, T, m) and ``y`` is (n_paths, T, d), the grid's nodes
    ``start`` to ``start + T - 1``: all fine_count + 1 of them, or one time
    block's (:func:`stream_times`).  For a constant sigma = I and no drift
    ``y`` is ``w`` itself, not a copy.  ``a_int`` is the deterministic drift
    integral at the same nodes, (T, d), shared by every path.  A bundle is
    immutable after construction; every scheme and functional evaluated on
    it reads the same realizations, which is the coupling contract.  ``w`` and
    ``a_int`` are None in a bundle made for readers of Y alone (the schemes,
    K and a marched reference); a sampled bundle always has them.
    """

    grid: Grid
    driver: DriverSpec
    w: np.ndarray
    y: np.ndarray
    a_int: np.ndarray
    start: int = 0

    @property
    def n_paths(self) -> int:
        return self.y.shape[0]

    @property
    def cells(self) -> slice:
        """The fine cells whose nodes the bundle holds."""
        return slice(self.start, self.start + self.y.shape[1] - 1)

    def nodes(self, cells: slice) -> slice:
        """Where the nodes of the fine cells ``cells`` lie in ``w`` and ``y``."""
        if cells.start < self.start or cells.stop > self.cells.stop:
            raise ValueError(f"cells {cells.start}..{cells.stop} lie outside the bundle's "
                             f"{self.cells.start}..{self.cells.stop}")
        return slice(cells.start - self.start, cells.stop + 1 - self.start)


def driver_coefficients(spec: DriverSpec, grid: Grid, cells: slice = None,
                        a_start: np.ndarray = None) -> tuple:
    """(sigma, a_int) of ``spec`` on the fine cells ``cells`` of ``grid``, checked finite.

    ``cells`` are all of them by default, as :func:`build_driver` reads.
    ``sigma`` is the constant (d, m) matrix, or a callable sigma at the
    cells' left nodes, (len(cells), d, m); ``a_int`` is the drift integral
    a_int_k = sum_{j<k} a(t_j) dt at the cells' nodes, (len(cells)+1, d).  A
    callable drift's is summed on from ``a_start``, its value at the first
    node when that is not node 0.  Every path shares both, so a batch forms
    them once per block of cells.
    """
    if cells is None:
        cells = slice(0, grid.fine_count)
    left_times = grid.times(cells)
    if callable(spec.sigma):
        sig = spec.sigma_at(left_times)
        if not np.isfinite(sig).all():
            bad = int(np.argwhere(~np.isfinite(sig).reshape(len(left_times), -1).all(axis=1))[0, 0])
            raise ValueError(f"sigma evaluated non-finite at t={left_times[bad]:g}")
    else:
        sig = np.asarray(spec.sigma, dtype=float)
        if not np.isfinite(sig).all():
            raise ValueError("sigma matrix contains non-finite entries")

    a_int = np.zeros((len(left_times) + 1, spec.dim_d))
    if callable(spec.drift):
        a = spec.drift_at(left_times)
        if not np.isfinite(a).all():
            bad = int(np.argwhere(~np.isfinite(a).all(axis=1))[0, 0])
            raise ValueError(f"drift evaluated non-finite at t={left_times[bad]:g}")
        np.multiply(a, grid.fine_dt, out=a_int[1:])
        if cells.start:
            a_int[0] = a_start
        _sum_on(a_int, cells.start, axis=0)
    elif spec.drift is not None:
        a = np.asarray(spec.drift, dtype=float)
        if not np.isfinite(a).all():
            raise ValueError("drift vector contains non-finite entries")
        a_int = grid.times(slice(cells.start, cells.stop + 1))[:, None] * a
    return sig, a_int


def build_driver(spec: DriverSpec, w: np.ndarray, grid: Grid, coefficients: tuple = None,
                 out: np.ndarray = None, y_end: list = None) -> tuple:
    """Assemble (y, a_int) from a Brownian path by left-point sums.

    y_k = sum_{j<k} sigma(t_j) dW_j + a_int_k with
    a_int_k = sum_{j<k} a(t_j) dt.  For constant coefficients the sums
    telescope, so they are evaluated directly on the path values, one
    output channel c at a time: sigma[c, 0] w_0, then + sigma[c, j] w_j in
    sequence, then + a_int[:, c] when the driver has a drift, each a column
    of every path and node (numpy's loop over a d-wide channel axis costs
    several times more per number).  When Y is W (a constant sigma = I
    without a drift) the ``y`` returned is ``w`` itself; any other ``y`` is
    written to ``out``, (n_paths, T, d), or to a fresh array when ``out`` is
    None, and gets a_int added in place.  ``w``
    is a batch (n_paths, T, m) of the grid's nodes; ``a_int`` is
    deterministic and returned once, (T, d).  ``coefficients`` is
    :func:`driver_coefficients` of ``spec`` on ``w``'s cells, formed on the
    whole grid here when not given.

    A callable sigma's Y is a running sum.  ``y_end``, a list, carries it
    across blocks of time: empty at the grid's start, where Y starts at 0,
    it holds afterwards Y before its drift at the last node, which the next
    block's sum goes on from (:func:`_sum_on`).
    """
    w = np.asarray(w, dtype=float)
    if w.shape[-1] != spec.dim_m:
        raise ValueError(f"driver expects {spec.dim_m} Brownian components, got {w.shape[-1]}")
    sig, a_int = coefficients or driver_coefficients(spec, grid)
    if spec.y_is_w:
        return w, a_int
    y = np.empty((*w.shape[:2], spec.dim_d)) if out is None else out
    if callable(spec.sigma):
        y[:, 0] = y_end[0] if y_end else 0.0
        np.einsum("tdm,btm->btd", sig, np.diff(w, axis=1), out=y[:, 1:])
        _sum_on(y, bool(y_end))
        if y_end is not None:
            y_end[:] = [y[:, -1].copy()]
        if spec.drift is not None:
            y += a_int
        return y, a_int
    for c in range(spec.dim_d):  # a channel at a time, each a column of paths and nodes
        col = y[..., c]
        np.multiply(w[..., 0], sig[c, 0], out=col)
        for j in range(1, spec.dim_m):
            col += sig[c, j] * w[..., j]
        if spec.drift is not None:
            col += a_int[:, c]
    return y, a_int


def _draw(spec: DriverSpec, grid: Grid, keys: np.ndarray, w: np.ndarray, y: np.ndarray,
          coefficients: tuple, start: int = 0, carry: list = None,
          y_end: list = None) -> PathBundle:
    """The driver paths of the Philox ``keys``, (n_paths, 1, 2), drawn into ``w`` and ``y``.

    Every driver path is made here.  ``w`` and ``y`` hold the nodes
    ``start`` to ``start + T - 1`` of the paths' W and Y, (n_paths, T, m)
    and (n_paths, T, d); ``y`` is not written when Y is W, and may be None
    then.  The increments are drawn into W's nodes 1.. (drawn on from where
    ``carry``, see :func:`rng.normal_matrix`, stopped) and summed on in place
    from node 0 (:func:`_sum_on`), which the caller sets to the last block's
    last node when ``start`` is not 0.  Y is then assembled by
    :func:`build_driver` from ``coefficients``, the
    :func:`driver_coefficients` of those cells, summed on from ``y_end``.
    """
    if not start:
        w[:, 0] = 0.0
    rng.normal_matrix(keys, (w.shape[1] - 1, spec.dim_m), scale=np.sqrt(grid.fine_dt),
                      out=w[:, 1:], carry=carry)
    _sum_on(w, start)
    y, a_int = build_driver(spec, w, grid, coefficients, y, y_end)
    return PathBundle(grid, spec, w, y, a_int, start)


def simulate_bundle(spec: DriverSpec, grid: Grid, master_seed: int,
                    path_indices, component: int = rng.DRIVER_W) -> PathBundle:
    """Generate a coupled batch of driver paths for the given path indices.

    ``component`` selects the stream family; limit-law draws use their own
    family so they are independent of the scheme paths under one seed.
    """
    path_indices = np.atleast_1d(np.asarray(path_indices, dtype=np.int64))
    keys = rng.philox_keys(master_seed, component, path_indices, 1)
    w = np.empty((len(keys), grid.fine_count + 1, spec.dim_m))
    return _draw(spec, grid, keys, w, None, driver_coefficients(spec, grid))


def stream_paths(spec: DriverSpec, grid: Grid, keys: np.ndarray, reduce) -> tuple:
    """Draw, assemble and reduce the paths of the Philox ``keys`` one cache block at a time.

    ``reduce(bundle, space)`` turns the bundle of one block of rows into
    per-row arrays, which :func:`over_chunks` copies into their rows of the
    result before the next block is drawn, so they may be views of the
    bundle.  A block's W and Y (one array when Y is W) hold about
    ``BLOCK_BYTES``, so the batch's fine paths never exist at full size.
    The coefficients are formed once for every block, each block draws its
    W and Y into buffers of one :class:`Workspace`, and ``reduce`` gets that
    workspace for its own passes: buffers fresh per block would be paged in
    anew each time.  The bundle of any rows equals those rows of
    :func:`simulate_bundle`'s whole batch, bit for bit.
    """
    space, nodes = Workspace(), grid.fine_count + 1
    coefficients = driver_coefficients(spec, grid)
    rows = rows_per_block(len(keys), (spec.dim_m + (0 if spec.y_is_w else spec.dim_d)) * nodes * 8)
    w = space.take("paths.w", (rows, nodes, spec.dim_m))
    y = None if spec.y_is_w else space.take("paths.y", (rows, nodes, spec.dim_d))

    def block(idx):
        n = len(idx)
        bundle = _draw(spec, grid, keys[idx[0]:idx[0] + n], w[:n],
                       None if y is None else y[:n], coefficients)
        return reduce(bundle, space)

    return over_chunks(len(keys), rows, block)


def stream_times(spec: DriverSpec, grid: Grid, keys: np.ndarray, length: int,
                 space: Workspace):
    """The driver paths of the Philox ``keys``, (n_paths, 1, 2), one time block at a time.

    Yields a :class:`PathBundle` of each block of ``length`` fine cells, in
    time order, holding the block's nodes in buffers of ``space`` that every
    block reuses, so a bundle is read before the next is asked for.  Its
    coefficients are formed on its cells alone, and its increments are drawn
    on from where the last block's stopped (the carry of
    :func:`rng.normal_matrix`).  W, a callable sigma's Y and a callable
    drift's integral are summed on from the last block's last node, each in
    one in-place cumsum (:func:`_sum_on`), so every block holds the bits of
    the same nodes of :func:`simulate_bundle`'s whole batch.
    """
    n_paths = len(keys)
    carry, y_end = [], []  # the streams and a callable sigma's Y, carried block to block
    w = space.take("times.w", (n_paths, length + 1, spec.dim_m))
    y = None if spec.y_is_w else space.take("times.y", (n_paths, length + 1, spec.dim_d))
    a_end = None
    for start in range(0, grid.fine_count, length):
        cells = slice(start, min(start + length, grid.fine_count))
        size = cells.stop - start + 1
        coefficients = driver_coefficients(spec, grid, cells, a_end)
        a_end = coefficients[1][-1]
        if start:
            w[:, 0] = w[:, length]  # the last block was whole
        yield _draw(spec, grid, keys, w[:, :size], None if y is None else y[:, :size],
                    coefficients, start, carry, y_end)

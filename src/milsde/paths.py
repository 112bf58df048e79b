"""Driving paths on a nested pair of grids.

The unit interval is split into ``coarse_n`` cells, each refined into
``fine_factor`` sub-cells.  All stochastic integrals in the package are
left-point sums over the fine grid, with integrands anchored at the coarse
cell containing each fine cell.  At a coarse grid point the anchor jumps
back a full coarse cell (left-open convention), so the anchor of the point
``t_k`` equals the anchor of the fine cell ending at ``t_k``.

Paths are generated per path index from splittable streams; a path's values
depend only on (master_seed, path_index), never on batch composition.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import rng

MAX_FINE_COUNT = 1 << 26  # allocation guard for index arithmetic and arrays
DEFAULT_CHUNK = 1000  # path indices per chunk of :func:`over_chunks`


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

    def times(self) -> np.ndarray:
        # k/fine_count from index arithmetic; never an accumulated float sum
        return np.arange(self.fine_count + 1) / self.fine_count

    def time_of(self, fine_index: int) -> float:
        return fine_index / self.fine_count

    def coarse_indices(self) -> np.ndarray:
        """Fine indices of the coarse grid points."""
        return np.arange(self.coarse_n + 1) * self.fine_factor


def make_grid(coarse_n: int, fine_factor: int) -> Grid:
    return Grid(int(coarse_n), int(fine_factor))


def coarse_anchor(grid: Grid, fine_index: int) -> int:
    """Fine index of the coarse anchor of the point ``t_{fine_index}``.

    Greatest coarse-point index strictly below ``fine_index`` (left-open
    convention), except that the origin anchors to itself.
    """
    if fine_index < 0 or fine_index > grid.fine_count:
        raise ValueError(f"fine index {fine_index} outside 0..{grid.fine_count}")
    if fine_index == 0:
        return 0
    return ((fine_index - 1) // grid.fine_factor) * grid.fine_factor


def cell_anchors(grid: Grid) -> np.ndarray:
    """Anchor fine-index for every fine cell.

    Entry ``j`` anchors the cell (t_j, t_{j+1}]; it equals
    ``coarse_anchor(grid, j + 1)``.  Left-point integrands on cell ``j`` are
    evaluated as ``path[j] - path[anchor[j]]``.
    """
    j = np.arange(grid.fine_count)
    return (j // grid.fine_factor) * grid.fine_factor


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


def cell_split(inc: np.ndarray, coarse_n: int) -> tuple:
    """Split fine increments (B, fine_count, ...) into ``coarse_n`` cells.

    Returns (inc, disp): the increments per cell, shape (B, coarse_n, r, ...),
    and their running sum along the cell axis, shape (B, coarse_n, r+1, ...).
    ``disp[:, :, :-1]`` is the displacement from the cell anchor at the left
    node of each sub-cell and ``disp[:, :, 1:]`` the displacement at its
    right node.
    """
    r = cell_size(inc.shape[1], coarse_n)
    inc = inc.reshape(inc.shape[0], coarse_n, r, *inc.shape[2:])
    return inc, running_sum(inc, axis=2)


def over_chunks(total: int, chunk: int, chunk_fn, threads: int = 1) -> tuple:
    """Run ``chunk_fn`` over 0..total-1 in chunks of consecutive indices.

    ``chunk_fn(idx)`` returns arrays of ``len(idx)`` rows, each concatenated
    across chunks in index order.  Its locals are freed when it returns, but
    a returned view pins its base; memory peaks near one chunk per worker,
    and ``threads > 1`` runs that many chunks at once.
    """
    chunks = [np.arange(s, min(s + chunk, total)) for s in range(0, total, chunk)]
    if threads <= 1 or len(chunks) <= 1:
        parts = [chunk_fn(idx) for idx in chunks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(chunk_fn, chunks))
    return tuple(np.concatenate(col) for col in zip(*parts))


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

    def sigma_at(self, times: np.ndarray) -> np.ndarray:
        """Volatility matrices at the given times, shape (T, d, m)."""
        times = np.asarray(times, dtype=float)
        if callable(self.sigma):
            out = np.stack([np.asarray(self.sigma(t), dtype=float) for t in times])
        else:
            out = np.broadcast_to(np.asarray(self.sigma, dtype=float),
                                  (len(times), self.dim_d, self.dim_m)).copy()
        return out.reshape(len(times), self.dim_d, self.dim_m)

    def drift_at(self, times: np.ndarray) -> np.ndarray:
        """Drift vectors at the given times, shape (T, d)."""
        times = np.asarray(times, dtype=float)
        if self.drift is None:
            return np.zeros((len(times), self.dim_d))
        if callable(self.drift):
            out = np.stack([np.asarray(self.drift(t), dtype=float) for t in times])
        else:
            out = np.broadcast_to(np.asarray(self.drift, dtype=float),
                                  (len(times), self.dim_d)).copy()
        return out.reshape(len(times), self.dim_d)

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
        nodes, weights = np.polynomial.legendre.leggauss(8)
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

    ``w`` is (n_paths, fine_count+1, m) and ``y`` is (n_paths, fine_count+1, d).
    ``a_int`` is the deterministic drift integral, (fine_count+1, d), shared
    by every path.  A bundle is immutable after construction; every scheme
    and functional evaluated on it reads the same realizations, which is the
    coupling contract.
    """

    grid: Grid
    driver: DriverSpec
    w: np.ndarray
    y: np.ndarray
    a_int: np.ndarray
    master_seed: int
    path_indices: np.ndarray = field(repr=False)

    @property
    def n_paths(self) -> int:
        return self.w.shape[0]

    def fine_increments(self) -> np.ndarray:
        """Driver increments over fine cells, shape (n_paths, fine_count, d)."""
        return np.diff(self.y, axis=1)


def sample_brownian(grid: Grid, dim_m: int, seed_key: tuple) -> np.ndarray:
    """One m-dimensional Brownian path on the fine grid, W_0 = 0.

    ``seed_key`` is (master_seed, path_index); the result is bit-identical
    for equal keys regardless of scheduling.
    """
    master_seed, path_index = seed_key
    return simulate_bundle(brownian_motion_driver(dim_m), grid, master_seed, [path_index]).w[0]


def brownian_family(grid: Grid, master_seed: int, path_indices, component: int,
                    channels: int = 1, width: int = 1, out: np.ndarray = None) -> np.ndarray:
    """Brownian increments of one stream family on the fine grid.

    Every (path index, channel) key draws a (fine_count, width) matrix of
    normals from its own stream; scaled by sqrt(fine_dt) it fills the
    ``width`` columns from ``c * width`` of the result, which has shape
    (n_paths, fine_count, channels * width).  It is written to ``out`` when
    given.  The running sum along the time axis is the path.
    """
    return rng.normal_matrix(master_seed, component, path_indices, (grid.fine_count, width),
                             channels=channels, scale=np.sqrt(grid.fine_dt), out=out)


def build_driver(spec: DriverSpec, w: np.ndarray, grid: Grid) -> tuple:
    """Assemble (y, a_int) from a Brownian path by left-point sums.

    y_k = sum_{j<k} sigma(t_j) dW_j + a_int_k with
    a_int_k = sum_{j<k} a(t_j) dt.  For constant coefficients the sums
    telescope, so they are evaluated directly on the path values (this keeps
    y bit-identical to w for the identity driver).  Accepts a single path
    (fine_count+1, m) or a batch (n_paths, fine_count+1, m); ``a_int`` is
    deterministic and returned once, shape (fine_count+1, d).
    """
    w = np.asarray(w, dtype=float)
    single = w.ndim == 2
    if single:
        w = w[None]
    if w.shape[-1] != spec.dim_m:
        raise ValueError(f"driver expects {spec.dim_m} Brownian components, got {w.shape[-1]}")
    left_times = grid.times()[:-1]

    if callable(spec.sigma):
        sig = spec.sigma_at(left_times)
        if not np.isfinite(sig).all():
            bad = int(np.argwhere(~np.isfinite(sig).reshape(len(left_times), -1).all(axis=1))[0, 0])
            raise ValueError(f"sigma evaluated non-finite at t={left_times[bad]:g}")
        y = running_sum(np.einsum("tdm,btm->btd", sig, np.diff(w, axis=1)), axis=1)
    else:
        sig = np.asarray(spec.sigma, dtype=float)
        if not np.isfinite(sig).all():
            raise ValueError("sigma matrix contains non-finite entries")
        y = np.einsum("dm,bkm->bkd", sig, w)

    a_int = np.zeros((grid.fine_count + 1, spec.dim_d))
    if spec.drift is not None:
        if callable(spec.drift):
            a = spec.drift_at(left_times)
            if not np.isfinite(a).all():
                bad = int(np.argwhere(~np.isfinite(a).all(axis=1))[0, 0])
                raise ValueError(f"drift evaluated non-finite at t={left_times[bad]:g}")
            a_int = running_sum(a * grid.fine_dt, axis=0)
        else:
            a = np.asarray(spec.drift, dtype=float)
            if not np.isfinite(a).all():
                raise ValueError("drift vector contains non-finite entries")
            a_int = grid.times()[:, None] * a
        y = y + a_int
    if single:
        return y[0], a_int
    return y, a_int


def simulate_bundle(spec: DriverSpec, grid: Grid, master_seed: int,
                    path_indices, component: int = rng.DRIVER_W) -> PathBundle:
    """Generate a coupled batch of driver paths for the given path indices.

    ``component`` selects the stream family; limit-law draws use their own
    family so they are independent of the scheme paths under one seed.
    """
    path_indices = np.atleast_1d(np.asarray(path_indices, dtype=np.int64))
    w = np.empty((len(path_indices), grid.fine_count + 1, spec.dim_m))
    w[:, 0] = 0.0
    dw = brownian_family(grid, master_seed, path_indices, component, width=spec.dim_m,
                         out=w[:, 1:])
    np.cumsum(dw, axis=1, out=dw)  # in place: the increments become W_1..W_T
    y, a_int = build_driver(spec, w, grid)
    return PathBundle(grid=grid, driver=spec, w=w, y=y, a_int=a_int,
                      master_seed=master_seed, path_indices=path_indices)

"""Path functionals of the discretization error analysis.

All stochastic integrals are left-point sums over the bundle's fine grid.
Integrands are anchored per fine cell: the cell (t_j, t_{j+1}] reads
integrand values at t_j relative to the coarse point at or below t_j, so
at a coarse grid point the running within-cell objects reset.

Series kinds:
    Z   running integral of the within-cell displacement against dY^T
    M   running integral of the within-cell Z-displacement against dY^p
    N   running integral of the displacement outer product against dY^p
    QV  empirical quadratic covariation of two series
    U   normalized scheme error
"""

from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .paths import PathBundle, cell_size, cell_split, running_sum


@dataclass(frozen=True)
class StatSeries:
    kind: str
    grid_level: str
    times: np.ndarray
    values: np.ndarray  # (n_paths, n_times, *tensor_shape)

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def at_end(self) -> np.ndarray:
        return self.values[:, -1]


def _series_from_increments(bundle: PathBundle, inc: np.ndarray, kind: str) -> StatSeries:
    B = inc.shape[0]
    flat = inc.reshape(B, bundle.grid.fine_count, *inc.shape[3:])
    return StatSeries(kind=kind, grid_level="fine", times=bundle.grid.times(),
                      values=running_sum(flat, axis=1))


def z_functional(bundle: PathBundle, coarse_n: int) -> StatSeries:
    """Displacement integral: d x d series with entries int (Y - Y@anchor)_a dY_c."""
    dyc, disp = cell_split(bundle.fine_increments(), coarse_n)
    inc = np.einsum("bnra,bnrc->bnrac", disp[:, :, :-1], dyc)
    return _series_from_increments(bundle, inc, "Z")


def m_functional(bundle: PathBundle, coarse_n: int) -> StatSeries:
    """Nested integral: for each p, int (Z - Z@anchor) dY^p.

    Values have shape (n_paths, T, d, d, d) indexed [p, a, c].
    """
    dyc, disp = cell_split(bundle.fine_increments(), coarse_n)
    dz = np.einsum("bnra,bnrc->bnrac", disp[:, :, :-1], dyc)
    zdisp = running_sum(dz, axis=2)[:, :, :-1]
    inc = np.einsum("bnrac,bnrp->bnrpac", zdisp, dyc)
    return _series_from_increments(bundle, inc, "M")


def n_functional(bundle: PathBundle, coarse_n: int) -> StatSeries:
    """Outer-product integral: for each p, int (Y-Y@a)(Y-Y@a)^T dY^p.

    Values have shape (n_paths, T, d, d, d) indexed [p, a, c]; each matrix
    is symmetric in (a, c) by construction.
    """
    dyc, disp = cell_split(bundle.fine_increments(), coarse_n)
    left = disp[:, :, :-1]
    inc = np.einsum("bnra,bnrc,bnrp->bnrpac", left, left, dyc)
    return _series_from_increments(bundle, inc, "N")


def qv_displacement_integral(bundle: PathBundle, coarse_n: int) -> StatSeries:
    """For each p, int (C - C@anchor) dY^p with C the empirical running QV.

    Together with the M and N functionals this realizes the pathwise
    integration-by-parts identity N^p = M^p + (M^p)^T + int C^(n) dY^p,
    which holds exactly for the discrete sums.
    """
    dyc, _ = cell_split(bundle.fine_increments(), coarse_n)
    dc = np.einsum("bnra,bnrc->bnrac", dyc, dyc)
    cdisp = running_sum(dc, axis=2)[:, :, :-1]
    inc = np.einsum("bnrac,bnrp->bnrpac", cdisp, dyc)
    return _series_from_increments(bundle, inc, "QV")


def cube_functional(y: np.ndarray, coarse_n: int, t_index: int = -1) -> np.ndarray:
    """Exact cube-sum form of the scalar displacement-square integral.

    For a scalar path this evaluates (sum of cubed coarse increments up to
    the anchor of t, plus the cubed partial increment) / 3.  For paths of
    finite variation it equals the N functional exactly in the continuum
    and up to the sub-grid error for discrete data; for martingale inputs
    the two differ by the displacement-QV integral.
    """
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    if single:
        y = y[None]
    nf = y.shape[1] - 1
    r = cell_size(nf, coarse_n)
    if t_index < 0:
        t_index = nf + 1 + t_index
    if not 0 <= t_index <= nf:
        raise ValueError("t_index outside the path grid")
    anchor = ((t_index - 1) // r) * r if t_index > 0 else 0
    full = np.diff(y[:, :anchor + 1:r], axis=1) ** 3
    partial = (y[:, t_index] - y[:, anchor]) ** 3
    total = (full.sum(axis=1) + partial) / 3.0
    return total[0] if single else total


def fv_exact_nm(y: np.ndarray, coarse_n: int) -> tuple:
    """Exact (N, M) at t = 1 for a scalar finite-variation path.

    Uses the cube-sum identity for N and the pathwise relation M = N/2
    (the within-cell Z-displacement of a continuous FV path is half the
    squared displacement).  Both need only the coarse grid values.
    """
    n1 = cube_functional(y, coarse_n)
    return n1, n1 / 2.0


def empirical_qv(series_a: StatSeries, series_b: StatSeries) -> StatSeries:
    """Running sum of increment products of two series on the same grid."""
    if series_a.times.shape != series_b.times.shape or \
            not np.array_equal(series_a.times, series_b.times):
        raise ValueError("series live on different grids")
    da = np.diff(series_a.values, axis=1)
    db = np.diff(series_b.values, axis=1)
    if da.shape != db.shape:
        raise ValueError(f"series shapes differ: {da.shape[2:]} vs {db.shape[2:]}")
    return StatSeries(kind="QV", grid_level=series_a.grid_level,
                      times=series_a.times, values=running_sum(da * db, axis=1))


def fv_limit_quadrature(y_density, components=(0, 0, 0), t_end: float = 1.0) -> tuple:
    """Limit values (N, M) = (1/3, 1/6) * int y_i y_j y_k ds by quadrature.

    ``y_density`` is a scalar callable, or a sequence of callables indexed
    by the component triple.
    """
    if callable(y_density):
        densities = [y_density] * 3
    else:
        densities = [y_density[c] for c in components]
    val, err = integrate.quad(lambda s: densities[0](s) * densities[1](s) * densities[2](s),
                              0.0, t_end, limit=200)
    if err > 1e-8 * max(1.0, abs(val)):
        raise ArithmeticError(f"limit quadrature did not converge (error estimate {err:g})")
    return val / 3.0, val / 6.0

"""Path functionals of the discretization error analysis, as increments.

Each functional takes ``cells = (dyc, disp)``, the :func:`paths.cell_split`
of the driver's fine increments at the coarse count n, and returns its
left-point increment over every sub-cell.  The integrand of a sub-cell reads
its left node relative to the coarse anchor, so it resets at coarse points.

    dz  (B, n, r, d, d)     (Y - Y@anchor)_a dY_c
    dm  (B, n, r, d, d, d)  (Z - Z@anchor)_ac dY_p, indexed [p, a, c]
    dn  (B, n, r, d, d, d)  (Y - Y@anchor)_a (Y - Y@anchor)_c dY_p
    dc  (B, n, r, d, d, d)  (C - C@anchor)_ac dY_p, C the running sum of dY dY^T

Per increment dn = dm + dm^T + dc (integration by parts, (a, c) transposed).
A value at t = 1 is the sum of the increments, a series their running sum.
"""

from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .paths import cell_size, running_sum

FINGERPRINTS = ("mm", "nn", "nm", "nw", "mw")  # column order of :func:`fingerprints`


@dataclass(frozen=True)
class StatSeries:
    """Values of a path statistic on a time grid, such as the normalized error U."""

    kind: str
    grid_level: str
    times: np.ndarray
    values: np.ndarray  # (n_paths, n_times, *tensor_shape)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("bnra,bnrc->bnrac", a, b)


def _against_dy(left: np.ndarray, dyc: np.ndarray) -> np.ndarray:
    # the increments of int left dY^p, indexed [p, a, c]
    return np.einsum("bnrac,bnrp->bnrpac", left, dyc)


def dz(cells: tuple) -> np.ndarray:
    """Increments of Z = int (Y - Y@anchor) dY^T."""
    dyc, disp = cells
    return _outer(disp[:, :, :-1], dyc)


def k_fine(cells: tuple) -> np.ndarray:
    """``dz(cells).sum(axis=2)``, the sub-grid part of the Milstein K, without forming dz."""
    dyc, disp = cells
    return np.swapaxes(disp[:, :, :-1], -1, -2) @ dyc


def dm(cells: tuple) -> np.ndarray:
    """Increments of M^p = int (Z - Z@anchor) dY^p."""
    return _against_dy(running_sum(dz(cells), axis=2)[:, :, :-1], cells[0])


def dn(cells: tuple) -> np.ndarray:
    """Increments of N^p = int (Y - Y@anchor)(Y - Y@anchor)^T dY^p, symmetric in (a, c)."""
    dyc, disp = cells
    left = disp[:, :, :-1]
    return _against_dy(_outer(left, left), dyc)


def dc(cells: tuple) -> np.ndarray:
    """Increments of int (C - C@anchor) dY^p, C the running sum of dY dY^T."""
    dyc = cells[0]
    return _against_dy(running_sum(_outer(dyc, dyc), axis=2)[:, :, :-1], dyc)


def covariation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-path quadratic covariation: sum of a * b over every non-batch axis."""
    if a.shape != b.shape:
        raise ValueError(f"covariation needs equal shapes, got {a.shape} and {b.shape}")
    return (a * b).sum(axis=tuple(range(1, a.ndim)))


def fingerprints(dm: np.ndarray, dn: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """Covariations [M,M], [N,N], [N,M], [N,W], [M,W] in :data:`FINGERPRINTS` order, (B, 5).

    Reads the first driving component of the increments dm, dn [..., p, a, c]
    and dw [..., d], which is all of a scalar driver.
    """
    m, n, w = dm[..., 0, 0, 0], dn[..., 0, 0, 0], dw[..., 0]
    return np.stack([covariation(m, m), covariation(n, n), covariation(n, m),
                     covariation(n, w), covariation(m, w)], axis=1)


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

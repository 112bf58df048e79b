"""Path functionals of the discretization error analysis, as increments.

Each functional takes ``cells = (dyc, disp)``, fine increments (B, n, r, d)
in n cells and their running sum from each cell's anchor, (B, n, r + 1, d),
and returns its left-point increment over every sub-cell.  The integrand of
a sub-cell reads its left node relative to the anchor, so it resets at
coarse points.

    dz  (B, n, r, d, d)     (Y - Y@anchor)_a dY_c
    dm  (B, n, r, d, d, d)  (Z - Z@anchor)_ac dY_p, indexed [p, a, c]
    dn  (B, n, r, d, d, d)  (Y - Y@anchor)_a (Y - Y@anchor)_c dY_p
    dc  (B, n, r, d, d, d)  (C - C@anchor)_ac dY_p, C the running sum of dY dY^T

Per increment dn = dm + dm^T + dc (integration by parts, (a, c) transposed).
A value at t = 1 is the sum of the increments, a series their running sum.
"""

import numpy as np

from .paths import running_sum

FINGERPRINTS = ("mm", "nn", "nm", "nw", "mw")  # column order of :func:`fingerprints`


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
    """``dz(cells).sum(axis=2)`` without forming dz, from the first r (left) nodes of disp."""
    dyc, disp = cells
    return np.swapaxes(disp[:, :, :dyc.shape[2]], -1, -2) @ dyc


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

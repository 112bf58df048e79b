"""Solvers on a path bundle: Euler, Milstein and reference solutions.

The Milstein correction per coarse cell is sum_{ab} h^i_{ba} K_{ab}, where
h^i = (Df^i)^T f and K_{ab} integrates the within-cell displacement of
driver component a against the increments of component b.  A rate run
builds K once per bundle, at the base level lcm(n_list), and folds it to
each coarser n with Chen's identity (:func:`fold_iterated_integrals`), so
the fine sub-grid is summed once, not once per n.

Two evaluations of K are available:

``fine``   raw left-point sums over the fine sub-grid; a single sub-cell
           gives K = 0 and the scheme degrades to Euler.
``exact``  the fine sums with their symmetric part replaced by the exact
           identity (dY dY^T - cell QV)/2, using the driver's deterministic
           quadratic variation.  For a one-dimensional driver this is the
           exact iterated integral (for Brownian noise, ((dW)^2 - dt)/2);
           in higher dimension only the antisymmetric (Levy-area) part
           still comes from the sub-grid.
"""

from dataclasses import dataclass

import numpy as np

from .model import DIVERGENCE_LIMIT, SdeProblem, correction_pairing
from .paths import PathBundle, cell_size, cell_split
from .stats import StatSeries


@dataclass(frozen=True)
class SchemeOutput:
    values: np.ndarray  # (n_paths, n_times, q)
    scheme_id: str
    grid_level: str  # "coarse" or "fine"
    coarse_n: int
    diverged: np.ndarray  # (n_paths,) bool
    first_bad: np.ndarray  # (n_paths,) fine/coarse index of first bad value, -1 if none

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]


def _flag_divergence(values: np.ndarray) -> tuple:
    bad = ~np.isfinite(values).all(axis=2) | (np.abs(values) > DIVERGENCE_LIMIT).any(axis=2)
    diverged = bad.any(axis=1)
    first_bad = np.where(diverged, bad.argmax(axis=1), -1)
    return diverged, first_bad


def iterated_integrals(bundle: PathBundle, coarse_n: int, mode: str = "exact") -> np.ndarray:
    """Per-cell iterated-integral matrices K, shape (n_paths, coarse_n, d, d)."""
    if mode not in ("fine", "exact"):
        raise ValueError(f"unknown iterated-integral mode '{mode}'")
    dyc, disp = cell_split(bundle.fine_increments(), coarse_n)
    k_fine = np.swapaxes(disp[:, :, :-1], -1, -2) @ dyc
    qv_emp = np.swapaxes(dyc, -1, -2) @ dyc if mode == "exact" else None
    del dyc, disp  # free the split before the correction's temporaries
    if mode == "fine":
        return k_fine
    edges = np.arange(coarse_n + 1) / coarse_n
    qv_exact = bundle.driver.cell_qv(edges)
    return k_fine + 0.5 * (qv_emp - qv_exact)


def fold_iterated_integrals(bundle: PathBundle, kbase: np.ndarray, dybase: np.ndarray,
                            coarse_n: int, mode: str = "exact") -> np.ndarray:
    """K on ``coarse_n`` cells from K on a finer base grid that it divides.

    Chen's identity for left-point sums: a coarse cell's K is the sum of its
    base cells' K_j plus the left-point sum of the driver over the base
    grid, sum_j S_j (x) dY_j with S_j the move before base cell j.  The
    exact mode then swaps the base cells' exact QV for the coarse cell's, so
    the result equals :func:`iterated_integrals` at ``coarse_n`` up to
    rounding.  ``dybase`` holds the driver's increments over the base grid,
    shape (n_paths, base, d), shared by every fold of one bundle.  The cost
    is O(n_paths * base * d^2), with no sub-grid pass.
    """
    n_paths, base, d = kbase.shape[:3]
    m = cell_size(base, coarse_n)
    dyc, disp = cell_split(dybase, coarse_n)
    kmat = kbase.reshape(n_paths, coarse_n, m, d, d).sum(axis=2) \
        + np.swapaxes(disp[:, :, :-1], -1, -2) @ dyc
    if mode == "exact":
        qv_base = bundle.driver.cell_qv(np.arange(base + 1) / base)
        qv_coarse = bundle.driver.cell_qv(np.arange(coarse_n + 1) / coarse_n)
        kmat += 0.5 * (qv_base.reshape(coarse_n, m, d, d).sum(axis=1) - qv_coarse)
    return kmat


def euler(problem: SdeProblem, bundle: PathBundle, coarse_n: int,
          grid_level: str = "coarse") -> SchemeOutput:
    """Euler scheme X_{k+1} = X_k + f(X_k)(Y_{k+1} - Y_k) on the coarse grid.

    With ``grid_level="fine"`` the continuous-type interpolant
    X_t = X_{n(t)} + f(X_{n(t)})(Y_t - Y_{n(t)}) is returned at fine nodes.
    """
    r = cell_size(bundle.grid.fine_count, coarse_n)
    y = bundle.y
    B = bundle.n_paths
    q = problem.field.dim_q
    coarse = np.empty((B, coarse_n + 1, q))
    x = np.broadcast_to(problem.x0, (B, q)).copy()
    coarse[:, 0] = x
    fine_vals = None
    if grid_level == "fine":
        fine_vals = np.empty((B, bundle.grid.fine_count + 1, q))
        fine_vals[:, 0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(coarse_n):
            fk = problem.field.f_at(x)
            if grid_level == "fine":
                dy_in = y[:, k * r + 1:(k + 1) * r + 1] - y[:, k * r, None]
                fine_vals[:, k * r + 1:(k + 1) * r + 1] = (
                    x[:, None] + np.einsum("bqd,btd->btq", fk, dy_in))
            dy = y[:, (k + 1) * r] - y[:, k * r]
            x = x + np.einsum("bqd,bd->bq", fk, dy)
            coarse[:, k + 1] = x
    values = fine_vals if grid_level == "fine" else coarse
    diverged, first_bad = _flag_divergence(values)
    return SchemeOutput(values, "euler", grid_level, coarse_n, diverged, first_bad)


def milstein(problem: SdeProblem, bundle: PathBundle, coarse_n: int,
             iterated: str = "exact", kmat: np.ndarray = None) -> SchemeOutput:
    """Second-order scheme: Euler plus the iterated-integral correction.

    ``kmat`` is K on the ``coarse_n`` cells in mode ``iterated``; it is
    computed from the bundle when not given.
    """
    r = cell_size(bundle.grid.fine_count, coarse_n)
    if kmat is None:
        kmat = iterated_integrals(bundle, coarse_n, mode=iterated)
    y = bundle.y
    B = bundle.n_paths
    q = problem.field.dim_q
    out = np.empty((B, coarse_n + 1, q))
    x = np.broadcast_to(problem.x0, (B, q)).copy()
    out[:, 0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(coarse_n):
            fk = problem.field.f_at(x)
            hk = correction_pairing(problem.field, x)
            dy = y[:, (k + 1) * r] - y[:, k * r]
            x = x + np.einsum("bqd,bd->bq", fk, dy) \
                  + np.einsum("biac,bca->bi", hk, kmat[:, k])
            out[:, k + 1] = x
    level = "fine" if coarse_n == bundle.grid.fine_count else "coarse"
    diverged, first_bad = _flag_divergence(out)
    return SchemeOutput(out, "milstein", level, coarse_n, diverged, first_bad)


def _require_ito_embedding(problem: SdeProblem) -> None:
    drv = problem.driver
    ok = (problem.field.dim_q == 1 and drv.dim_d == 2 and drv.dim_m == 1
          and not callable(drv.sigma) and not callable(drv.drift)
          and drv.drift is not None
          and np.array_equal(np.asarray(drv.sigma, dtype=float), [[1.0], [0.0]])
          and np.array_equal(np.asarray(drv.drift, dtype=float), [0.0, 1.0]))
    if not ok:
        raise ValueError("this scheme needs the (W, t) embedding with f = (a(x), b(x))")


def milstein_ito54(problem: SdeProblem, bundle: PathBundle, coarse_n: int,
                   iterated: str = "exact", kmat: np.ndarray = None) -> SchemeOutput:
    """Milstein step for dX = a(X) dW + b(X) dt, written out term by term.

    X_{k+1} = X_k + a dW + b dt + a a' K_WW + a b' K_Wt + a' b K_tW
                  + b b' K_tt, with the same per-cell K matrix used by
    :func:`milstein`, so the two agree to rounding error on shared bundles.
    ``kmat`` is as in :func:`milstein`.
    """
    _require_ito_embedding(problem)
    r = cell_size(bundle.grid.fine_count, coarse_n)
    if kmat is None:
        kmat = iterated_integrals(bundle, coarse_n, mode=iterated)
    y = bundle.y
    B = bundle.n_paths
    out = np.empty((B, coarse_n + 1, 1))
    x = np.full(B, problem.x0[0])
    out[:, 0, 0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(coarse_n):
            f = problem.field.f_at(x[:, None])
            df = problem.field.df_at(x[:, None])
            a, b = f[:, 0, 0], f[:, 0, 1]
            da, db = df[:, 0, 0, 0], df[:, 0, 0, 1]
            dy = y[:, (k + 1) * r] - y[:, k * r]
            kc = kmat[:, k]
            x = (x + a * dy[:, 0] + b * dy[:, 1]
                 + a * da * kc[:, 0, 0] + a * db * kc[:, 0, 1]
                 + da * b * kc[:, 1, 0] + b * db * kc[:, 1, 1])
            out[:, k + 1, 0] = x
    diverged, first_bad = _flag_divergence(out)
    return SchemeOutput(out, "milstein_ito54", "coarse", coarse_n, diverged, first_bad)


def reference(problem: SdeProblem, bundle: PathBundle) -> SchemeOutput:
    """Fine-grid stand-in for the exact solution.

    The closed form is used when the model has one; otherwise the
    second-order scheme is run with every fine cell as its own step, which
    carries O(1/fine_count) error of its own.
    """
    if problem.closed_form is not None:
        values = np.asarray(problem.closed_form(bundle), dtype=float)
        diverged, first_bad = _flag_divergence(values)
        return SchemeOutput(values, "reference", "fine", bundle.grid.fine_count,
                            diverged, first_bad)
    out = milstein(problem, bundle, bundle.grid.fine_count, iterated="exact")
    return SchemeOutput(out.values, "reference", "fine", bundle.grid.fine_count,
                        out.diverged, out.first_bad)


_ALPHA = {"sqrt_n": 0.5, "n": 1.0, "n2": 2.0}


def error_process(scheme_out: SchemeOutput, reference_out: SchemeOutput,
                  alpha: str = "n") -> StatSeries:
    """Normalized error alpha_n (X^n - X) at the coarse grid points."""
    if alpha not in _ALPHA:
        raise ValueError(f"alpha must be one of {sorted(_ALPHA)}")
    n = scheme_out.coarse_n
    if reference_out.grid_level != "fine":
        raise ValueError("reference must live on the fine grid")
    if scheme_out.n_paths != reference_out.n_paths:
        raise ValueError("scheme and reference were run on different bundles")
    ref_T = reference_out.values.shape[1] - 1
    if scheme_out.grid_level == "fine":
        if scheme_out.values.shape[1] != ref_T + 1:
            raise ValueError("fine grids disagree between scheme and reference")
        ref = reference_out.values
        times = np.arange(ref_T + 1) / ref_T
    else:
        if ref_T % n:
            raise ValueError("coarse grid does not divide the reference grid")
        ref = reference_out.values[:, ::ref_T // n]
        times = np.arange(n + 1) / n
    scale = float(n) ** _ALPHA[alpha]
    values = scale * (scheme_out.values - ref)
    return StatSeries(kind="U", grid_level=scheme_out.grid_level, times=times, values=values)

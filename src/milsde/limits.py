"""Simulation of the asymptotic error laws.

The n-normalized functionals of a local-martingale driver converge to
matrix Brownian integrals

    M^j = (sqrt(6)/6) sum_p int sigma_s sigma^{jp}_s dB^p_s sigma_s^T
    N^j = (sqrt(3)/3) sum_p int sigma_s sigma^{jp}_s dV^p_s sigma_s^T

with V^{pij} = (sqrt2/2)(B^{pij} + B^{pji}) + ((sqrt3/2) W^p + (1/2) Wbar^p)
for i = j, where the B and Wbar families are standard Brownian motions
independent of the driver's W.  V is always assembled on the fly from
(B, W, Wbar) so its cross-correlations are exact by construction.  A drift
in the driver shifts N by the deterministic matrix (1/2) int c_s a^p_s ds.

The normalized scheme error then converges to the solution of a linear
SDE driven by (Y, M, N), integrated here with left-point Euler steps on
the fine grid; for a finite-variation driver the law degenerates to an
ODE, solved to high accuracy by step-halved Richardson extrapolation.
"""

from dataclasses import dataclass

import numpy as np

from . import rng
from .model import SdeProblem, ode_curvature
from .paths import (DEFAULT_CHUNK, DriverSpec, Grid, brownian_family, over_chunks,
                    running_sum, simulate_bundle)
from .schemes import reference

SQRT2, SQRT3, SQRT6 = np.sqrt(2.0), np.sqrt(3.0), np.sqrt(6.0)


@dataclass(frozen=True)
class AuxiliaryNoise:
    """The B^{pij} and Wbar^p families on the fine grid.

    ``b`` has shape (n_paths, T, m, m, m) indexed [p, i, j]; ``wbar`` has
    shape (n_paths, T, m).  Streams are keyed per (path, channel) so the
    families are independent of each other and of every driver path.
    """

    grid: Grid
    b: np.ndarray
    wbar: np.ndarray


def sample_aux(grid: Grid, dim_m: int, master_seed: int, path_indices) -> AuxiliaryNoise:
    b = brownian_family(grid, master_seed, path_indices, rng.AUX_B, channels=dim_m ** 3)
    wbar = brownian_family(grid, master_seed, path_indices, rng.AUX_WBAR, channels=dim_m)
    # channel (p*m + i)*m + j of the B family is entry [p, i, j]
    b = b.reshape(*b.shape[:2], dim_m, dim_m, dim_m)
    return AuxiliaryNoise(grid=grid, b=b, wbar=wbar)


def assemble_v_increments(aux: AuxiliaryNoise, w: np.ndarray) -> np.ndarray:
    """Increments of the V^{pij} family, shape (n_paths, T-1, m, m, m)."""
    db = np.diff(aux.b, axis=1)
    dv = (SQRT2 / 2.0) * (db + np.swapaxes(db, -1, -2))
    diag = (SQRT3 / 2.0) * np.diff(w, axis=1) + 0.5 * np.diff(aux.wbar, axis=1)
    m = aux.b.shape[-1]
    idx = np.arange(m)
    dv[:, :, :, idx, idx] += diag[:, :, :, None]
    return dv


def simulate_mn(driver: DriverSpec, w: np.ndarray, aux: AuxiliaryNoise) -> tuple:
    """Limit processes (M, N) on the fine grid.

    Returns two arrays of shape (n_paths, T, d, d, d) indexed [j, row, col].
    ``w`` must be the driver's own Brownian path; the diagonal of V couples
    to it.
    """
    grid = aux.grid
    left = grid.times()[:-1]
    sig = driver.sigma_at(left)
    db = np.diff(aux.b, axis=1)
    dv = assemble_v_increments(aux, w)
    m_inc = (SQRT6 / 6.0) * np.einsum("tjp,tau,btpuv,tcv->btjac", sig, sig, db, sig)
    n_inc = (SQRT3 / 3.0) * np.einsum("tjp,tau,btpuv,tcv->btjac", sig, sig, dv, sig)
    return running_sum(m_inc, axis=1), running_sum(n_inc, axis=1)


def _cumulative_trapezoid(integrand: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of ``integrand`` (T, ...) over ``times``, 0 at t_0."""
    dt = np.diff(times).reshape(-1, *(1,) * (integrand.ndim - 1))
    return running_sum(0.5 * (integrand[:-1] + integrand[1:]) * dt, axis=0)


def drift_correct(n_series: np.ndarray, driver: DriverSpec, times: np.ndarray) -> np.ndarray:
    """Add the deterministic drift shift (1/2) int c_s a^p_s ds to each N^p."""
    if not driver.has_drift:
        return n_series
    c = driver.c_at(times)
    a = driver.drift_at(times)
    # trapezoid: exact for the constant and affine coefficient cases
    return n_series + _cumulative_trapezoid(0.5 * np.einsum("tac,tp->tpac", c, a), times)


def simulate_u(problem: SdeProblem, x_ref: np.ndarray, dy: np.ndarray,
               m_series: np.ndarray, n_series: np.ndarray) -> np.ndarray:
    """Integrate the limit error SDE along a reference solution path.

    dU^i = U^T Df^i(X) dY - sum_{jk} f^{ij}_k(X) tr(h^k(X) dM^j)
           - (1/2) sum_j tr(f^T Hf^{ij} f dN^j),  U_0 = 0.

    ``x_ref`` is (n_paths, T, q), ``dy`` the driver increments
    (n_paths, T-1, d); M and N series as returned by :func:`simulate_mn`
    (drift-corrected when the driver has a drift).  Left-point Euler on the
    fine grid; the output has shape (n_paths, T, q).
    """
    B, T, q = x_ref.shape
    x_left = x_ref[:, :-1]
    f = problem.field.f_at(x_left)
    df = problem.field.df_at(x_left)
    hf = problem.field.hf_at(x_left)
    h = np.einsum("xtika,xtkc->xtiac", df, f)
    dm = np.diff(m_series, axis=1)
    dn = np.diff(n_series, axis=1)
    # U-independent increments: the M and N forcing terms
    forcing = -np.einsum("xtikj,xtkac,xtjca->xti", df, h, dm) \
        - 0.5 * np.einsum("xtka,xtijkl,xtlc,xtjca->xti", f, hf, f, dn)
    # U-coupling matrices A[t]^{ik} = sum_j (Df^i)_{kj} dY_j
    coupling = np.einsum("xtikj,xtj->xtik", df, dy)
    u = np.zeros((B, T, q))
    cur = np.zeros((B, q))
    for t in range(T - 1):
        cur = cur + np.einsum("bik,bk->bi", coupling[:, t], cur) + forcing[:, t]
        u[:, t + 1] = cur
    return u


def ito_error_limit(problem: SdeProblem, x_ref: np.ndarray, w: np.ndarray,
                    b1: np.ndarray, b2: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Explicit error-limit SDE for dX = a(X) dW + b(X) dt.

    dU = U (a' dW + b' dt) - (1/4) a^2 b'' dt - a (a')^2 dB1 / sqrt(6)
         - a^2 a'' (dB1/sqrt6 + dB2/(4 sqrt3) + dW/4)

    with B1, B2 standard Brownian motions independent of W.  Agrees in law
    with :func:`simulate_u` on the (W, t) embedding.
    """
    B, T, q = x_ref.shape
    x_left = x_ref[:, :-1, 0]
    f = problem.field.f_at(x_ref[:, :-1])
    dfv = problem.field.df_at(x_ref[:, :-1])
    hfv = problem.field.hf_at(x_ref[:, :-1])
    a, b = f[..., 0, 0], f[..., 0, 1]
    da, db = dfv[..., 0, 0, 0], dfv[..., 0, 0, 1]
    d2a, d2b = hfv[..., 0, 0, 0, 0], hfv[..., 0, 1, 0, 0]
    dw = np.diff(w, axis=1)
    db1 = np.diff(b1, axis=1)
    db2 = np.diff(b2, axis=1)
    dt = np.diff(times)[None, :]
    forcing = (-0.25 * a ** 2 * d2b * dt
               - a * da ** 2 * db1 / SQRT6
               - a ** 2 * d2a * (db1 / SQRT6 + db2 / (4.0 * SQRT3) + dw / 4.0))
    coupling = da * dw + db * dt
    u = np.zeros((B, T))
    cur = np.zeros(B)
    for t in range(T - 1):
        cur = cur + cur * coupling[:, t] + forcing[:, t]
        u[:, t + 1] = cur
    return u[..., None]


def fv_deterministic_mn(driver: DriverSpec, times: np.ndarray) -> tuple:
    """Deterministic limit (M, N) of a finite-variation driver.

    N^j_t = (1/3) int y y^T y_j ds and M = N/2, evaluated by trapezoid on
    the given grid.  Feeding these into :func:`simulate_u` must reproduce
    the finite-variation error ODE.
    """
    y = driver.drift_at(times)
    n = _cumulative_trapezoid(np.einsum("ta,tc,tj->tjac", y, y, y), times)[None] / 3.0
    return n / 2.0, n


@dataclass(frozen=True)
class FvOdeResult:
    times: np.ndarray
    x: np.ndarray  # (T, q)
    u: np.ndarray  # (T, q)
    steps: int
    error_estimate: float


def _fv_rhs(problem: SdeProblem, s: float, x: np.ndarray, u: np.ndarray) -> tuple:
    y = problem.driver.drift_at(np.array([s]))[0]
    xb = x[None]
    f = problem.field.f_at(xb)[0]
    df = problem.field.df_at(xb)[0]
    g = ode_curvature(problem.field, xb)[0]
    dx = f @ y
    fy = f @ y
    du = np.einsum("k,ikj,j->i", u, df, y) \
        - np.einsum("j,a,ijal,l->i", y, y, g, fy) / 6.0
    return dx, du


def _fv_rk4(problem: SdeProblem, steps: int) -> tuple:
    q = problem.field.dim_q
    T = steps + 1
    times = np.arange(T) / steps
    x = np.empty((T, q))
    u = np.empty((T, q))
    x[0] = problem.x0
    u[0] = 0.0
    h = 1.0 / steps
    for k in range(steps):
        s = k * h
        kx1, ku1 = _fv_rhs(problem, s, x[k], u[k])
        kx2, ku2 = _fv_rhs(problem, s + h / 2, x[k] + h / 2 * kx1, u[k] + h / 2 * ku1)
        kx3, ku3 = _fv_rhs(problem, s + h / 2, x[k] + h / 2 * kx2, u[k] + h / 2 * ku2)
        kx4, ku4 = _fv_rhs(problem, s + h, x[k] + h * kx3, u[k] + h * ku3)
        x[k + 1] = x[k] + h / 6 * (kx1 + 2 * kx2 + 2 * kx3 + kx4)
        u[k + 1] = u[k] + h / 6 * (ku1 + 2 * ku2 + 2 * ku3 + ku4)
    return times, x, u


def fv_error_ode(problem: SdeProblem, tol: float = 1e-10, max_steps: int = 1 << 14) -> FvOdeResult:
    """Solve the deterministic error ODE of a finite-variation driver.

    Coupled RK4 for (X, U) with step halving until the Richardson gap at
    t = 1 drops below ``tol``.
    """
    if np.any(np.abs(driver_sigma_norm(problem.driver)) > 0):
        raise ValueError("the error ODE applies to finite-variation drivers only")
    steps = 64
    times, x, u = _fv_rk4(problem, steps)
    while True:
        steps2 = steps * 2
        times2, x2, u2 = _fv_rk4(problem, steps2)
        gap = float(np.max(np.abs(u2[-1] - u[-1])))
        if gap < tol:
            # RK4 halving: the remaining error of the finer run is ~gap/15
            return FvOdeResult(times2, x2, u2, steps2, gap / 15.0)
        if steps2 >= max_steps:
            raise ArithmeticError(f"error ODE did not reach tol={tol:g} at {steps2} steps "
                                  f"(gap {gap:g})")
        steps, times, x, u = steps2, times2, x2, u2


def driver_sigma_norm(driver: DriverSpec) -> np.ndarray:
    sample = driver.sigma_at(np.linspace(0.0, 1.0, 9))
    return np.linalg.norm(sample, axis=(1, 2))


@dataclass(frozen=True)
class LimitRealization:
    """One batch of limit draws: the inputs and the resulting error paths."""

    times: np.ndarray
    w: np.ndarray
    x_ref: np.ndarray
    m_series: np.ndarray
    n_series: np.ndarray
    u_series: np.ndarray


def draw_error_limit(problem: SdeProblem, master_seed: int, path_indices,
                     fine_count: int = 4096) -> LimitRealization:
    """Sample the limit law of the normalized scheme error.

    Draws a fresh driver path (its own stream family), the auxiliary
    families, the reference solution along the path, and integrates the
    limit SDE.  The driver's drift correction is applied automatically.
    """
    grid = Grid(fine_count, 1)
    bundle = simulate_bundle(problem.driver, grid, master_seed, path_indices,
                             component=rng.LIMIT_W)
    aux = sample_aux(grid, problem.driver.dim_m, master_seed, path_indices)
    m_series, n_series = simulate_mn(problem.driver, bundle.w, aux)
    n_used = drift_correct(n_series, problem.driver, grid.times())
    x_ref = reference(problem, bundle).values
    u = simulate_u(problem, x_ref, bundle.fine_increments(), m_series, n_used)
    return LimitRealization(times=grid.times(), w=bundle.w, x_ref=x_ref,
                            m_series=m_series, n_series=n_used, u_series=u)


def sample_error_limit_end(problem: SdeProblem, master_seed: int, n_draws: int,
                           fine_count: int = 4096, threads: int = 1) -> np.ndarray:
    """Endpoint draws U_1 of the limit law, shape (n_draws, q).

    Processes draws in chunks so large batches stay within memory; the
    values per draw index are identical for any chunk size or worker count.
    """
    def chunk_fn(idx):
        real = draw_error_limit(problem, master_seed, idx, fine_count)
        return (real.u_series[:, -1].copy(),)

    return over_chunks(n_draws, DEFAULT_CHUNK, chunk_fn, threads)[0]

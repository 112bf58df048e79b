"""Independent references that the test suite checks the instrument against.

No verb runs any of this: neither a verb module nor the package's
``__init__`` imports this module, so a verb loads none of it.  Each
reference reaches its value by another route than the code it checks:

- :func:`error_process`, the normalized error of a scheme against its
  reference solution, for the rate and law checks of the schemes;
- :func:`brownian_family`, the whole-grid draw of one stream family,
  against the blocked draws of :mod:`paths` and :mod:`limits`;
- :func:`cell_split`, the whole-array form of :func:`paths.stream_cells`;
- :func:`cube_functional` and :func:`fv_exact_nm`, the exact cube-sum form
  of the N functional, against the increments of :mod:`stats`;
- :func:`exact_quartic_mean`, the exact mean of the 7.3a statistic;
- :func:`ito_error_limit`, the limit error SDE of dX = a(X) dW + b(X) dt
  written out term by term, against :func:`limits.simulate_u`.

For a finite-variation driver the limit law degenerates to an ODE, solved
here to high accuracy by step-halved Richardson extrapolation
(:func:`fv_error_ode`), with its limit pair (N, M) from Gauss-Legendre
quadrature (:func:`fv_limit_quadrature`) and its deterministic limit
increments (:func:`fv_deterministic_mn`), which one
:func:`limits.integrate_u` call steps U through.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .limits import SQRT3, SQRT6, _trapezoid_increments
from .model import CoefficientField, SdeProblem
from .paths import DriverSpec, Grid, cell_size, running_sum
from .schemes import SchemeOutput

_ALPHA = {"sqrt_n": 0.5, "n": 1.0, "n2": 2.0}


def error_process(scheme_out: SchemeOutput, reference_out: SchemeOutput,
                  alpha: str = "n") -> np.ndarray:
    """Normalized error alpha_n (X^n - X) at the scheme's grid points.

    Shape (n_paths, n + 1, q); for n = fine_count these are every fine node.
    """
    if alpha not in _ALPHA:
        raise ValueError(f"alpha must be one of {sorted(_ALPHA)}")
    n = scheme_out.coarse_n
    if scheme_out.n_paths != reference_out.n_paths:
        raise ValueError("scheme and reference were run on different bundles")
    ref_T = reference_out.values.shape[1] - 1
    if ref_T % n:
        raise ValueError("coarse grid does not divide the reference grid")
    ref = reference_out.values[:, ::ref_T // n]
    scale = float(n) ** _ALPHA[alpha]
    return scale * (scheme_out.values - ref)


def brownian_family(grid: Grid, master_seed: int, path_indices, component: int,
                    channels: int = 1, width: int = 1) -> np.ndarray:
    """Brownian increments of one stream family on the fine grid.

    Every (path index, channel) key draws a (fine_count, width) matrix of
    normals from its own stream; scaled by sqrt(fine_dt) it fills the
    ``width`` columns from ``c * width`` of the result, which has shape
    (n_paths, fine_count, channels * width).  The running sum along the
    time axis is the path.
    """
    return rng.normal_matrix(rng.philox_keys(master_seed, component, path_indices, channels),
                             (grid.fine_count, width), scale=np.sqrt(grid.fine_dt))


def cell_split(inc: np.ndarray, coarse_n: int) -> tuple:
    """Fine increments (B, fine_count, ...) as (inc, disp) in ``coarse_n`` cells:
    (B, coarse_n, r, ...) and its running sum from 0 along the cell, r + 1 nodes."""
    r = cell_size(inc.shape[1], coarse_n)
    inc = inc.reshape(inc.shape[0], coarse_n, r, *inc.shape[2:])
    return inc, running_sum(inc, axis=2)


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
    by the component triple; each is evaluated on an array of nodes, and a
    constant may return a float.  Gauss-Legendre on 64 nodes is checked
    against 128: a gap above 1e-8 * max(1, |value|) raises ArithmeticError.
    """
    if callable(y_density):
        densities = [y_density] * 3
    else:
        densities = [y_density[c] for c in components]

    def gauss(n_nodes):
        nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
        s = 0.5 * t_end * (nodes + 1.0)
        return 0.5 * t_end * float(np.sum(weights * densities[0](s) * densities[1](s)
                                          * densities[2](s)))

    val, coarse = gauss(128), gauss(64)
    gap = abs(val - coarse)
    if not gap <= 1e-8 * max(1.0, abs(val)):
        raise ArithmeticError(f"limit quadrature did not converge (node-doubling gap {gap:g})")
    return val / 3.0, val / 6.0


def exact_quartic_mean(n: int, t: float) -> float:
    """Exact expectation of the normalized quartic time average.

    n^2 E int_0^t (W^(n))^4 ds = floor(nt)/n + (nt - floor(nt))/n^3, which
    equals 1 at t = 1 for every n.
    """
    k = math.floor(n * t)
    return k / n + (n * t - k) / n ** 3


def ito_error_limit(problem: SdeProblem, x_ref: np.ndarray, dw: np.ndarray,
                    db1: np.ndarray, db2: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Explicit error-limit SDE for dX = a(X) dW + b(X) dt.

    dU = U (a' dW + b' dt) - (1/4) a^2 b'' dt - a (a')^2 dB1 / sqrt(6)
         - a^2 a'' (dB1/sqrt6 + dB2/(4 sqrt3) + dW/4)

    with B1, B2 standard Brownian motions independent of W, all given as
    increments of shape (n_paths, T-1).  Agrees in law with
    :func:`limits.simulate_u` on the (W, t) embedding.
    """
    B, T, q = x_ref.shape
    f = problem.field.f_at(x_ref[:, :-1])
    dfv = problem.field.df_at(x_ref[:, :-1])
    hfv = problem.field.hf_at(x_ref[:, :-1])
    a, b = f[..., 0, 0], f[..., 0, 1]
    da, db = dfv[..., 0, 0, 0], dfv[..., 0, 0, 1]
    d2a, d2b = hfv[..., 0, 0, 0, 0], hfv[..., 0, 1, 0, 0]
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
    """Deterministic limit increments (dM, dN) of a finite-variation driver.

    N^j_t = (1/3) int y y^T y_j ds and M = N/2, integrated by trapezoid
    over each cell of the given grid; shape (1, T-1, d, d, d).  U stepped
    from 0 through these by :func:`limits.integrate_u` must reproduce the
    finite-variation error ODE.
    """
    y = driver.drift_at(times)
    dn = _trapezoid_increments(np.einsum("ta,tc,tj->tjac", y, y, y), times)[None] / 3.0
    return dn / 2.0, dn


def ode_curvature(field: CoefficientField, x) -> np.ndarray:
    """Curvature tensor G^{ij} = f^T Hf^{ij} + sum_k (d f^{ij}/d x_k) (Df^k)^T.

    Each G^{ij} is a (d, q) matrix; it enters the finite-variation error ODE
    through the scalar y^T G^{ij} f y.  Shape (..., q, d, d, q).
    """
    f = field.f_at(x)
    df = field.df_at(x)
    hf = field.hf_at(x)
    term1 = np.einsum("...ka,...ijkl->...ijal", f, hf)
    term2 = np.einsum("...ikj,...kla->...ijal", df, df)
    return term1 + term2


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

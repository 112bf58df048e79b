"""SDE problem definitions: coefficient matrices with derivatives.

A problem is dX = f(X) dY for a q-dimensional state and d-dimensional
driver.  Derivatives of f are supplied analytically (finite-difference
validation lives in the test suite, not at runtime, so that rate
measurements are never contaminated by FD noise).

Callback conventions, with x of shape (..., q):
    f(x)  -> (..., q, d)
    df(x) -> (..., q, q, d)   df[..., i, k, j] = d f^{ij} / d x_k
    hf(x) -> (..., q, d, q, q)  hf[..., i, j] = Hessian of f^{ij}
"""

from dataclasses import dataclass

import numpy as np

from .paths import (DriverSpec, PathBundle, brownian_motion_driver,
                    ito_embedding_driver, time_driver)

DIVERGENCE_LIMIT = 1e150  # a state beyond this magnitude has diverged


@dataclass(frozen=True)
class CoefficientField:
    dim_q: int
    dim_d: int
    f: object
    df: object
    hf: object
    growth_bound: float = 1.0

    def f_at(self, x) -> np.ndarray:
        return np.asarray(self.f(np.asarray(x, dtype=float)), dtype=float)

    def df_at(self, x) -> np.ndarray:
        return np.asarray(self.df(np.asarray(x, dtype=float)), dtype=float)

    def hf_at(self, x) -> np.ndarray:
        return np.asarray(self.hf(np.asarray(x, dtype=float)), dtype=float)


@dataclass(frozen=True)
class SdeProblem:
    """Coefficient field, driver and starting point, plus an optional
    closed-form path map (bundle -> exact solution on the fine grid)."""

    field: CoefficientField
    driver: DriverSpec
    x0: np.ndarray
    closed_form: object = None
    label: str = ""

    def __post_init__(self):
        if self.field.dim_d != self.driver.dim_d:
            raise ValueError("coefficient field and driver disagree on the driver dimension")
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        if self.x0.shape != (self.field.dim_q,):
            raise ValueError(f"x0 must have shape ({self.field.dim_q},)")


def correction_pairing(field: CoefficientField, x) -> np.ndarray:
    """Gradient/coefficient pairing h^i = (Df^i)^T f driving the
    second-order scheme correction.  Shape (..., q, d, d).

    A non-finite pairing is returned for the scheme's divergence flag to
    drop when it comes from a diverged state or from overflow; a field that
    divides by zero or is invalid at a finite state raises, see
    :func:`_check_nonfinite_pairing`."""
    f = field.f_at(x)
    df = field.df_at(x)
    out = np.einsum("...ika,...kb->...iab", df, f)
    if not np.isfinite(out).all():
        _check_nonfinite_pairing(field, x, out)
    return out


def _check_nonfinite_pairing(field: CoefficientField, x, out: np.ndarray) -> None:
    """Tell overflow from a defective field where the pairing is non-finite.

    f and Df are evaluated again on the finite states with a non-finite
    pairing, recording the floating-point errors they raise.  Overflow alone
    means the path diverged.  Division by zero, an invalid operation, or a
    non-finite value that no overflow explains means the field is defective
    at a finite state, so this raises FloatingPointError.
    """
    x = np.asarray(x, dtype=float)
    rows = np.isfinite(x).all(axis=-1) & ~np.isfinite(out).all(axis=(-3, -2, -1))
    if not rows.any():
        return
    errors = set()
    with np.errstate(all="call", under="ignore", call=lambda kind, _: errors.add(kind)):
        f = field.f_at(x[rows])
        df = field.df_at(x[rows])
    unexplained = "overflow" not in errors and not (np.isfinite(f).all() and np.isfinite(df).all())
    if errors - {"overflow"} or unexplained:
        raise FloatingPointError("correction pairing evaluated non-finite at a finite state "
                                 f"({', '.join(sorted(errors)) or 'no floating-point error'})")


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


def scalar_field(f, df, d2f, growth_bound: float = 1.0) -> CoefficientField:
    """Coefficient field for a one-dimensional state and driver."""
    def f_cb(x):
        return np.asarray(f(x[..., 0]))[..., None, None]

    def df_cb(x):
        return np.asarray(df(x[..., 0]))[..., None, None, None]

    def hf_cb(x):
        return np.asarray(d2f(x[..., 0]))[..., None, None, None, None]

    return CoefficientField(dim_q=1, dim_d=1, f=f_cb, df=df_cb, hf=hf_cb,
                            growth_bound=growth_bound)


def ito_field(a, da, d2a, b, db, d2b, growth_bound: float = 1.0) -> CoefficientField:
    """Coefficient field (a(x), b(x)) against the (W, t) driver pair."""
    def f_cb(x):
        v = x[..., 0]
        return np.stack([np.broadcast_to(a(v), v.shape),
                         np.broadcast_to(b(v), v.shape)], axis=-1)[..., None, :]

    def df_cb(x):
        v = x[..., 0]
        return np.stack([np.broadcast_to(da(v), v.shape),
                         np.broadcast_to(db(v), v.shape)], axis=-1)[..., None, None, :]

    def hf_cb(x):
        v = x[..., 0]
        return np.stack([np.broadcast_to(d2a(v), v.shape),
                         np.broadcast_to(d2b(v), v.shape)], axis=-1)[..., None, :, None, None]

    return CoefficientField(dim_q=1, dim_d=2, f=f_cb, df=df_cb, hf=hf_cb,
                            growth_bound=growth_bound)


def ito_problem(a, da, d2a, b, db, d2b, x0=1.0, closed_form=None,
                label: str = "ito", growth_bound: float = 1.0) -> SdeProblem:
    """Generic Ito-type problem dX = a(X) dW + b(X) dt via the (W, t) driver."""
    return SdeProblem(field=ito_field(a, da, d2a, b, db, d2b, growth_bound),
                      driver=ito_embedding_driver(), x0=x0,
                      closed_form=closed_form, label=label)


def _gbm_closed_form(x0: float):
    def cf(bundle: PathBundle) -> np.ndarray:
        t = bundle.grid.times()
        return (x0 * np.exp(bundle.y[:, :, 0] - 0.5 * t))[..., None]
    return cf


def _gbm_drift_closed_form(x0: float, alpha: float, beta: float):
    def cf(bundle: PathBundle) -> np.ndarray:
        t = bundle.grid.times()
        w = bundle.w[:, :, 0]
        return (x0 * np.exp(alpha * w + (beta - 0.5 * alpha ** 2) * t))[..., None]
    return cf


def make_gbm(x0: float = 1.0) -> SdeProblem:
    """dX = X dW with exact solution x0 exp(W_t - t/2)."""
    one = np.ones_like
    return SdeProblem(field=scalar_field(lambda x: x, lambda x: one(x), lambda x: 0.0 * x),
                      driver=brownian_motion_driver(1), x0=x0,
                      closed_form=_gbm_closed_form(x0), label="gbm")


def make_det_exp(x0: float = 1.0) -> SdeProblem:
    """dX = X dt via the deterministic driver Y_t = t; solution x0 e^t."""
    one = np.ones_like

    def cf(bundle: PathBundle) -> np.ndarray:
        t = bundle.grid.times()
        vals = x0 * np.exp(t)
        return np.broadcast_to(vals[:, None], (bundle.n_paths, len(t), 1)).copy()

    return SdeProblem(field=scalar_field(lambda x: x, lambda x: one(x), lambda x: 0.0 * x),
                      driver=time_driver(), x0=x0, closed_form=cf, label="det-exp")


def make_gbm_drift(x0: float = 1.0, alpha: float = 1.0, beta: float = 1.0) -> SdeProblem:
    """dX = alpha X dW + beta X dt through the (W, t) embedding."""
    return ito_problem(a=lambda x: alpha * x, da=lambda x: alpha * np.ones_like(x),
                       d2a=lambda x: 0.0 * x,
                       b=lambda x: beta * x, db=lambda x: beta * np.ones_like(x),
                       d2b=lambda x: 0.0 * x,
                       x0=x0, closed_form=_gbm_drift_closed_form(x0, alpha, beta),
                       label="gbm-drift", growth_bound=float(np.hypot(alpha, beta)))


def make_ou(x0: float = 1.0, noise: float = 0.5, kappa: float = 1.0) -> SdeProblem:
    """Additive-noise mean reversion dX = noise dW - kappa X dt (no closed form)."""
    return ito_problem(a=lambda x: noise * np.ones_like(x), da=lambda x: 0.0 * x,
                       d2a=lambda x: 0.0 * x,
                       b=lambda x: -kappa * x, db=lambda x: -kappa * np.ones_like(x),
                       d2b=lambda x: 0.0 * x,
                       x0=x0, label="ou", growth_bound=max(noise, kappa))


_REGISTRY = {
    "gbm": make_gbm,
    "gbm-drift": make_gbm_drift,
    "det-exp": make_det_exp,
    "ou": make_ou,
}


def builtin_models() -> dict:
    """Name -> factory for the bundled models."""
    return dict(_REGISTRY)


def get_model(name: str, **kwargs) -> SdeProblem:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown model '{name}'; available: {sorted(_REGISTRY)}") from None
    return factory(**kwargs)

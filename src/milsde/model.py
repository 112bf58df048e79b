"""SDE problem definitions: coefficient matrices with derivatives.

A problem is dX = f(X) dY for a q-dimensional state and d-dimensional
driver.  Derivatives of f are supplied analytically (finite-difference
validation lives in the test suite, not at runtime, so that rate
measurements are never contaminated by FD noise).

Callback conventions, with x of shape (..., q):
    f(x)  -> (..., q, d)
    df(x) -> (..., q, q, d)   df[..., i, k, j] = d f^{ij} / d x_k
    hf(x) -> (..., q, d, q, q)  hf[..., i, j] = Hessian of f^{ij}

A field that is affine in x declares it with ``hf = None``: its Hessian
vanishes, and so does the N term of the limit error equation, which a limit
chunk then does not form (see :mod:`limits`).

A field whose pairing h^i_{ab} = sum_k df[i, k, a] f[k, b] (see
:func:`correction_pairing`) is symmetric in (a, b) at every x declares it
with ``commutative = True``.  Milstein's correction sum_{ab} h^i_{ba} K_{ab}
then reads only K's symmetric part, which a cell's own dY gives, so its
scheme runs no sub-grid K pass (see :func:`schemes.has_levy_area`).  A field
declares nothing by default; a scalar driver needs no declaration.
"""

from dataclasses import dataclass

import numpy as np

from .paths import DriverSpec, brownian_motion_driver, ito_embedding_driver, time_driver

DIVERGENCE_LIMIT = 1e150  # a state beyond this magnitude has diverged


@dataclass(frozen=True)
class CoefficientField:
    """f and its first two derivatives, as callbacks of x (see the module docstring).

    ``hf`` is None when f is affine in x; :meth:`hf_at` then returns zeros.
    ``commutative`` declares the pairing symmetric in (a, b) at every x.
    """

    dim_q: int
    dim_d: int
    f: object
    df: object
    hf: object
    growth_bound: float = 1.0
    commutative: bool = False

    def f_at(self, x) -> np.ndarray:
        return np.asarray(self.f(np.asarray(x, dtype=float)), dtype=float)

    def df_at(self, x) -> np.ndarray:
        return np.asarray(self.df(np.asarray(x, dtype=float)), dtype=float)

    def hf_at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.hf is None:
            return np.zeros((*x.shape, self.dim_d, self.dim_q, self.dim_q))
        return np.asarray(self.hf(x), dtype=float)


@dataclass(frozen=True)
class SdeProblem:
    """Coefficient field, driver and starting point, plus an optional
    closed-form path map.

    ``closed_form(w, y, t)`` maps the driver's Brownian path ``w``
    (n_paths, T, m) and path ``y`` (n_paths, T, d) at the nodes ``t`` (T,)
    to the exact solution at those nodes, (n_paths, T, q).  It must act node
    by node: its value at a node reads that node's w, y and t only, so that
    it may be evaluated on any block of paths and of nodes.

    ``zero_limit`` marks a problem whose limit error U is identically 0, so
    that the law of n (X^n - X) tends to the point mass at 0: additive noise
    (every term of U's equation vanishes) or no noise at all.  The bundled
    factories set it, and ``error-law`` refuses such a model, since a law
    comparison against a point mass checks nothing."""

    field: CoefficientField
    driver: DriverSpec
    x0: np.ndarray
    closed_form: object = None
    label: str = ""
    zero_limit: bool = False

    def __post_init__(self):
        if self.field.dim_d != self.driver.dim_d:
            raise ValueError("coefficient field and driver disagree on the driver dimension")
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        if self.x0.shape != (self.field.dim_q,):
            raise ValueError(f"x0 must have shape ({self.field.dim_q},)")


def correction_pairing(field: CoefficientField, x, f: np.ndarray = None) -> np.ndarray:
    """Gradient/coefficient pairing h^i = (Df^i)^T f driving the
    second-order scheme correction.  Shape (..., q, d, d).

    ``f`` is ``field.f_at(x)`` when the caller has it already, as a scheme
    step does; otherwise it is evaluated here.  A non-finite pairing is
    returned for the scheme's divergence flag to drop when it comes from a
    diverged state or from overflow; a field that divides by zero or is
    invalid at a finite state raises, see :func:`_check_nonfinite_pairing`,
    which evaluates f and Df afresh."""
    if f is None:
        f = field.f_at(x)
    out = np.einsum("...ika,...kb->...iab", field.df_at(x), f)
    if not np.isfinite(out).all():
        _check_nonfinite_pairing(field, x, out)
    return out


def check_commutative(field: CoefficientField, x) -> None:
    """Raise ValueError if ``field``'s pairing at the states ``x``, (..., q), is not symmetric.

    A field that declares itself commutative has h^i_{ab} = h^i_{ba} up to
    rounding: each side rounds twice, so they agree within 4 eps of max |h|.
    A run that takes the declaration's word checks it here, on states it
    already holds; no states, no check.
    """
    h = correction_pairing(field, x)
    if not h.size:
        return
    gap = np.abs(h - np.swapaxes(h, -1, -2)).max()
    if gap > 4 * np.finfo(float).eps * np.abs(h).max():
        raise ValueError(f"the field declares itself commutative, but its pairing "
                         f"h_ab - h_ba reaches {gap:.3g} at the run's states")


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


def scalar_field(f, df, d2f, growth_bound: float = 1.0) -> CoefficientField:
    """Coefficient field for a one-dimensional state and driver.

    ``d2f`` is None, passed explicitly, when f is affine (see
    :class:`CoefficientField`).
    """
    def f_cb(x):
        return np.asarray(f(x[..., 0]))[..., None, None]

    def df_cb(x):
        return np.asarray(df(x[..., 0]))[..., None, None, None]

    def hf_cb(x):
        return np.asarray(d2f(x[..., 0]))[..., None, None, None, None]

    return CoefficientField(dim_q=1, dim_d=1, f=f_cb, df=df_cb,
                            hf=None if d2f is None else hf_cb, growth_bound=growth_bound)


def _pair(w, z, x) -> np.ndarray:
    """(w(v), z(v)) along a last axis for v = x[..., 0], each broadcast to v."""
    v = x[..., 0]
    out = np.empty((*v.shape, 2))
    out[..., 0] = w(v)
    out[..., 1] = z(v)
    return out


def ito_field(a, da, d2a, b, db, d2b, growth_bound: float = 1.0,
              commutative: bool = False) -> CoefficientField:
    """Coefficient field (a(x), b(x)) against the (W, t) driver pair.

    ``d2a`` and ``d2b`` are both None, passed explicitly, when a and b are
    affine (see :class:`CoefficientField`); a curved one gives both.
    ``commutative`` declares a' b = b' a at every x, so that the pairing is
    symmetric.
    """
    if (d2a is None) != (d2b is None):
        raise ValueError("d2a and d2b must both be None (a and b affine) or both be given")

    def f_cb(x):
        return _pair(a, b, x)[..., None, :]

    def df_cb(x):
        return _pair(da, db, x)[..., None, None, :]

    def hf_cb(x):
        return _pair(d2a, d2b, x)[..., None, :, None, None]

    return CoefficientField(dim_q=1, dim_d=2, f=f_cb, df=df_cb,
                            hf=None if d2a is None else hf_cb, growth_bound=growth_bound,
                            commutative=commutative)


def ito_problem(a, da, d2a, b, db, d2b, x0=1.0, closed_form=None,
                label: str = "ito", growth_bound: float = 1.0,
                zero_limit: bool = False, commutative: bool = False) -> SdeProblem:
    """Generic Ito-type problem dX = a(X) dW + b(X) dt via the (W, t) driver."""
    return SdeProblem(field=ito_field(a, da, d2a, b, db, d2b, growth_bound, commutative),
                      driver=ito_embedding_driver(), x0=x0,
                      closed_form=closed_form, label=label, zero_limit=zero_limit)


def _scaled_exp(out: np.ndarray, x0: float) -> np.ndarray:
    """x0 exp(out) as a (..., 1) state, computed in the buffer ``out``."""
    np.exp(out, out=out)
    out *= x0
    return out[..., None]


def _gbm_closed_form(x0: float):
    def cf(w, y, t) -> np.ndarray:
        out = y[:, :, 0] - 0.5 * t
        return _scaled_exp(out, x0)
    return cf


def _gbm_drift_closed_form(x0: float, alpha: float, beta: float):
    def cf(w, y, t) -> np.ndarray:
        out = alpha * w[:, :, 0]
        out += (beta - 0.5 * alpha ** 2) * t
        return _scaled_exp(out, x0)
    return cf


def make_gbm(x0: float = 1.0) -> SdeProblem:
    """dX = X dW with exact solution x0 exp(W_t - t/2)."""
    one = np.ones_like
    return SdeProblem(field=scalar_field(lambda x: x, lambda x: one(x), None),
                      driver=brownian_motion_driver(1), x0=x0,
                      closed_form=_gbm_closed_form(x0), label="gbm")


def make_det_exp(x0: float = 1.0) -> SdeProblem:
    """dX = X dt via the deterministic driver Y_t = t; solution x0 e^t."""
    one = np.ones_like

    def cf(w, y, t) -> np.ndarray:
        vals = x0 * np.exp(t)
        return np.broadcast_to(vals[:, None], (len(y), len(t), 1)).copy()

    return SdeProblem(field=scalar_field(lambda x: x, lambda x: one(x), None),
                      driver=time_driver(), x0=x0, closed_form=cf, label="det-exp",
                      zero_limit=True)


def make_gbm_drift(x0: float = 1.0, alpha: float = 1.0, beta: float = 1.0) -> SdeProblem:
    """dX = alpha X dW + beta X dt through the (W, t) embedding.

    Its pairing h_{ab} = c_a c_b x, with c = (alpha, beta), is symmetric, so
    the field declares itself commutative."""
    return ito_problem(a=lambda x: alpha * x, da=lambda x: alpha * np.ones_like(x),
                       d2a=None,
                       b=lambda x: beta * x, db=lambda x: beta * np.ones_like(x), d2b=None,
                       x0=x0, closed_form=_gbm_drift_closed_form(x0, alpha, beta),
                       label="gbm-drift", growth_bound=float(np.hypot(alpha, beta)),
                       commutative=True)


def make_ou(x0: float = 1.0, noise: float = 0.5, kappa: float = 1.0) -> SdeProblem:
    """Additive-noise mean reversion dX = noise dW - kappa X dt (no closed form)."""
    return ito_problem(a=lambda x: noise * np.ones_like(x), da=lambda x: 0.0 * x,
                       d2a=None,
                       b=lambda x: -kappa * x, db=lambda x: -kappa * np.ones_like(x), d2b=None,
                       x0=x0, label="ou", growth_bound=max(noise, kappa), zero_limit=True)


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

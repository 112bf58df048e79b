"""Batch experiment engine: rate fits, moment estimates, law comparison.

Coupling contract: a rate fit evaluates every coarseness on the same
bundles, so per-path errors are comparable across n and the variance of
the fitted slope stays small.  Paths flagged as diverged anywhere are
dropped from every coarseness (pairwise exclusion).

Determinism: path statistics run through :func:`paths.over_chunks`, so
reports are byte-identical for any chunk size or worker count.

Memory: a rate chunk hashes its paths' stream keys once and makes one pass
over cache blocks of them (:func:`paths.stream_paths`).  Each block is
drawn and assembled, then reduced, in buffers reused by every block, to
what the levels read: the driver at the base grid lcm(n_list)'s nodes, the
reference there, flagged at every fine node, and K on its cells only where
the scheme reads the sub-grid K (:data:`_SUBGRID_K`): Milstein's step forms
K from each cell's own dY when the cell's Levy area cannot reach it, on a
scalar driver or a commutative field.  The levels
then run on base-grid arrays only, so no fine path of the whole chunk is
ever held, except the fine Y that a model without a closed form marches
its reference over.  A d > 1 field's commutative declaration, which
Milstein takes on its word, is checked once per chunk on the reference's
last states (:func:`model.check_commutative`).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import limits, rng, schemes
from .model import SdeProblem, check_commutative
# simulate_bundle is not called here; perfbench/tracer.py wraps it under this name
from .paths import (DEFAULT_CHUNK, PathBundle, make_grid, over_chunks,  # noqa: F401
                    simulate_bundle, stream_paths)

RATE_MIN_SIZES = 3  # grid sizes a rate fit needs
RATE_MIN_SPAN = 8  # least max(n) / min(n) of a rate fit
LAW_MIN_SAMPLES = 1000  # samples per side of a law comparison
MOMENT_MIN_SAMPLES = 30  # samples a moment estimate needs
KS_COEFF_95 = 1.358  # classical two-sample 95% point: c * sqrt((n1+n2)/(n1*n2))


@dataclass(frozen=True)
class Moments:
    n: int
    mean: float
    mean_se: float
    variance: float
    variance_se: float


def estimate_moments(samples: np.ndarray) -> Moments:
    """Mean and unbiased variance with standard errors.

    The SE of the variance uses the fourth-moment formula
    Var(s^2) = (m4 - s^4 (N-3)/(N-1)) / N, evaluated on the same sample.
    """
    x = np.asarray(samples, dtype=float).ravel()
    n = x.size
    if n < MOMENT_MIN_SAMPLES:
        raise ValueError(f"need at least {MOMENT_MIN_SAMPLES} samples, got {n}")
    mean = float(x.mean())
    var = float(x.var(ddof=1))
    m4 = float(np.mean((x - mean) ** 4))
    var_of_var = max(0.0, (m4 - var ** 2 * (n - 3) / (n - 1)) / n)
    return Moments(n=n, mean=mean, mean_se=math.sqrt(var / n),
                   variance=var, variance_se=math.sqrt(var_of_var))


def ks_statistic(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """Exact two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a = np.sort(np.asarray(sample_a, dtype=float).ravel())
    b = np.sort(np.asarray(sample_b, dtype=float).ravel())
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


def ks_same_law_95(n1: int, n2: int) -> float:
    """95th percentile of the two-sample statistic under equal laws."""
    return KS_COEFF_95 * math.sqrt((n1 + n2) / (n1 * n2))


@dataclass(frozen=True)
class DistanceReport:
    ks: tuple  # per state component
    size_a: int
    size_b: int
    same_law_95: float
    mean_delta: tuple
    variance_delta: tuple


def compare_distributions(sample_a: np.ndarray, sample_b: np.ndarray,
                          min_size: int = LAW_MIN_SAMPLES) -> DistanceReport:
    """Component-wise KS distance plus moment deltas at t = 1."""
    a = np.atleast_2d(np.asarray(sample_a, dtype=float).T).T
    b = np.atleast_2d(np.asarray(sample_b, dtype=float).T).T
    if a.shape[0] < min_size or b.shape[0] < min_size:
        raise ValueError(f"need at least {min_size} samples per side")
    if a.shape[1] != b.shape[1]:
        raise ValueError("samples have different state dimension")
    ks = tuple(ks_statistic(a[:, i], b[:, i]) for i in range(a.shape[1]))
    mean_delta = tuple(float(a[:, i].mean() - b[:, i].mean()) for i in range(a.shape[1]))
    var_delta = tuple(float(a[:, i].var(ddof=1) - b[:, i].var(ddof=1))
                      for i in range(a.shape[1]))
    return DistanceReport(ks=ks, size_a=a.shape[0], size_b=b.shape[0],
                          same_law_95=ks_same_law_95(a.shape[0], b.shape[0]),
                          mean_delta=mean_delta, variance_delta=var_delta)


def null_tolerance(se: float, bias_budget: float) -> float:
    """Half-width of a null check's band around zero: 3 SE + budget."""
    tol = 3.0 * se + bias_budget
    if se < 0 or tol <= 0:
        raise ValueError("a null check needs a non-negative standard error and a positive band")
    return tol


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    residuals: tuple


def fit_rate(n_list, errors) -> RateFit:
    """Least-squares slope of log(error) against log(n)."""
    n_arr = np.asarray(n_list, dtype=float)
    e_arr = np.asarray(errors, dtype=float)
    if len(set(n_arr.tolist())) < RATE_MIN_SIZES:
        raise ValueError(f"rate fits need at least {RATE_MIN_SIZES} distinct grid sizes")
    if n_arr.max() / n_arr.min() < RATE_MIN_SPAN:
        raise ValueError(f"rate fits need an {RATE_MIN_SPAN}x span of grid sizes")
    if np.any(e_arr <= 0):
        raise ValueError("errors must be positive for a log-log fit")
    lx, ly = np.log(n_arr), np.log(e_arr)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=r2,
                   residuals=tuple(float(v) for v in ly - pred))


_SCHEMES = {
    "euler": schemes.euler,
    "milstein": schemes.milstein,
    "milstein54": schemes.milstein_ito54,
}
# scheme -> whether its levels read a problem's sub-grid K: Euler reads no
# K, Milstein only where a cell's Levy area reaches its step, and
# milstein54, the written-out cross-check of Milstein's own-dY K, always
_SUBGRID_K = {
    "euler": lambda problem: False,
    "milstein": lambda problem: schemes.has_levy_area(problem.driver, problem.field),
    "milstein54": lambda problem: True,
}


def scheme_names() -> tuple:
    return tuple(sorted(_SCHEMES))


@dataclass(frozen=True)
class RatePoint:
    n: int
    rms: float
    rms_se: float
    sup_rms: float
    mean_abs: float


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    points: tuple = ()
    rate_fit: RateFit = None
    moments: dict = field(default_factory=dict)
    distance: DistanceReport = None
    excluded_paths: int = 0
    passed: bool = True
    notes: tuple = ()

    def to_dict(self) -> dict:
        out = {"config": dict(self.config), "excluded_paths": self.excluded_paths,
               "passed": bool(self.passed), "notes": list(self.notes)}
        if self.points:
            out["points"] = [vars(p) for p in self.points]
        if self.rate_fit is not None:
            out["rate_fit"] = {"slope": self.rate_fit.slope,
                               "intercept": self.rate_fit.intercept,
                               "r_squared": self.rate_fit.r_squared,
                               "residuals": list(self.rate_fit.residuals)}
        if self.moments:
            out["moments"] = {k: vars(v) for k, v in self.moments.items()}
        if self.distance is not None:
            d = self.distance
            out["distance"] = {"ks": list(d.ks), "size_a": d.size_a, "size_b": d.size_b,
                               "same_law_95": d.same_law_95,
                               "mean_delta": list(d.mean_delta),
                               "variance_delta": list(d.variance_delta)}
        return out


def scheme_error_samples(problem: SdeProblem, scheme: str, n_list, paths: int,
                         fine_factor: int, seed: int, threads: int = 1) -> dict:
    """Coupled endpoint errors X^n_1 - X_1 for every n in n_list.

    Returns {"err": {n: (paths, q) array}, "sup": {n: (paths,)},
    "kept": bool mask} with diverged paths flagged (not yet dropped).
    """
    if scheme not in _SCHEMES:
        raise KeyError(f"unknown scheme '{scheme}'; available: {sorted(_SCHEMES)}")
    n_list = sorted(int(n) for n in n_list)
    n_max = n_list[-1]
    grid = make_grid(n_max, fine_factor)
    for n in n_list:
        if grid.fine_count % n:
            raise ValueError(f"n={n} does not divide the common fine grid "
                             f"of {grid.fine_count}")
    runner = _SCHEMES[scheme]
    subgrid_k = _SUBGRID_K[scheme](problem)
    # Milstein's own-dY K on a d > 1 driver takes the field's declaration
    # that it is commutative on its word; each chunk checks that word on
    # the reference's last states
    check_pairing = (scheme == "milstein" and problem.driver.dim_d > 1
                     and problem.field.commutative)
    base = math.lcm(*n_list)  # divides the fine grid, since every n does
    every = grid.fine_count // base
    # what depends on the grid alone is formed once per chunk, not per block
    qv_base = problem.driver.cell_qv(np.arange(base + 1) / base)

    def reduce(bundle, space):
        # one block of paths reduced to what the levels read: Y at the base
        # nodes, the sub-grid K summed once, at the base level (the levels
        # fold it), and the reference there, flagged at every fine node; a
        # marched reference needs the fine Y of every path instead
        out = [bundle.y[:, ::every]]
        if subgrid_k:
            out.append(schemes.iterated_integrals(bundle, base, qv_base, space))
        if problem.closed_form is None:
            out.append(bundle.y)
        else:
            ref = schemes.reference(problem, bundle, every=every)
            out += [ref.values, ref.diverged]
        return out

    def base_grid(idx):
        """The chunk on the base grid: its driver, sub-grid K or None, reference and paths kept."""
        keys = rng.philox_keys(seed, rng.DRIVER_W, idx, 1)
        ybase, *cols = stream_paths(problem.driver, grid, keys, reduce)
        kbase = cols.pop(0) if subgrid_k else None
        if problem.closed_form is None:  # the march runs across all of the chunk's paths
            fine = PathBundle(grid, problem.driver, None, cols.pop(), None)
            ref = schemes.reference(problem, fine, every=every)
            cols = [ref.values, ref.diverged]
        ref_values, diverged = cols
        bundle = PathBundle(make_grid(base, 1), problem.driver, None, ybase, None)
        return bundle, kbase, ref_values, ~diverged

    def work(idx):
        bundle, kbase, ref_values, kept = base_grid(idx)
        ref_end = ref_values[:, -1]
        if check_pairing:
            check_commutative(problem.field, ref_end[kept])
        err, sup = [], []
        for n in n_list:
            if kbase is None:
                out = runner(problem, bundle, n)
            else:
                out = runner(problem, bundle, n, kmat=kbase if n == base else
                             schemes.fold_iterated_integrals(bundle, kbase, n))
            kept &= ~out.diverged
            with np.errstate(over="ignore", invalid="ignore"):  # on diverged rows only
                err.append(out.values[:, -1] - ref_end)
                # the gap and its square overwrite the scheme's values, which
                # are not read again; sqrt is monotone, so it follows the max
                gap = out.values
                gap -= ref_values[:, ::(base // n)]
                gap *= gap
                sup.append(np.sqrt(np.add.reduce(gap, axis=2).max(axis=1)))
        return (kept, *err, *sup)

    kept, *cols = over_chunks(paths, DEFAULT_CHUNK, work, threads)
    return {"err": dict(zip(n_list, cols)), "sup": dict(zip(n_list, cols[len(n_list):])),
            "kept": kept, "n_list": n_list}


def run_rate_experiment(problem: SdeProblem, scheme: str, n_list, paths: int,
                        fine_factor: int, seed: int, threads: int = 1) -> ExperimentReport:
    """Strong-error decay fit over coupled paths.

    Per n the error is the root mean square of |X^n_1 - X_1| over kept
    paths; the slope is a least-squares fit of log(rms) against log(n).
    """
    data = scheme_error_samples(problem, scheme, n_list, paths, fine_factor, seed, threads)
    kept = data["kept"]
    if not kept.any():
        raise ArithmeticError("all paths diverged")
    points = []
    for n in data["n_list"]:
        sq = np.sum(data["err"][n][kept] ** 2, axis=1)
        rms = math.sqrt(float(sq.mean()))
        rms_se = float(sq.std(ddof=1) / math.sqrt(sq.size)) / (2 * rms) \
            if rms > 0 and sq.size > 1 else 0.0
        points.append(RatePoint(n=n, rms=rms, rms_se=rms_se,
                                sup_rms=math.sqrt(float((data["sup"][n][kept] ** 2).mean())),
                                mean_abs=float(np.sqrt(sq).mean())))
    fit = fit_rate([p.n for p in points], [p.rms for p in points])
    config = {"model": problem.label, "scheme": scheme, "n_list": list(data["n_list"]),
              "paths": paths, "fine_factor": fine_factor, "seed": seed,
              "iterated": "exact"}  # K's only form; the report schema keeps the key
    return ExperimentReport(config=config, points=tuple(points), rate_fit=fit,
                            excluded_paths=int((~kept).sum()))


def error_law_samples(problem: SdeProblem, n: int, paths: int, fine_factor: int,
                      seed: int, threads: int = 1) -> np.ndarray:
    """Endpoint samples of the normalized error n (X^n_1 - X_1), shape (paths, q)."""
    data = scheme_error_samples(problem, "milstein", [n], paths, fine_factor, seed, threads)
    if not data["kept"].all():
        raise ArithmeticError(f"{int((~data['kept']).sum())} paths diverged in the "
                              "error-law run")
    return n * data["err"][n]


def run_error_law(problem: SdeProblem, n: int, paths: int, draws: int,
                  fine_factor: int, seed: int, fine_count: int = 4096,
                  threads: int = 1, ks_threshold: float = 0.05) -> ExperimentReport:
    """Compare the law of n U^n_1 with the simulated limit law of U_1.

    Reports moments of both samples, a two-sample 3-SE variance band and
    the component-wise KS distance against ``ks_threshold`` (a soft
    criterion: the scheme sample carries finite-n bias).
    """
    scheme_sample = error_law_samples(problem, n, paths, fine_factor, seed, threads)
    limit_sample = limits.limit_samples(problem, seed, draws, fine_count, threads)[0]
    mom_scheme = estimate_moments(scheme_sample[:, 0])
    mom_limit = estimate_moments(limit_sample[:, 0])
    dist = compare_distributions(scheme_sample, limit_sample)
    var_gap = abs(mom_scheme.variance - mom_limit.variance)
    var_band = 3.0 * math.hypot(mom_scheme.variance_se, mom_limit.variance_se)
    passed = var_gap <= var_band and max(dist.ks) <= ks_threshold
    config = {"model": problem.label, "scheme": "milstein", "n": n, "paths": paths,
              "draws": draws, "fine_factor": fine_factor, "fine_count": fine_count,
              "seed": seed, "ks_threshold": ks_threshold}
    return ExperimentReport(config=config,
                            moments={"scheme": mom_scheme, "limit": mom_limit},
                            distance=dist, passed=passed,
                            notes=(f"variance gap {var_gap:.4g} vs 3-SE band {var_band:.4g}",))

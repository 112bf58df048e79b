"""Closed-form targets for the time-average and covariation statistics.

Each case evaluates a normalized functional of independent Brownian paths
(or deterministic densities) whose limit constant is known, and reports
estimate, standard error and target.  Stochastic integrals are left-point
Ito sums; time integrals use a per-coarse-cell trapezoid whose nodes carry
the left-open anchor, so the quartic case keeps its exact unit expectation
up to O(1/fine_factor^2).

A stochastic case runs its paths in chunks of :data:`paths.DEFAULT_CHUNK`,
the unit of threading and of stream-key hashing, and each chunk through
:func:`paths.stream_cells`: a block of paths' Brownian increments is drawn
into a reused buffer, cell-split into a second and reduced to its per-path
statistics, its products formed in the streamer's reused work slots,
before the next block is drawn.  So an oracle chunk holds one block's
buffers, never a full-size noise or cell split.  A block bounds memory
only: each path's statistics see the same arithmetic in any block, so no
result depends on it.  Every case draws the oracle streams but 7.6, whose
Brownian driver draws the scheme paths' stream family.

The table :data:`CASES` is the CLI vocabulary: it declares every case id
once, in order, with the function making its rows and its config floor.
    7.2a 7.2b 7.2c 7.2r   deterministic quadrature checks
    7.3, 7.3a .. 7.3e     quartic time averages of four Brownian paths
    7.4, 7.4a 7.4b        nested-integral time averages
    7.6                   covariation fingerprints of the path functionals
    7.7-80                drift-coupled square displacement
    null                  the five vanishing mixed statistics
A family id (7.3, 7.4) is the common prefix of its sub-case ids and
reports every one of them from one sweep of the shared Brownian paths.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import montecarlo, rng, stats
# simulate_bundle is not called here; perfbench/tracer.py wraps it under this name
from .paths import (DEFAULT_CHUNK, Grid, _gauss_legendre, over_chunks,  # noqa: F401
                    simulate_bundle, stream_cells)


@dataclass(frozen=True)
class OracleRow:
    case: str
    subcase: str
    n: int
    estimate: float
    se: float
    target: float
    tolerance: float
    passed: bool
    note: str = ""


def _trapz_cells(values_nodes: np.ndarray) -> np.ndarray:
    """Per-path sum of the per-cell trapezoids of (B, n, r) node values 1..r
    on the n*r fine cells of [0, 1], node 0 of every cell being 0: (B,)."""
    _, n, r = values_nodes.shape
    full = values_nodes[:, :, :-1].sum(axis=(1, 2))
    half = 0.5 * values_nodes[:, :, -1].sum(axis=1)
    return (full + half) * (1.0 / (n * r))


# (W, B, U, V) column picks from four independent paths, with targets
_QUARTIC_CASES = {
    "7.3a": ((0, 0, 0, 0), 1.0),
    "7.3b": ((0, 0, 1, 1), 1.0 / 3.0),
    "7.3c": ((0, 0, 0, 1), 0.0),
    "7.3d": ((0, 0, 1, 2), 0.0),
    "7.3e": ((0, 1, 2, 3), 0.0),
}

_NESTED_CASES = {
    "7.4a": (("inner_product", (0, 1, 0, 1), 1.0 / 6.0),
             ("inner_product", (0, 1, 2, 3), 0.0)),
    "7.4b": (("pair_inner", (0, 0, 0, 0), 1.0 / 3.0),
             ("pair_inner", (0, 1, 0, 1), 1.0 / 6.0),
             ("pair_inner", (0, 1, 1, 0), 1.0 / 6.0),
             ("pair_inner", (0, 1, 2, 3), 0.0)),
}

# work slots of a family's block: the 7.3 combos share five product
# prefixes, the 7.4 sub-cases read four distinct inner integrals; one more
# slot holds the product being reduced
_QUARTIC_SLOTS = 6
_NESTED_SLOTS = 5


def quartic_time_average(nodes: np.ndarray, combos: list, work: np.ndarray) -> list:
    """Per-path n^2 int prod_i P_i^(n) ds for each 4-column combination.

    ``nodes`` holds the node values 1..r of each column, (columns, B, n, r).
    Each product prefix shared by several combos is formed once, always in
    the order ((a*b)*c)*d, into the (B, n, r) arrays of ``work``: one per
    distinct prefix of length 2 or 3, and one more for the full product.
    """
    prefixes, out = {}, []
    for combo in combos:
        prod = nodes[combo[0]]
        for k in range(2, len(combo)):
            if combo[:k] not in prefixes:
                prefixes[combo[:k]] = np.multiply(prod, nodes[combo[k - 1]],
                                                  out=work[len(prefixes)])
            prod = prefixes[combo[:k]]
        prod = np.multiply(prod, nodes[combo[-1]], out=work[-1])
        out.append(nodes.shape[2] ** 2 * _trapz_cells(prod))
    return out


def nested_time_average(dyc: np.ndarray, disp: np.ndarray, specs: list,
                        work: np.ndarray) -> list:
    """Per-path statistics of the nested-integral time averages.

    ``dyc`` and ``disp`` are a block's channel-major increments and
    displacements (see :func:`paths.stream_cells`); ``specs`` lists (kind, combo)
    pairs.  Each within-cell integral ``inner(u, v)`` is formed once for all
    of them, into its own (B, n, r) array of ``work``; the last one holds
    the integrand or product at hand.
    """
    inners, out = {}, []
    prod = work[-1]

    def inner(u, v):
        # within-cell left-point integral of column u against column v, nodes 1..r
        if (u, v) not in inners:
            np.multiply(disp[u, :, :, :-1], dyc[v], out=prod)
            inners[u, v] = np.cumsum(prod, axis=2, out=work[len(inners)])
        return inners[u, v]

    for kind, (w, b, u, v) in specs:
        if kind == "inner_product":
            np.multiply(inner(w, b), inner(u, v), out=prod)
        elif kind == "pair_inner":
            uv = inner(u, v)
            np.multiply(disp[w, :, :, 1:], disp[b, :, :, 1:], out=prod)
            np.multiply(prod, uv, out=prod)
        else:
            raise ValueError(f"unknown nested statistic '{kind}'")
        out.append(dyc.shape[2] ** 2 * _trapz_cells(prod))
    return out


def _row(case, subcase, n, fine_factor, sample, target, relative_tol=None) -> OracleRow:
    """A row's verdict: a zero target is a null check with a bias budget of
    0.5 / fine_factor, a non-zero one a ``relative_tol`` or 3-SE band."""
    est = float(sample.mean())
    se = float(sample.std(ddof=1) / math.sqrt(sample.size))
    if target == 0.0:
        null_budget = 0.5 / fine_factor
        tol = montecarlo.null_tolerance(se, null_budget)
        note = f"null check, bias budget {null_budget:.3g}"
    elif relative_tol is not None:
        tol = relative_tol * abs(target)
        note = f"{relative_tol:.0%} band"
    else:
        tol = 3.0 * se
        note = "3 SE band"
    passed = abs(est - target) <= tol
    return OracleRow(case=case, subcase=subcase, n=n, estimate=est, se=se,
                     target=target, tolerance=tol, passed=passed, note=note)


def _quartic_rows(case: str, n: int, fine_factor: int, over) -> list:
    # the sub-cases of ``case``: one, or all five for the family id 7.3
    specs = [(c, *_QUARTIC_CASES[c]) for c in _QUARTIC_CASES if c.startswith(case)]
    combos = [combo for _, combo, _ in specs]

    def block_stats(dyc, disp, work):
        return quartic_time_average(disp[..., 1:], combos, work)

    samples = over(4, block_stats, slots=_QUARTIC_SLOTS)
    return [_row(c, f"combo {combo}", n, fine_factor, sample, target)
            for (c, combo, target), sample in zip(specs, samples)]


def _nested_rows(case: str, n: int, fine_factor: int, over) -> list:
    # the statistics of the sub-cases of ``case``: one, or both for 7.4
    specs = [(c, *stat) for c in _NESTED_CASES if c.startswith(case)
             for stat in _NESTED_CASES[c]]
    kinds = [(kind, combo) for _, kind, combo, _ in specs]

    def block_stats(dyc, disp, work):
        return nested_time_average(dyc, disp, kinds, work)

    samples = over(4, block_stats, slots=_NESTED_SLOTS)
    return [_row(c, f"{kind} {combo}", n, fine_factor, sample, target)
            for (c, kind, combo, target), sample in zip(specs, samples)]


def _fingerprint_rows(case: str, n: int, fine_factor: int, over) -> list:
    scale = np.array([n ** 2, n ** 2, n ** 2, n, n], dtype=float)  # n^2 on M/N pairs, n on W

    def block_stats(dyc, disp, work):
        cells = (np.moveaxis(dyc, 0, -1), np.moveaxis(disp, 0, -1))  # the layout of stats
        return tuple((scale * stats.fingerprints(stats.dm(cells), stats.dn(cells), cells[0])).T)

    # own: dz and its running sum, dm, the outer product and dn, and the
    # products of the covariations, about 8 arrays; 10 keeps the blocks
    # smaller: with 8 a run at --n 64 --fine-factor 64 --paths 2000 took
    # 37.4k minor faults against 35.2k, and no less time (2-vCPU Xeon)
    mm, nn, nm, nw, mw = over(1, block_stats, own=10, component=rng.DRIVER_W)
    return [
        _row("7.6", "n2[N,N] -> 1", n, fine_factor, nn, 1.0, relative_tol=0.05),
        _row("7.6", "n2[M,M] -> 1/6", n, fine_factor, mm, 1.0 / 6.0, relative_tol=0.05),
        _row("7.6", "n2[N,M] -> 1/3", n, fine_factor, nm, 1.0 / 3.0, relative_tol=0.05),
        _row("7.6", "n[N,W] -> 1/2", n, fine_factor, nw, 0.5, relative_tol=0.05),
        _row("7.6", "n[M,W] -> 0", n, fine_factor, mw, 0.0),
    ]


def _drift_coupling_rows(case: str, n: int, fine_factor: int, over) -> list:
    # n int (W^(n))^2 ds against the unit drift: target c^{12} a / 2 = 1/2
    def block_stats(dyc, disp, work):
        nodes = disp[0, :, :, 1:]
        return (n * _trapz_cells(np.multiply(nodes, nodes, out=work[0])),)

    (vals,) = over(1, block_stats, slots=1)
    return [_row("7.7-80", "n int (W^(n))^2 dt -> 1/2", n, fine_factor, vals, 0.5)]


def _null_rows(case: str, n: int, fine_factor: int, over) -> list:
    """The five vanishing mixed martingale/drift statistics."""
    r, dt = fine_factor, 1.0 / (n * fine_factor)
    tau_left = (np.arange(r) * dt)  # elapsed time at left nodes
    tau_nodes = (np.arange(1, r + 1) * dt)

    def block_stats(dyc, disp, work):
        dw, db = dyc
        w_left, w_nodes = disp[0, :, :, :-1], disp[0, :, :, 1:]
        prod, inner = work  # a product, and a within-cell integral at nodes 1..r
        np.multiply(w_left, tau_left, out=prod)
        wa_db = n * np.multiply(prod, db, out=prod).sum(axis=(1, 2))
        wa_dt = n * _trapz_cells(np.multiply(w_nodes, tau_nodes, out=prod))
        np.multiply(w_left, db, out=prod)
        wb_dt = n * _trapz_cells(np.cumsum(prod, axis=2, out=inner))
        np.multiply(tau_left, dw, out=prod)
        np.cumsum(prod, axis=2, out=inner)
        # int A dW at the left nodes, the first of which is 0, against dB
        np.multiply(0.0, db[..., 0], out=prod[..., 0])
        np.multiply(inner[..., :-1], db[..., 1:], out=prod[..., 1:])
        return wa_db, wa_dt, wb_dt, n * prod.sum(axis=(1, 2)), n * _trapz_cells(inner)

    labels = ("n int W^(n) A^(n) dB", "n int W^(n) A^(n) dt", "n int (int W^(n) dB) dt",
              "n int (int A^(n) dW) dB", "n int (int A^(n) dW) dt")
    return [_row("null", label, n, fine_factor, sample, 0.0)
            for label, sample in zip(labels, over(2, block_stats, slots=2))]


# Deterministic densities for the quadrature cases, with antiderivatives.
_DET_X = (lambda s: 1.0 + s, lambda s: s + s ** 2 / 2.0)
_DET_Y = (lambda s: 1.0 - 0.5 * s, lambda s: s - s ** 2 / 4.0)
_DET_Z = (lambda s: 1.0 + s ** 2, None)


def _det_quadrature(case: str, n: int) -> tuple:
    """(estimate, target) for the deterministic convergence cases."""
    x, xint = _DET_X
    y, yint = _DET_Y
    z, _ = _DET_Z
    nodes, weights = _gauss_legendre(12)
    edges = np.arange(n + 1) / n
    lo, hi = edges[:-1], edges[1:]
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    s = mid[:, None] + half[:, None] * nodes[None, :]  # (n, G)
    wgt = half[:, None] * weights[None, :]
    x_disp = xint(s) - xint(lo)[:, None]
    y_disp = yint(s) - yint(lo)[:, None]

    def quad01(fn):
        g2, w2 = _gauss_legendre(24)
        pts = 0.5 + 0.5 * g2
        return float(np.sum(0.5 * w2 * fn(pts)))

    if case == "7.2a":
        est = n ** 2 * float(np.sum(wgt * x_disp ** 2 * z(s)))
        target = quad01(lambda t: x(t) ** 2 * z(t)) / 3.0
    elif case == "7.2b":
        est = n ** 2 * float(np.sum(wgt * x_disp * y_disp * z(s)))
        target = quad01(lambda t: x(t) * y(t) * z(t)) / 3.0
    elif case == "7.2c":
        gi, wi = _gauss_legendre(8)
        # inner int_{cell start}^{s} X^(n) y dr for every outer node
        a = np.broadcast_to(lo[:, None], s.shape)
        half_i = 0.5 * (s - a)
        mid_i = 0.5 * (s + a)
        rpts = mid_i[..., None] + half_i[..., None] * gi  # (n, G, GI)
        inner = np.sum(wi * (xint(rpts) - xint(a)[..., None]) * y(rpts), axis=-1) * half_i
        est = n ** 2 * float(np.sum(wgt * inner * z(s)))
        target = quad01(lambda t: x(t) * y(t) * z(t)) / 6.0
    elif case == "7.2r":
        est = n * float(np.sum(wgt * x_disp * z(s)))
        target = quad01(lambda t: x(t) * z(t)) / 2.0
    else:
        raise KeyError(case)
    return est, target


def _det_rows(case: str, n: int, fine_factor: int, over) -> list:
    est, target = _det_quadrature(case, n)
    tol = 3.0 / n
    return [OracleRow(case=case, subcase="deterministic quadrature", n=n,
                      estimate=est, se=0.0, target=target, tolerance=tol,
                      passed=abs(est - target) <= tol,
                      note="finite-n deviation is O(1/n)")]


@dataclass(frozen=True)
class Floor:
    """A config floor of a case: ``key`` must be at least ``least``, because ``why``."""

    key: str
    least: int
    why: str


# the least fine_factor of a case built on within-cell displacements, which
# all vanish at fine_factor 1: an integral nested twice within a cell (the Z
# of dM, the int A dW of a null row) is still 0 at a cell's first two nodes,
# so at fine_factor 2 such a statistic is exactly 0 and a null row passes at
# 0 +- 0
SUBGRID_MIN_FINE_FACTOR = 3
SUBGRID = Floor("fine_factor", SUBGRID_MIN_FINE_FACTOR,
                "with fewer sub-cells per cell its within-cell integrals are all 0")
# the least n of a 7.2 case: its band is 3/n wide, and below 13 the band
# around 7.2c's target 0.2403 holds 0, so a zero estimate would pass.  A
# quadrature case builds no fine grid.
QUADRATURE_MIN_N = 13
QUADRATURE = Floor("n", QUADRATURE_MIN_N,
                   "below it the 3/n band of a 7.2 case holds 0, so a zero estimate passes")


@dataclass(frozen=True)
class Case:
    """A case id's ``rows(case, n, fine_factor, over)``, which makes its
    OracleRows (``over(channels, reduce, slots, own, component)`` streams the
    per-path samples of ``reduce`` over every chunk of paths, see
    :func:`run_case`), and its config ``floor``, if any."""

    rows: Callable
    floor: Floor = None


# every case id, in the CLI's order
CASES = {
    **{c: Case(_det_rows, QUADRATURE) for c in ("7.2a", "7.2b", "7.2c", "7.2r")},
    **{c: Case(_quartic_rows) for c in ("7.3", *_QUARTIC_CASES)},
    **{c: Case(_nested_rows, SUBGRID) for c in ("7.4", *_NESTED_CASES)},
    "7.6": Case(_fingerprint_rows, SUBGRID),
    "7.7-80": Case(_drift_coupling_rows),
    "null": Case(_null_rows, SUBGRID),
}


def case_ids() -> tuple:
    return tuple(CASES)


def run_case(case: str, n: int = 64, paths: int = 10000, fine_factor: int = 64,
             seed: int = 1, threads: int = 1) -> list:
    """Evaluate one oracle case (or the family ids 7.3 / 7.4).

    Family ids sweep the shared Brownian quadruple once and report every
    sub-case, which is how the acceptance suite calls them.
    """
    if case not in CASES:
        raise KeyError(f"unknown oracle case '{case}'; available: {case_ids()}")

    def over(channels, reduce, slots=0, own=0, component=rng.ORACLE):
        # per-path samples of reduce, each chunk streamed from its paths'
        # Brownian increments in the stream family ``component``, its keys
        # hashed once
        grid = Grid(n, fine_factor)
        scale = np.sqrt(grid.fine_dt)

        def chunk_stats(idx):
            keys = rng.philox_keys(seed, component, idx, channels)

            def fill(blk, out):
                return rng.normal_matrix(keys[blk], (grid.fine_count, 1), scale=scale, out=out)

            return stream_cells(len(idx), grid.fine_count, n, channels, fill, reduce, slots, own)

        return over_chunks(paths, DEFAULT_CHUNK, chunk_stats, threads)

    return CASES[case].rows(case, n, fine_factor, over)

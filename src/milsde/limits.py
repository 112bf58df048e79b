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
M and N are carried as increments over the fine cells, never as running
series: the three sigma factors are contracted once per time step and
applied to the flattened noise increments.  N enters U only through the
term (1/2) sum_j tr(f^T Hf^{ij} f dN^j), which vanishes when f is affine
(``field.hf`` is None), and Wbar and V exist only to form N; so a chunk
of an affine field that is not asked for fingerprints draws no Wbar and
forms no V, dN or N term.  U is the same bit for bit, since the skipped
term is 0 dN.

The normalized scheme error then converges to the solution of a linear
SDE driven by (Y, M, N), integrated here with left-point Euler steps on
the fine grid along the reference solution X; only the endpoint U_1 is
kept.  U needs each step's X, dY, dW, dM and dN once, in time order, so a
limit chunk keeps its draws and holds one time block of their noise at a
time: the driver's W, its Y when Y is not W, and the auxiliary families (B,
and Wbar when N is formed), each stream drawn on from where the last block
stopped (a carried Philox stream per slot, see :func:`rng.normal_matrix`)
and each running sum carried from the last block's last node, in buffers
every block reuses.  A block holds about ``paths.NOISE_BYTES``, so no
(draws, fine_count) array exists and the chunk's memory does not grow with
the fine grid; its values are those of one whole-grid draw, bit for bit.
:func:`simulate_u` is the one loop over a chunk: per time block it forms
sigma's cube once and walks the block's steps in cache blocks of U's
steps, forming X at their left nodes from the reference (a marched one,
one Milstein step per fine cell with K from that cell's dY, carries its
last state on), dY and dW as differences of the nodes, and dM (with V and
dN, drift correction included, when N is formed) from the noise copied
contiguous once; :func:`integrate_u` steps U through each in place, its
terms transposed time-major in cache.  Neither X, dY, dW, dM, dN nor any
term of U is ever full-size, and every sum runs in step order, so no
value depends on where a block falls.  A draw whose reference leaves the
band at any node is flagged; :func:`limit_samples` raises for the flagged
draws of all its chunks.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import paths, rng, stats
from .model import SdeProblem
# simulate_bundle is looked up here by perfbench's tracer
from .paths import (DEFAULT_CHUNK, DriverSpec, Grid, Workspace, over_chunks,  # noqa: F401
                    rows_per_block, simulate_bundle, stream_times)
from .schemes import reference

SQRT2, SQRT3, SQRT6 = np.sqrt(2.0), np.sqrt(3.0), np.sqrt(6.0)


@dataclass(frozen=True)
class AuxiliaryNoise:
    """Increments of the B^{pij} and Wbar^p families on the fine grid.

    ``db`` has shape (n_paths, T-1, m, m, m) indexed [p, i, j]; ``dwbar``
    has shape (n_paths, T-1, m), or is None when Wbar was not drawn (a chunk
    that forms no N).  Streams are keyed per (path, channel) so
    the families are independent of each other and of every driver path.
    The increments are those of the steps from ``start`` of ``grid`` on: all
    of them, or one time block of them as a chunk samples them, or one block
    of U's steps after :meth:`steps`.
    """

    grid: Grid
    db: np.ndarray
    dwbar: np.ndarray
    start: int = 0

    def steps(self, blk: slice) -> "AuxiliaryNoise":
        """The increments of the grid's steps ``blk``, among these, copied contiguous.

        A time slice of the sampled arrays is strided per path, and numpy
        pays its per-row loop cost on every operand that reads one.
        """
        local = slice(blk.start - self.start, blk.stop - self.start)
        dwbar = None if self.dwbar is None else np.ascontiguousarray(self.dwbar[:, local])
        return replace(self, db=np.ascontiguousarray(self.db[:, local]), dwbar=dwbar,
                       start=blk.start)

    def times(self) -> np.ndarray:
        """The grid nodes these increments span, T of them."""
        return self.grid.times(slice(self.start, self.start + self.db.shape[1] + 1))


def sample_aux(grid: Grid, dim_m: int, master_seed: int, path_indices, cells: slice = None,
               carry: dict = None, space: Workspace = None,
               with_n: bool = True) -> AuxiliaryNoise:
    """The B and Wbar increments of the draws ``path_indices`` on the fine steps ``cells``.

    Wbar exists only to form N, so with ``with_n`` False no Wbar key is
    hashed and no Wbar normal drawn (``dwbar`` is None); B's streams are
    the same either way.

    ``cells`` are all of the grid's steps by default.  A chunk that samples
    them one time block after another, in time order, passes every block
    the same ``carry``, a dict in which the first block leaves each family's
    keys and streams for the later blocks to draw on from (see
    :func:`rng.normal_matrix`), and the same ``space``, whose buffers every
    block's increments are written to.
    """
    if cells is None:
        cells = slice(0, grid.fine_count)
    take = (space or Workspace()).take
    families = {}
    for component, channels in ((rng.AUX_B, dim_m ** 3), (rng.AUX_WBAR, dim_m))[:1 + with_n]:
        if carry is None:
            keys, streams = rng.philox_keys(master_seed, component, path_indices, channels), None
        elif component in carry:
            keys, streams = carry[component]
        else:
            keys, streams = carry[component] = (
                rng.philox_keys(master_seed, component, path_indices, channels), [])
        out = take(f"aux.{component}", (len(keys), cells.stop - cells.start, channels))
        families[component] = rng.normal_matrix(keys, (out.shape[1], 1),
                                                scale=np.sqrt(grid.fine_dt), out=out,
                                                carry=streams)
    db = families[rng.AUX_B]
    # channel (p*m + i)*m + j of the B family is entry [p, i, j]
    db = db.reshape(*db.shape[:2], dim_m, dim_m, dim_m)
    return AuxiliaryNoise(grid=grid, db=db, dwbar=families.get(rng.AUX_WBAR), start=cells.start)


def noise_bytes(driver: DriverSpec, with_n: bool = True) -> int:
    """Bytes a limit chunk's time block of noise holds per draw and fine step.

    The driver's W, its Y when Y is not W, the dW a callable sigma's Y is
    formed from, the B family, and the Wbar family when the chunk forms N
    (``with_n``).
    """
    m, d = driver.dim_m, driver.dim_d
    return 8 * (m + (0 if driver.y_is_w else d) + (m if callable(driver.sigma) else 0)
                + m ** 3 + (m if with_n else 0))


def assemble_v_increments(aux: AuxiliaryNoise, dw: np.ndarray) -> np.ndarray:
    """Increments of the V^{pij} family, shape (n_paths, T-1, m, m, m).

    ``dw`` holds the driver's own Brownian increments, (n_paths, T-1, m).
    """
    db = aux.db
    B, T, m = dw.shape
    dv = db + np.swapaxes(db, -1, -2)
    dv *= SQRT2 / 2.0
    diag = (SQRT3 / 2.0) * dw
    diag += 0.5 * aux.dwbar
    # the [p, i, i] entries, a strided view of the flattened (i, j) pair
    dv.reshape(B, T, m, m * m)[..., ::m + 1] += diag[:, :, :, None]
    return dv


def sigma_cube(driver: DriverSpec, times: np.ndarray) -> np.ndarray:
    """sigma^{jp} sigma^{au} sigma^{cv} at each of ``times``, (T, m^3, d^3).

    Row (p*m + u)*m + v meets the flattened [p, u, v] noise entry, column
    (j*d + a)*d + c the [j, a, c] one.
    """
    d, m = driver.dim_d, driver.dim_m
    sig = driver.sigma_at(times)
    return np.einsum("tjp,tau,tcv->tpuvjac", sig, sig, sig).reshape(len(times), m ** 3, d ** 3)


def simulate_mn(driver: DriverSpec, dw: np.ndarray, aux: AuxiliaryNoise,
                cube: np.ndarray = None) -> tuple:
    """Increments (dM, dN) of the limit processes over the cells of ``aux``.

    Returns two arrays of shape (n_paths, T-1, d, d, d) indexed [j, row, col].
    When ``aux`` carries no Wbar (a chunk that forms no N) no V is built and
    dN is an empty (n_paths, T-1, 0) array, not None, so that the pair
    always holds two arrays (perfbench's tracer sums their bytes).
    ``dw`` must be the driver's own Brownian increments over the same cells,
    (n_paths, T-1, m); the diagonal of V couples to them.  The three sigma
    factors are contracted once per time step (``cube``, the
    :func:`sigma_cube` at the cells' left nodes, formed here when not
    given), so each family costs one two-operand product with the
    flattened noise increments.  :func:`simulate_u` calls this on one cache
    block of time steps at a time, so V, dM and dN are formed whole for
    that block, and forms the cube once for all of them.
    """
    d = driver.dim_d
    B, T, m = dw.shape
    if cube is None:
        cube = sigma_cube(driver, aux.times()[:-1])
    if aux.dwbar is None:
        dn = np.empty((B, T, 0))
    else:
        dv = assemble_v_increments(aux, dw).reshape(B, T, m ** 3)
        dn = np.einsum("btk,tkl->btl", dv, (SQRT3 / 3.0) * cube).reshape(B, T, d, d, d)
    dm = np.einsum("btk,tkl->btl", aux.db.reshape(B, T, m ** 3), (SQRT6 / 6.0) * cube)
    return dm.reshape(B, T, d, d, d), dn


def _trapezoid_increments(integrand: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of ``integrand`` (T, ...) over each cell of ``times``."""
    dt = np.diff(times).reshape(-1, *(1,) * (integrand.ndim - 1))
    return 0.5 * (integrand[:-1] + integrand[1:]) * dt


def drift_correct(dn: np.ndarray, driver: DriverSpec, times: np.ndarray) -> np.ndarray:
    """Add the deterministic drift shift (1/2) int c_s a^p_s ds to the dN^p increments.

    ``times`` are the nodes of the cells of ``dn``: the whole grid or one
    block of it give the same shift per cell.
    """
    if not driver.has_drift:
        return dn
    c = driver.c_at(times)
    a = driver.drift_at(times)
    # trapezoid: exact for the constant and affine coefficient cases
    return dn + _trapezoid_increments(0.5 * np.einsum("tac,tp->tpac", c, a), times)


def u_row_bytes(problem: SdeProblem, with_n: bool = True, fingerprints: bool = False) -> int:
    """Bytes a block of U's steps holds per path and step, in :func:`simulate_u`.

    When the chunk forms N (``with_n``): X, f, Df, h and Hf; the forcing, N
    term and coupling, batch- and time-major; dY; the noise copies, dW, V
    and its diagonal; dM, dN and the drift-corrected dN.  Otherwise: X as
    the reference's nodes, their kept copy and the contiguous left nodes;
    f, Df, h and the (q, d^3) Df h coefficient; the forcing and coupling,
    batch- and time-major; dY; the copy of B, and dW; dM.  With
    ``fingerprints`` (``simulate_u`` given ``fps``), also each step's
    :func:`stats.fingerprints` products and their stacked rows, or those
    rows and the copy that the cumsum adds them in.
    """
    q, d, m = problem.field.dim_q, problem.driver.dim_d, problem.driver.dim_m
    fps = 2 * len(stats.FINGERPRINTS) if fingerprints else 0
    if with_n:
        return 8 * (q + q * d * (1 + q + d + q * q) + 3 * q + 2 * q * q + d
                    + 2 * m ** 3 + 3 * m + 3 * d ** 3 + fps)
    return 8 * (3 * q + q * d * (1 + q + d + d * d) + 2 * q + 2 * q * q + d + m ** 3 + m
                + d ** 3 + fps)


def integrate_u(problem: SdeProblem, u: np.ndarray, x_left: np.ndarray, dy: np.ndarray,
                dm: np.ndarray, dn: np.ndarray) -> None:
    """Step the limit error SDE through one block of steps, U updated in place.

    dU^i = U^T Df^i(X) dY - sum_{jk} f^{ij}_k(X) tr(h^k(X) dM^j)
           - (1/2) sum_j tr(f^T Hf^{ij} f dN^j),  U_0 = 0.

    ``u`` (n_paths, q) holds U at the block's first node and U at its last
    node afterwards.  The block's steps bring the reference X at their left
    nodes, (n_paths, T, q), the driver's moves dY over them, (n_paths, T, d),
    and their (drift-corrected) dM and dN, each (n_paths, T, d, d, d).  A dN
    with no entries (a chunk of an affine field that forms no N, whose N
    term is 0 dN) adds no N term.  Left-point Euler on the fine grid, so the
    steps are causal: a block's first k steps give U at its node k, and
    blocks stepped one after another in time order give U of the whole.
    """
    field = problem.field
    # the block's inputs, contiguous so that the products below read
    # contiguous memory
    x_left, dy, dm = (np.ascontiguousarray(a) for a in (x_left, dy, dm))
    f = field.f_at(x_left)
    df = field.df_at(x_left)
    h = np.einsum("xtika,xtkc->xtiac", df, f)
    # U-independent increments and U-coupling matrices
    # A[t]^{ik} = sum_j (Df^i)_{kj} dY_j
    forcing = _m_term(df, h, dm)
    np.negative(forcing, out=forcing)
    coupling = np.einsum("xtikj,xtj->xtik", df, dy)
    if dn.size:
        forcing -= _n_term(f, field.hf_at(x_left), np.ascontiguousarray(dn))
    # time-major for the loop, transposed while the block is in cache
    forcing = np.ascontiguousarray(forcing.transpose(1, 0, 2))
    coupling = np.ascontiguousarray(coupling.transpose(1, 0, 2, 3))
    step = np.empty_like(u)
    for t in range(len(forcing)):
        np.einsum("bik,bk->bi", coupling[t], u, out=step)
        u += step
        u += forcing[t]


def _flat_product(coef: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """sum over [j, row, col] of coef[..., i, j, row, col] dz[..., j, row, col], (..., q).

    One two-operand product of a (q, d^3) coefficient per path and step
    with the flattened increments.
    """
    q, d = coef.shape[-4:-2]
    return np.einsum("...iz,...z->...i", coef.reshape(*coef.shape[:-4], q, d ** 3),
                     dz.reshape(*dz.shape[:-3], d ** 3))


def _m_term(df: np.ndarray, h: np.ndarray, dm: np.ndarray) -> np.ndarray:
    """sum_{jk} (Df^i)_{kj} tr(h^k dM^j) per path and step, (..., q).

    Df h is contracted first, one (q, d^3) coefficient per path and step, so
    the sum against dM is one two-operand product.
    """
    return _flat_product(np.einsum("...ikj,...kac->...ijca", df, h), dm)


def _n_term(f: np.ndarray, hf: np.ndarray, dn: np.ndarray) -> np.ndarray:
    """(1/2) sum_j tr(f^T Hf^{ij} f dN^j) per path and step, (..., q).

    f^T Hf^{ij} f is contracted first, one (q, d^3) coefficient per path and
    step, so the sum against dN is one two-operand product.
    """
    coef = np.einsum("...ka,...ijkc->...ijca", f, np.einsum("...ijkl,...lc->...ijkc", hf, f))
    out = _flat_product(coef, dn)
    out *= 0.5
    return out


def simulate_u(problem: SdeProblem, noise, fps: np.ndarray = None,
               diverged: np.ndarray = None) -> np.ndarray:
    """U_1 of the limit error SDE along the driver paths of ``noise``, driven by its noise.

    ``noise`` yields the chunk's noise one time block at a time, in time
    order: pairs of a :class:`paths.PathBundle` of the block's nodes and the
    :class:`AuxiliaryNoise` of its cells (one whole-grid pair is one block).
    This is the one loop over a limit chunk.  It forms sigma's cube once per
    time block and walks the block's steps in blocks of U's steps, sized
    here by :func:`u_row_bytes`, the last cut short where the time block
    ends.  Each forms X at its left nodes from :func:`schemes.reference` on
    its cells and the state carried from the last block, dY and dW as
    differences of its nodes (one array when Y is W), and dM and dN from
    :func:`simulate_mn` on its noise, dN drift-corrected; :func:`integrate_u`
    then steps U through it.  When the noise carries no Wbar, no V or dN is
    formed, no drift correction runs and U has no N term.  ``fps``, when
    given, is an (n_paths, 5) array onto which every step's
    :func:`stats.fingerprints` of dM, dN and dW are summed in step order
    (its noise must carry Wbar), so that no output depends on where a block
    falls; ``diverged``, when given, an (n_paths,) bool array that each
    block marks with the paths whose reference left the band on its nodes.
    """
    driver = problem.driver
    u = x = None  # U, and the reference at the next block's first node
    for bundle, aux in noise:
        n_paths, cells = bundle.n_paths, bundle.cells
        u = np.zeros((n_paths, problem.field.dim_q)) if u is None else u
        rows = rows_per_block(bundle.grid.fine_count,
                              n_paths * u_row_bytes(problem, aux.dwbar is not None,
                                                    fps is not None))
        cube = sigma_cube(driver, aux.times()[:-1])
        for start in range(cells.start, cells.stop, rows):
            blk = slice(start, min(start + rows, cells.stop))
            ref = reference(problem, bundle, cells=blk, x=x)
            x = ref.values[:, -1]
            if diverged is not None:
                np.logical_or(diverged, ref.diverged, out=diverged)
            nodes = bundle.nodes(blk)
            dy = np.diff(bundle.y[:, nodes], axis=1)
            dw = dy if bundle.y is bundle.w else np.diff(bundle.w[:, nodes], axis=1)
            # the block's noise, copied contiguous once for every product below
            block = aux.steps(blk)
            dm, dn = simulate_mn(driver, dw, block, cube[start - aux.start:blk.stop - aux.start])
            if block.dwbar is not None:
                dn = drift_correct(dn, driver, block.times())
            if fps is not None:
                # each step's products a row of their own, summed onto the
                # carried sums in step order by one cumsum
                steps = stats.fingerprints(*(a.reshape(-1, *a.shape[2:]) for a in (dm, dn, dw)))
                sums = np.concatenate([fps[:, None], steps.reshape(n_paths, -1, fps.shape[1])], 1)
                fps[:] = np.cumsum(sums, axis=1, out=sums)[:, -1]
            integrate_u(problem, u, ref.values[:, :-1], dy, dm, dn)
    return u


def draw_error_limit(problem: SdeProblem, master_seed: int, path_indices,
                     fine_count: int = 4096, fingerprints: bool = False) -> tuple:
    """Sample the limit law of the normalized scheme error: (diverged,
    u_end), with the fingerprints appended when asked for.

    ``diverged`` marks the draws whose reference left the band, (n_paths,)
    bool; ``u_end`` holds the endpoints U_1, (n_paths, q); the fingerprints
    are the (n_paths, 5) :func:`stats.fingerprints` of the drift-corrected
    limit increments.

    Draws a fresh driver path (its own stream family) and the auxiliary
    families, and integrates the limit SDE along the reference solution of
    that path.  The driver's drift correction is applied automatically.
    The chunk forms N only when something reads it: for its fingerprints,
    or for U's N term when the field has a Hessian (``field.hf`` is not
    None).  Otherwise it draws no Wbar, and forms no V, dN or N term; U is
    the same bit for bit.
    The chunk holds one time block of noise at a time: the W of its draws
    (and their Y when Y is not W) from :func:`paths.stream_times` and the
    auxiliary families from :func:`sample_aux`, each stream drawn on from
    where the last block stopped, in buffers that every block reuses.  A
    block holds :func:`noise_bytes` per draw and step, as many steps as fit
    in ``paths.NOISE_BYTES``, so the chunk's memory does not grow with
    ``fine_count``; the values are those of one whole-grid block, bit for
    bit.  A draw whose reference leaves the band at any fine node has no
    meaningful U; it is marked in ``diverged``, and :func:`limit_samples`
    raises for it.
    """
    grid, driver = Grid(fine_count, 1), problem.driver
    keys = rng.philox_keys(master_seed, rng.LIMIT_W, path_indices, 1)
    n_paths = len(keys)
    with_n = fingerprints or problem.field.hf is not None
    length = rows_per_block(fine_count, n_paths * noise_bytes(driver, with_n), paths.NOISE_BYTES)
    space, carry = Workspace(), {}
    noise = ((bundle, sample_aux(grid, driver.dim_m, master_seed, path_indices, bundle.cells,
                                 carry, space, with_n))
             for bundle in stream_times(driver, grid, keys, length, space))
    fps = np.zeros((n_paths, len(stats.FINGERPRINTS))) if fingerprints else None
    diverged = np.zeros(n_paths, dtype=bool)
    u_end = simulate_u(problem, noise, fps, diverged)
    return (diverged, u_end) + ((fps,) if fingerprints else ())


def limit_samples(problem: SdeProblem, master_seed: int, n_draws: int,
                  fine_count: int = 4096, threads: int = 1, fingerprints: bool = False) -> tuple:
    """Draws 0..n_draws-1 of the limit law: (u_end,), with their fingerprints appended
    when asked for (see :func:`draw_error_limit`).

    Processes draws in chunks so large batches stay within memory; the
    values per draw index are identical for any chunk size or worker count.
    If any draw diverged, ArithmeticError names how many, over all chunks.
    """
    def chunk_fn(idx):
        return draw_error_limit(problem, master_seed, idx, fine_count, fingerprints)

    diverged, *out = over_chunks(n_draws, DEFAULT_CHUNK, chunk_fn, threads)
    if diverged.any():
        raise ArithmeticError(f"{int(diverged.sum())} draws diverged in the limit law's "
                              "reference solution")
    return tuple(out)


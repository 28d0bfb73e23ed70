"""Discrete Schrödinger operators on boxes: solvers and approximation checks.

The operator is H = Delta + V on a centered box with Dirichlet boundary
conditions (functions are extended by zero outside the box before the
stencil is applied).  Eigenvalues are kept in non-increasing order
lambda_1 >= lambda_2 >= ...

One solver: top_k_eigs, the one entry point for the top of the spectrum,
backed by LAPACK (tridiagonal and subset solvers) and ARPACK, with a
certified solve on windows around the highest sites in d = 1 and a
Chebyshev filter, applied with a DIA matrix, in front of ARPACK in d >= 2.
It is the case of one potential of the block solve _top_k_block, which
takes potentials stacked on a leading axis: it runs each one's LAPACK or
ARPACK call in turn, and the checks, the finalizing pass and its residual
matvec (apply_hamiltonian on the block) once over the block, so a caller
with many small boxes pays numpy's per-call cost once.
certify_below proves, by a banded Cholesky factorisation, that no
eigenvalue reaches a given level, so a caller can skip a solve whose pairs
it would not keep.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky_banded, eigh
from scipy.linalg.lapack import dstebz, dstein
from scipy.sparse import dia_array
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from . import covariance as cov
from . import field
from .extremes import descending_sites
from .errors import SolverConvergenceError

__all__ = [
    "SpectralResult",
    "BarSolution",
    "apply_hamiltonian",
    "top_k_eigs",
    "solve_bar_problem",
    "approximation_errors",
    "gap_margin",
]

MAX_K = 32  # top_k_eigs: most pairs one call returns
# top_k_eigs, d >= 2: dense subset eigh up to here, ARPACK above.  Top 4
# pairs on one BLAS thread of a 2-vCPU x86 VM: 1.4 ms against 4.0 ms for
# ARPACK at 169 sites, about even near 400, 86 ms against 13 ms at 961.
SUBSET_SITE_LIMIT = 400
_ARPACK_V0_SEED = 12345
# top_k_eigs, d >= 2 above SUBSET_SITE_LIMIT: ARPACK runs on the Chebyshev
# filter T_m((2H - (c + a)I) / (c - a)) of degree m <= FILTER_DEGREE, with a
# below the spectrum and c below lambda_k; c comes from boxes of radius
# CUT_BOX_RADIUS around high sites (_filter_interval).  m is the largest
# degree with T_m at most _FILTER_GROWTH_LIMIT at max V (_filter_degree).
FILTER_DEGREE = 12
CUT_BOX_RADIUS = 2
_FILTER_GROWTH_LIMIT = 1e8
# a and c sit this share of the width of their interval below their bounds.
_FILTER_MARGIN = 1e-3
# top_k_eigs, d = 1: windows of this half-width around the
# WINDOW_PEAKS_PER_PAIR * k + WINDOW_SPARE_PEAKS highest sites.
WINDOW_HALF_WIDTH = 24
WINDOW_PEAKS_PER_PAIR = 4
WINDOW_SPARE_PEAKS = 8
# Slack of the completeness count, in units of eps * ||H||: covers the
# rounding of the residuals and the backward error of the Sturm count.
_COUNT_SLACK_ULPS = 16
# top_k_eigs accepts residuals up to max(RESIDUAL_TOL, RESIDUAL_ULPS eps ||H||),
# with ||H|| <= max|V| + 4d, so that rounding alone never fails a large field.
RESIDUAL_TOL = 1e-10
RESIDUAL_ULPS = 16
TIE_TOL = 1e-12
_EPS = float(np.finfo(float).eps)
# c' of gap_margin: the gap event asks lambda_2 <= xi(x0) - c' a_L/d_L.
GAP_C_PRIME = 0.25


def apply_hamiltonian(V: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """(Delta psi)(x) + V(x) psi(x), psi extended by zero outside the box.

    psi has V's shape; or V stacks B potentials, shape (B,) + grid, and psi
    k functions for each, shape (B, k) + grid, to apply each potential's H
    to its own k functions at once.
    """
    block = psi.ndim - V.ndim
    if block not in (0, 1) or psi.shape[:block] + psi.shape[2 * block :] != V.shape:
        raise ValueError(f"shape mismatch: {V.shape} vs {psi.shape}")
    out = ((V[:, None] if block else V) - 2.0 * (V.ndim - block)) * psi
    for axis in range(2 * block, psi.ndim):
        lead = (slice(None),) * axis
        lo, hi = lead + (slice(0, -1),), lead + (slice(1, None),)
        out[lo] += psi[hi]
        out[hi] += psi[lo]
    return out


@dataclass(frozen=True)
class SpectralResult:
    """Top eigenpairs of one operator: top_k_eigs' result, from pairs its
    block solve has checked (_check_pairs), so eigenvalues non-increasing
    and eigenfunctions of unit norm."""

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray  # shape (k,) + grid shape
    centers: tuple  # flat C-order grid indices of argmax |phi|
    residuals: np.ndarray
    solver: str  # top_k_eigs' path: "window", "tridiagonal", "subset" or "arpack"

    @property
    def k(self) -> int:
        return len(self.eigenvalues)

    @property
    def gap(self) -> float:
        if self.k < 2:
            raise ValueError("gap needs at least two eigenvalues")
        return float(self.eigenvalues[0] - self.eigenvalues[1])

    def center_coords(self, i: int = 0) -> tuple:
        """Lattice coordinates of centre i, the box centre at the origin."""
        shape = self.eigenfunctions.shape[1:]
        idx = np.unravel_index(self.centers[i], shape)
        return tuple(int(c) - s // 2 for c, s in zip(idx, shape))

    def to_json(self) -> str:
        return json.dumps(
            {
                "eigenvalues": self.eigenvalues.tolist(),
                "centers": [self.center_coords(i) for i in range(self.k)],
                "residuals": self.residuals.tolist(),
                "gap": self.gap if self.k >= 2 else None,
            }
        )


def _check_pairs(lams: np.ndarray, phis: np.ndarray) -> None:
    """ValueError unless each row of lams, shape (B, k), is non-increasing
    up to TIE_TOL and each function of phis, shape (B, k) + grid, has unit
    l2 norm up to 1e-12.  On Python floats: a block holds few pairs, and
    numpy's per-call cost would outweigh the arithmetic."""
    for lam in lams.tolist():
        if any(b - a > TIE_TOL for a, b in zip(lam, lam[1:])):
            raise ValueError("eigenvalues not in non-increasing order")
    sums = (phis.reshape(lams.shape + (-1,)) ** 2).sum(axis=-1)
    if any(abs(math.sqrt(s) - 1.0) > 1e-12 for s in sums.ravel().tolist()):
        raise ValueError("eigenfunctions not l2-normalized")


def _finalize(lams: np.ndarray, phis: np.ndarray, V: np.ndarray) -> tuple:
    """Order, normalize, centre and sign-fix the eigenpairs of a block of B
    potentials V, shape (B,) + grid, and compute their true residuals, all
    in one pass.

    lams, shape (B, k), and phis, shape (B, k) + grid, hold each
    potential's k pairs.  Returns the stacked eigenvalues (B, k),
    non-increasing in each row; eigenfunctions (B, k) + grid, each of unit
    norm and positive at its centre; centres (B, k), the flat C-order grid
    index of argmax |phi|, the first on ties; and residuals (B, k).
    """
    B, k = lams.shape
    rows = np.arange(B)[:, None]
    order = (-lams).argsort(axis=1, kind="stable")
    lams = lams[rows, order]
    flat = phis.reshape(B, k, -1)[rows, order]  # a copy, one row per pair
    flat /= np.sqrt((flat**2).sum(axis=2))[:, :, None]
    peak = abs(flat).argmax(axis=2)
    flip = flat[rows, np.arange(k), peak] < 0
    np.negative(flat, out=flat, where=flip[:, :, None])
    P = flat.reshape(phis.shape)
    R = apply_hamiltonian(V, P).reshape(B, k, -1)
    R -= lams[:, :, None] * flat
    return lams, P, peak, np.sqrt((R**2).sum(axis=2))


def _bonds(shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """C-order site index pairs (i, j) of the nearest-neighbour bonds."""
    idx = np.arange(math.prod(shape)).reshape(shape)
    lo_sites, hi_sites = [], []
    for axis in range(len(shape)):
        lo = [slice(None)] * len(shape)
        hi = [slice(None)] * len(shape)
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        lo_sites.append(idx[tuple(lo)].ravel())
        hi_sites.append(idx[tuple(hi)].ravel())
    return np.concatenate(lo_sites), np.concatenate(hi_sites)


def _assemble_dense(V: np.ndarray) -> np.ndarray:
    H = np.diag(V.ravel(order="C") - 2.0 * V.ndim)
    i, j = _bonds(V.shape)
    H[i, j] = 1.0
    H[j, i] = 1.0
    return H


def _assemble_scaled(V: np.ndarray, a: float, c: float) -> dia_array:
    """(2H - (c + a)I) / (c - a), H with [a, c] mapped onto [-1, 1], as a
    DIA matrix: its 2d + 1 diagonals in ascending offset order, zero where a
    bond would leave the box.  Its matvec adds each row's terms in ascending
    column order, as canonical CSR does, so the products are the same."""
    n, d = V.size, V.ndim
    i, j = _bonds(V.shape)
    steps = [math.prod(V.shape[axis + 1 :]) for axis in range(d)]  # j - i
    offsets = np.array([-s for s in steps] + [0] + steps[::-1])
    scale = 2.0 / (c - a)
    data = np.zeros((2 * d + 1, n))
    data[d] = scale * (V.ravel(order="C") - 2.0 * d) - (c + a) / (c - a)
    # entry (row, col) sits in column col of the diagonal of offset col - row
    data[np.searchsorted(offsets, i - j), i] = scale
    data[np.searchsorted(offsets, j - i), j] = scale
    return dia_array((data, offsets), shape=(n, n))


def _arpack_ncv(n: int, k: int) -> int:
    # scipy.sparse.linalg.eigsh's default Lanczos basis size
    return min(n, max(2 * k + 1, 20))


def solver_bytes(n: int, d: int, k: int, fields: int = 1) -> int:
    """Bytes _top_k_block holds for k pairs on each of ``fields`` potentials
    of n sites in dimension d (top_k_eigs: one potential).

    Each potential is solved on its own, with O(n) for the tridiagonal
    solver; the dense subset-eigh matrix (n x n); or, on the ARPACK path,
    the Lanczos basis (ncv x n), the filter's three work vectors and its
    DIA matrix (2d + 1 diagonals of n values and one offset each, at most 8
    bytes apiece).  The block's pairs, k x n doubles a potential, are held
    at once: _finalize holds four such blocks (the pairs as solved and
    finalized, the residual block and one temporary), and a window solve
    that fails its certificate finalizes one potential more beside two."""
    if d == 1:
        one = 8 * n * (k + 4)
    elif n <= SUBSET_SITE_LIMIT:
        one = 8 * n * n
    else:
        one = 8 * n * (_arpack_ncv(n, k) + 3) + 8 * (2 * d + 1) * (n + 1)
    return one + 8 * k * n * (4 * fields + 1)


def _filter_interval(V: np.ndarray, k: int) -> tuple[float, float]:
    """The interval [a, c] that top_k_eigs' Chebyshev filter damps: a below
    every eigenvalue of H, c below lambda_k, both strictly.

    a: Gershgorin, lambda_min >= min V - 4d.  c: the k highest sites whose
    boxes of radius CUT_BOX_RADIUS are pairwise non-adjacent, taken greedily
    in descending order of V (equal values in C order), span a principal
    submatrix of H that is block-diagonal over the boxes.  It has k
    eigenvalues at or above the smallest of the boxes' top eigenvalues, so
    by Cauchy interlacing lambda_k is too.  Weyl's lambda_k >= V_(k) - 4d
    is a floor, and the bound alone when k such boxes do not fit.  Margins:
    a lies _FILTER_MARGIN (max V - a0) below Gershgorin's a0, and c lies
    _FILTER_MARGIN (c0 - a) below the bound c0.  They cover the rounding of
    the box solves and keep c - a > 0 when c0 = a0.
    """
    d, r = V.ndim, CUT_BOX_RADIUS
    flat = V.ravel()
    n = flat.size
    m = min(n, 4 * k)
    while True:
        sites = descending_sites(flat, m)
        chosen = np.empty((0, d), dtype=int)
        for x in np.stack(np.unravel_index(sites, V.shape), axis=1):
            # boxes x + [-r, r]^d and y + [-r, r]^d hold no pair of sites
            # at l1 distance below 2, so share no site and no bond
            if np.all(np.sum(np.maximum(np.abs(chosen - x) - 2 * r, 0), axis=1) >= 2):
                chosen = np.vstack([chosen, x])
                if len(chosen) == k:
                    break
        if len(chosen) == k or m == n:
            break
        m = min(n, 4 * m)
    cut = float(flat[sites[k - 1]]) - 4.0 * d
    if len(chosen) == k:
        tops = []
        for x in chosen:
            B = _assemble_dense(V[tuple(slice(max(i - r, 0), i + r + 1) for i in x)])
            top = B.shape[0] - 1
            tops.append(eigh(B, eigvals_only=True, subset_by_index=[top, top])[0])
        cut = max(cut, float(min(tops)))
    lo = float(flat.min()) - 4.0 * d
    a = lo - _FILTER_MARGIN * (float(flat.max()) - lo)
    return a, cut - _FILTER_MARGIN * (cut - a)


def _filter_degree(top: float, a: float, c: float) -> int:
    """The largest m <= FILTER_DEGREE, and at least 1, with T_m(x_top) <=
    _FILTER_GROWTH_LIMIT, where x_top = 1 + 2(top - c) / (c - a) is where
    [a, c] -> [-1, 1] maps top.  With top = max V >= lambda_1 (Delta <= 0),
    p(lambda_1) / p(lambda_k) stays below the limit: a much larger ratio
    lets rounding along the top pair swamp the others.  Gaussian fields
    stay far below it at FILTER_DEGREE (T_12(x_top) <= 3.5e5 on the
    gluing_2d fields); a site 1e4 above the rest gets degree 2."""
    x = 1.0 + 2.0 * (top - c) / (c - a)
    prev, cur, m = 1.0, x, 1
    while m < FILTER_DEGREE:
        prev, cur = cur, 2.0 * x * cur - prev
        if cur > _FILTER_GROWTH_LIMIT:
            break
        m += 1
    return m


def _chebyshev_filter(V: np.ndarray, a: float, c: float) -> LinearOperator:
    """T_m(S) for S = (2H - (c + a)I) / (c - a) and m from _filter_degree,
    by the three-term recurrence T_{j+1}(S)x = 2S T_j(S)x - T_{j-1}(S)x
    with three work vectors."""
    S = _assemble_scaled(V, a, c)
    m = _filter_degree(float(V.max()), a, c)

    def apply(x):
        prev, cur = x.ravel(), S @ x.ravel()
        for _ in range(m - 1):
            nxt = S @ cur
            nxt *= 2.0
            nxt -= prev
            prev, cur = cur, nxt
        return cur

    return LinearOperator(S.shape, matvec=apply, dtype=float)


def _tridiagonal_top(
    diag: np.ndarray, off: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenvalues, ascending, and their eigenvectors as
    columns, of the symmetric tridiagonal matrix with diagonal diag and
    off-diagonal off.

    LAPACK dstebz by index (block order, default abstol), then dstein: the
    calls scipy's eigh_tridiagonal(select="i") makes, without its wrapper,
    so the same bits.  One site is its own eigenpair, as in scipy's quick
    exit (f2py's dstebz refuses an empty off-diagonal).  A LAPACK failure
    raises SolverConvergenceError.
    """
    n = diag.size
    if n == 1:
        return np.array([diag[0]]), np.ones((1, 1))
    m, w, iblock, isplit, info = dstebz(diag, off, 2, 0.0, 1.0, n - k + 1, n, 0.0, b"B")
    if info == 0:
        w = w[:m]
        U, info = dstein(diag, off, w, iblock, isplit)
    if info != 0:
        raise SolverConvergenceError(f"LAPACK tridiagonal eigensolver failed (info={info})")
    order = np.argsort(w)
    return w[order], U[:, order]


def _count_above(diag: np.ndarray, off: np.ndarray, theta: float, top: float) -> int | None:
    """How many eigenvalues of the symmetric tridiagonal matrix lie in
    (theta, top], by LAPACK dstebz, or None when LAPACK fails.  An abstol
    as wide as the interval stops its bisection at once, leaving only the
    count."""
    count, _, _, _, info = dstebz(diag, off, 1, theta, top, 0, 0, top - theta, b"E")
    return count if info == 0 else None


def _window_pairs(V: np.ndarray, k: int, phis: np.ndarray) -> np.ndarray | None:
    """The top k Ritz values, ascending, of the d = 1 operator on windows
    around its highest sites, with their vectors, zero-extended, written to
    the rows of phis, shape (k, n); or None, phis untouched, when the
    windows would cover half the sites.

    One _tridiagonal_top call solves the principal submatrix of H on the
    union of the windows; windows that do not touch are not coupled.
    _window_certified decides whether the pairs are the top k of H.
    """
    n = V.size
    if 2 * (2 * WINDOW_HALF_WIDTH + 1) >= n:
        return None  # a single window covers half the sites
    m = min(n, WINDOW_PEAKS_PER_PAIR * k + WINDOW_SPARE_PEAKS)
    peaks = np.argpartition(V, n - m)[n - m :]
    offsets = np.arange(-WINDOW_HALF_WIDTH, WINDOW_HALF_WIDTH + 1)
    inside = np.zeros(n, dtype=bool)
    inside[np.clip(peaks[:, None] + offsets, 0, n - 1)] = True
    sites = np.flatnonzero(inside)
    if 2 * sites.size >= n:
        return None
    mu, U = _tridiagonal_top(V[sites] - 2.0, (np.diff(sites) == 1).astype(float), k)
    phis.fill(0.0)
    phis[:, sites] = U.T
    return mu


def _window_certified(V, mu, phis, residuals, tol: float) -> bool:
    """True when the finalized window pairs of the d = 1 potential V, Ritz
    values mu_1 >= ... >= mu_k, vectors phis and residuals on the full H,
    are certified as the top k pairs of H.

    Were the Ritz vectors orthonormal, k eigenvalues of H would lie within
    r = ||R||_F of the Ritz values, R the residual block (Kahan).  A loss
    delta of orthonormality widens r to bound = (r + 2 max|mu| delta)(1 +
    delta) / (1 - delta), so all k lie above theta = mu_k - bound - slack.
    A Sturm count of the eigenvalues of H above theta (_count_above, the
    only use of dstebz by value) decides: the pairs are certified when it
    finds exactly k, and residuals and delta are within tol.
    """
    k = mu.size
    delta = float(np.linalg.norm(phis @ phis.T - np.eye(k)))
    if (residuals > tol).any() or delta > tol:
        return False
    r = math.sqrt(float(np.sum(residuals**2)))
    # Kahan's bound for the orthonormal polar factor of the Ritz vectors
    bound = (r + 2.0 * float(np.max(np.abs(mu))) * delta) * (1.0 + delta) / (1.0 - delta)
    h_norm = float(np.max(np.abs(V - 2.0))) + 2.0
    slack = _COUNT_SLACK_ULPS * _EPS * h_norm
    theta = float(mu[-1]) - bound - slack
    top = float(np.max(V)) + 1.0  # above every eigenvalue (Gershgorin)
    return _count_above(V - 2.0, np.ones(V.size - 1), theta, top) == k


def _solve(V: np.ndarray, k: int, phis: np.ndarray, windows: bool = True) -> tuple:
    """k eigenpairs of Delta + V on the path top_k_eigs describes, not yet
    finalized: the eigenvalues and the path's name, the eigenfunctions
    written to the rows of phis, shape (k, n).  With ``windows`` false,
    d = 1 skips the window solve."""
    n = V.size
    if V.ndim == 1:
        mu = _window_pairs(V, k, phis) if windows else None
        if mu is not None:
            return mu, "window"
        lams, U = _tridiagonal_top(V - 2.0, np.ones(n - 1), k)
        solver = "tridiagonal"
    elif n <= SUBSET_SITE_LIMIT:
        lams, U = eigh(_assemble_dense(V), subset_by_index=[n - k, n - 1])
        solver = "subset"
    else:
        p_of_H = _chebyshev_filter(V, *_filter_interval(V, k))
        v0 = np.random.default_rng(_ARPACK_V0_SEED).standard_normal(n)
        _, U = eigsh(p_of_H, k, which="LA", tol=0, ncv=_arpack_ncv(n, k), v0=v0)
        P = U.T.reshape((1, k) + V.shape)
        lams = np.sum((P * apply_hamiltonian(V[None], P)).reshape(k, -1), axis=1)
        solver = "arpack"
    phis[...] = U.T
    return lams, solver


def _top_k_block(V: np.ndarray, k: int) -> tuple:
    """Top-k eigenpairs of Delta + V for each potential of the block V,
    shape (B,) + grid: (eigenvalues, eigenfunctions, centres, residuals),
    stacked as _finalize returns them, and the list of the B solvers' paths.
    top_k_eigs is the case B = 1, and gives each potential the same bits.

    Each potential's eigensolve runs on its own (_solve).  The input
    checks, _finalize, the residual check, the check of the invariants of
    a SpectralResult (_check_pairs) and, in d = 1, the window certificates
    run once over the block.  The window pairs of a potential whose
    certificate fails are solved again on the whole chain and finalized
    again, one potential at a time.
    """
    B, grid = V.shape[0], V.shape[1:]
    n = math.prod(grid)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > MAX_K:
        raise ValueError(f"k limited to {MAX_K}")
    if k > n:
        raise ValueError(f"k={k} exceeds {n} sites")
    # per potential, on Python floats: numpy's per-call cost would outweigh
    # the arithmetic on B values
    v_max = np.abs(V).reshape(B, -1).max(axis=1).tolist()  # inf or NaN unless V is finite
    if not all(map(math.isfinite, v_max)):
        raise ValueError("V must not contain infs or NaNs")
    tol = [max(RESIDUAL_TOL, RESIDUAL_ULPS * _EPS * (v + 4.0 * len(grid))) for v in v_max]
    lams, phis, solvers = np.empty((B, k)), np.empty((B, k, n)), []
    try:
        for b in range(B):
            lams[b], solver = _solve(V[b], k, phis[b])
            solvers.append(solver)
    except (ArpackNoConvergence, LinAlgError) as exc:
        raise SolverConvergenceError(f"eigensolver did not converge: {exc}") from exc
    out = _finalize(lams, phis.reshape((B, k) + grid), V)
    mu, P, _, residuals = out
    redo = [
        b
        for b, solver in enumerate(solvers)
        if solver == "window" and not _window_certified(V[b], mu[b], P[b], residuals[b], tol[b])
    ]
    for b in redo:
        lams[b], solvers[b] = _solve(V[b], k, phis[b], windows=False)
        again = _finalize(lams[b : b + 1], phis[b : b + 1].reshape((1, k) + grid), V[b : b + 1])
        for block, row in zip(out, again):
            block[b] = row[0]
    for b, (row, t) in enumerate(zip(residuals.tolist(), tol)):
        if any(r > t for r in row):
            raise SolverConvergenceError(f"eigenpair residuals {residuals[b]} exceed tol={t}")
    _check_pairs(mu, P)
    return out + (solvers,)


def top_k_eigs(V: np.ndarray, k: int) -> SpectralResult:
    """Top-k eigenpairs of Delta + V; each pair satisfies
    ||H phi - lambda phi||_2 <= max(RESIDUAL_TOL, RESIDUAL_ULPS eps (max|V| + 4d)),
    a bound on the rounding of H phi, or SolverConvergenceError is raised.
    The result's solver field names the path that produced it.

    d = 1: a solve on windows around the highest sites (_window_pairs),
    kept only when a Sturm count certifies that no eigenvalue was missed
    (_window_certified); otherwise, and when the windows would cover half
    the sites, LAPACK bisection and inverse iteration (dstebz, dstein) on
    the whole tridiagonal H (_tridiagonal_top).  Both d = 1 solves call
    LAPACK directly, not through scipy's eigh_tridiagonal, with the same
    bits.
    d >= 2 up to SUBSET_SITE_LIMIT sites: dense LAPACK eigh restricted to
    the top k indices.  Larger d >= 2 boxes: ARPACK (eigsh) from a fixed
    start vector, so results are deterministic, on
    p(H) = T_m((2H - (c + a)I) / (c - a)), the Chebyshev polynomial of
    degree m <= FILTER_DEGREE, with [a, c] from _filter_interval and m from
    _filter_degree.  On [a, c] |p| <= 1; above c, p increases from 1.
    Every eigenvalue of H lies above a and the top k above c, so the top k
    of p(H) belong to the same eigenvectors as the top k of H, in the same
    order, while p stretches their gaps.  The eigenvalues returned are the
    Rayleigh quotients <u, Hu> of the Ritz vectors u.  A site far above the
    rest of V would make p(lambda_1) / p(lambda_k) so large that rounding
    along the top pair swamps the others, so the degree drops as max V - c
    grows.  A site near 1e5 or 1e6 above the rest leaves residuals above
    1e-10 from rounding alone, which the eps ||H|| term of the tolerance
    accepts.

    top_k_eigs is the case B = 1 of _top_k_block, the solve of a block of
    potentials.
    """
    lams, P, centers, residuals, (solver,) = _top_k_block(V[None], k)
    return SpectralResult(
        eigenvalues=lams[0],
        eigenfunctions=P[0],
        centers=tuple(centers[0].tolist()),
        residuals=residuals[0],
        solver=solver,
    )


def certify_below(V: np.ndarray, theta: float) -> bool:
    """True when a certificate proves that every eigenvalue of Delta + V
    lies below theta; False proves nothing.

    The certificate is a floating-point Cholesky factorisation of
    A = (theta - c)I - H in band storage of width side^(d - 1) (LAPACK
    pbtrf).  Rump ("Verification of positive definiteness", BIT 46, 2006):
    when it runs to completion on a symmetric A with positive diagonal, the
    factor is exact for A + E with ||E||_2 <= alpha tr(A), where
    alpha = (n + 1)u / (1 - 2(n + 1)u) and u is the unit roundoff.  So
    A >= -alpha tr(A) I, and with c above alpha tr(A), theta I - H >= A + cI
    is positive definite: lambda_1 < theta.  c is twice alpha times the
    trace of theta I - H.  The factor 2 covers the rounding of alpha and of
    the trace, and Rump's term for underflow, a multiple of 2^-1074 far
    below alpha tr(A): a positive definite A with a bond has a diagonal
    entry above 1.  The diagonal of A is rounded down an ulp per operation,
    so it never exceeds its exact value.  A diagonal entry <= 0 fails at
    once.
    """
    n, d = V.size, V.ndim
    h = V.ravel(order="C") - 2.0 * d
    if float(np.max(h)) >= theta:
        return False  # lambda_1 >= max diagonal of H
    u = _EPS / 2
    alpha = (n + 1) * u / (1.0 - 2.0 * (n + 1) * u)
    c = 2.0 * alpha * float(np.sum(theta - h))
    shifted = np.nextafter(theta - c, -np.inf)
    diag = np.nextafter(shifted - np.nextafter(h, np.inf), -np.inf)
    if float(np.min(diag)) <= 0.0:
        return False
    i, j = _bonds(V.shape)
    band = np.zeros((math.prod(V.shape[1:]) + 1, n))
    band[0] = diag
    band[j - i, i] = -1.0  # lower band storage: entry (j, i) in row j - i
    try:
        cholesky_banded(band, lower=True, overwrite_ab=True, check_finite=False)
    except LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class BarSolution:
    """Top eigenpair of the deterministic dip operator Delta - S on Q_r."""

    bar_lambda: float
    bar_phi: np.ndarray
    expansion_value: float

    def __post_init__(self):
        c = tuple(s // 2 for s in self.bar_phi.shape)
        if self.bar_phi[c] <= 0:
            raise ValueError("bar_phi must be positive at the origin")

    @functools.cached_property
    def weights(self) -> field.ProfileWeights:
        """Offsets and weights of bar_phi, built once, for field.phi."""
        return field.ProfileWeights.of(self.bar_phi, self.bar_phi.ndim)


def solve_bar_problem(
    model: cov.CovarianceModel, a_L: float, r_L: int
) -> BarSolution:
    """Solve the deterministic problem Delta - S on Q_{r_L}, Dirichlet, and
    read its first-order expansion -2d + sum over unit vectors e of 1/S(e)
    off the same grid; the expansion is NaN when S vanishes at some e."""
    if r_L < 3 or r_L % 2 == 0:
        raise ValueError(f"r_L must be odd and >= 3, got {r_L}")
    half = r_L // 2
    S = cov.shape_grid(model, a_L, half)
    res = top_k_eigs(-S, 1)
    if res.residuals[0] > 1e-12 * max(1.0, abs(res.eigenvalues[0])):
        raise SolverConvergenceError(
            f"bar problem residual {res.residuals[0]:.3e} too large"
        )
    # term by term in a fixed order: sum() compensates its rounding on
    # Python >= 3.12, and the value would differ between versions
    expansion = -2.0 * model.d
    for axis in range(model.d):
        for sign in (1, -1):
            idx = [half] * model.d
            idx[axis] += sign
            s = float(S[tuple(idx)])
            expansion += 1.0 / s if s > 0.0 else math.nan
    return BarSolution(
        bar_lambda=float(res.eigenvalues[0]),
        bar_phi=res.eigenfunctions[0],
        expansion_value=expansion,
    )


def _bar_on_grid(bar: BarSolution, shape: tuple, x0: tuple) -> np.ndarray:
    """bar_phi(. - x0), zero-extended, on the centred grid of ``shape``;
    ValueError when bar_phi's window around x0 leaves it."""
    prof = np.zeros(shape)
    prof[field.window(shape[0], x0, bar.weights.half)] = bar.bar_phi
    return prof


def approximation_errors(bar, lam1, phi1, peak, phi, prof, scales):
    """Scaled eigenpair approximation errors at the conditioning point x0
    of B solves, stacked on a leading axis (B = 1 for one solve):

        eig_err = a_L * |lambda_1 - (Xi(x0) + bar_lambda)|
        fun_err = (a_L / d_L) * ||phi_1 - bar_phi(. - x0)||_2

    given the top eigenvalues lam1 and eigenfunctions phi1, xi(x0) and
    Phi(x0) of each field, with Xi(x0) = xi(x0) + Phi(x0), and
    bar_phi(. - x0), zero-extended, on the solve's grid (_bar_on_grid)."""
    eig_err = scales.a_L * np.abs(lam1 - (peak + phi + bar.bar_lambda))
    fun_err = (scales.a_L / scales.d_L) * _distance_up_to_sign(phi1, prof)
    return eig_err, fun_err


def _distance_up_to_sign(phi: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """||phi - ref||_2 for each function of ``phi``, shape (B,) + ref.shape,
    its sign flipped when <phi, ref> < 0.  Sums run over each row of a
    (B, sites) reshape, as a sum over one contiguous grid runs."""
    flat, ref = phi.reshape(len(phi), -1), ref.reshape(-1)
    flat = np.where((np.sum(flat * ref, axis=1) < 0)[:, None], -flat, flat)
    return np.sqrt(np.sum((flat - ref) ** 2, axis=1))


def gap_margin(lam2, peak, scales):
    """xi(x0) - GAP_C_PRIME * a_L / d_L - lambda_2, elementwise: the gap
    event lambda_2 <= xi(x0) - GAP_C_PRIME * a_L / d_L holds where it is
    not negative."""
    return peak - GAP_C_PRIME * scales.a_L / scales.d_L - lam2

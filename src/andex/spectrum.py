"""Discrete Schrödinger operators on boxes: solvers and approximation checks.

The operator is H = Delta + V on a centered box with Dirichlet boundary
conditions (functions are extended by zero outside the box before the
stencil is applied).  Eigenvalues are kept in non-increasing order
lambda_1 >= lambda_2 >= ...

One solver: top_k_eigs, the one entry point for the top of the spectrum,
backed by LAPACK (tridiagonal and subset solvers) and ARPACK, with a
certified solve on windows around the highest sites in d = 1 and a
Chebyshev filter, applied with a DIA matrix, in front of ARPACK in d >= 2.
The window certificate is an LDL^T inertia count of theta I - H in one
pass of LAPACK dpttrf, exact for a tridiagonal within a few ulps of H.
top_k_eigs is the case of one potential of the block solve _top_k_block,
which takes potentials stacked on a leading axis.  It runs each one's
LAPACK or ARPACK call in turn; the checks, and the finalizing pass with
its residual matvec (apply_hamiltonian on the block) for the potentials
solved on the whole box, run once over the block, so a caller with many
small boxes pays numpy's per-call cost once.
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
from scipy.linalg.lapack import dpttrf, dstebz, dstein
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
# rounding of the residuals and the backward error of the inertia count.
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
    of n sites in dimension d (top_k_eigs: one potential), a bound that
    tracemalloc checks on each path (tests/test_spectrum.py).

    Each potential is solved on its own:
    - d = 1: on the whole chain, V - 2 and the off-diagonal of ones, the
      outputs and work arrays of dstebz and dstein (about 8n doubles), the
      k eigenvectors and their reordered copy; the window solve holds less,
      its inertia count dpttrf's two n-vectors, the diagonal of
      theta I - H and its off-diagonal;
    - the subset eigh: the n x n matrix, LAPACK's copy of it, and its work
      arrays;
    - ARPACK: the Lanczos basis and the copy of it that the eigenvector
      extraction makes (2 ncv x n), ARPACK's work vectors, the start
      vector, the k Ritz vectors, the filter's three work vectors and its
      DIA matrix (2d + 1 diagonals of n values and one offset each).
    The block holds at once at most four blocks of its pairs, k x n
    doubles a potential: in _finalize, the pairs as solved and finalized,
    the residual block and one temporary; a window solve holds four for its
    one potential beside the rows finalized before it, and stacking the
    rows two.  One potential more is margin.  The block also holds two
    blocks of the potentials' sites: |V| for the tolerances, then V - 2 in
    apply_hamiltonian beside the rows of V that fall back; eight arrays of
    k values a potential (eigenvalues, order, centres, norms, signs,
    residuals); and the buffers numpy's strided in-place adds allocate,
    three operands of up to np.getbufsize() doubles each, and no more
    than the pairs hold."""
    if d == 1:
        one = 8 * n * (2 * k + 12)
    elif n <= SUBSET_SITE_LIMIT:
        one = 16 * n * n + 8 * n * (k + 64)
    else:
        one = 8 * n * (2 * _arpack_ncv(n, k) + k + 11) + 8 * (2 * d + 1) * (n + 1)
    block = 8 * fields * (n * (4 * k + 2) + 8 * k) + 8 * k * n
    return one + block + 24 * min(np.getbufsize(), fields * k * n)


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


def _count_above(V: np.ndarray, theta: float) -> int | None:
    """How many eigenvalues of the d = 1 operator H = Delta + V lie above
    theta, or None when the count is not reliable.

    By Sylvester's law of inertia, the number of negative pivots of an
    LDL^T factorisation of theta I - H, diagonal (theta + 2) - V and
    off-diagonal -1.  LAPACK dpttrf factors it in one pass and stops at a
    pivot p <= 0 at site i; the count counts p, sets d[i + 1] -= 1/p, the
    update dpttrf would have made, and restarts dpttrf at i + 1.  The
    pivots are those of the Sturm sequence, so the count is exact for a
    tridiagonal within a few ulps of H (Kahan 1966; Demmel, Applied
    Numerical Linear Algebra, 5.3.4).  A zero or non-finite pivot, or a
    LAPACK argument error, gives None.
    """
    n = V.size
    d, e = (theta + 2.0) - V, np.full(n - 1, -1.0)
    count = i = 0
    while True:
        if i < n - 1:  # f2py's dpttrf refuses a single site
            info = dpttrf(d[i:], e[i:], overwrite_d=1, overwrite_e=1)[2]
            if info <= 0:
                return count if info == 0 else None
            i += info - 1
        p = float(d[i])  # <= 0, unless i is the last site
        if p == 0.0 or not math.isfinite(p):
            return None
        if p > 0.0:
            return count
        count += 1
        i += 1
        if i == n:
            return count
        d[i] -= 1.0 / p


def _window_solve(V: np.ndarray, k: int, tol: float) -> tuple | None:
    """The top k pairs of the d = 1 operator H = Delta + V from windows
    around its highest sites, finalized as _finalize returns them for a
    block of one potential, when a certificate proves them the top k of H;
    None when the windows would cover half the sites or the certificate
    fails.

    One _tridiagonal_top call solves the principal submatrix of H on the
    union of the windows; windows that do not touch are not coupled.  The
    Ritz pairs, zero-extended, are finalized on the whole chain.  Were the
    Ritz vectors orthonormal, k eigenvalues of H would lie within
    r = ||R||_F of the Ritz values mu_1 >= ... >= mu_k, R the residual
    block (Kahan).  A loss delta of orthonormality, read off their k x k
    Gram matrix on the window sites, widens r to bound = (r + 2 max|mu|
    delta)(1 + delta) / (1 - delta), so all k lie above
    theta = mu_k - bound - slack.  The pairs are certified when residuals
    and delta are within tol and the inertia count (_count_above) finds
    exactly k eigenvalues above theta.
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
    phis = np.zeros((1, k, n))
    phis[0][:, sites] = U.T
    out = _finalize(mu[None], phis, V[None])
    # on Python floats: k values, where numpy's per-call cost would
    # outweigh the arithmetic
    mu, residuals = out[0][0].tolist(), out[3][0].tolist()
    W = out[1][0][:, sites]
    gram = (W @ W.T).tolist()
    delta = math.sqrt(
        sum((g - (i == j)) ** 2 for i, row in enumerate(gram) for j, g in enumerate(row))
    )
    if max(residuals) > tol or delta > tol:
        return None
    r = math.sqrt(sum(x * x for x in residuals))
    # Kahan's bound for the orthonormal polar factor of the Ritz vectors
    bound = (r + 2.0 * max(map(abs, mu)) * delta) * (1.0 + delta) / (1.0 - delta)
    h_norm = max(float(V.max()) - 2.0, 2.0 - float(V.min())) + 2.0  # max|V - 2| + 2
    theta = mu[-1] - bound - _COUNT_SLACK_ULPS * _EPS * h_norm
    return out if _count_above(V, theta) == k else None


def _solve(V: np.ndarray, k: int, phis: np.ndarray) -> tuple:
    """k eigenpairs of Delta + V on the whole box, on the path top_k_eigs
    describes, not yet finalized: the eigenvalues and the path's name, the
    eigenfunctions written to the rows of phis, shape (k, n)."""
    n = V.size
    if V.ndim == 1:
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

    A d = 1 potential is first solved on windows (_window_solve), which
    finalizes and certifies its pairs.  Every other potential, and one
    whose windows fail, is solved on its own on the whole box (_solve),
    and all of them are finalized in one pass.  The input checks, the
    residual check and the check of the invariants of a SpectralResult
    (_check_pairs) run once over the block.
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
    rows = [_window_solve(V[b], k, t) if len(grid) == 1 else None for b, t in enumerate(tol)]
    rest = [b for b, row in enumerate(rows) if row is None]
    solvers = ["window"] * B
    if rest:
        lams, phis = np.empty((len(rest), k)), np.empty((len(rest), k, n))
        try:
            for i, b in enumerate(rest):
                lams[i], solvers[b] = _solve(V[b], k, phis[i])
        except (ArpackNoConvergence, LinAlgError) as exc:
            raise SolverConvergenceError(f"eigensolver did not converge: {exc}") from exc
        phis = phis.reshape((len(rest), k) + grid)
        out = done = _finalize(lams, phis, V[rest] if len(rest) < B else V)
    if len(rest) < B:
        for i, b in enumerate(rest):
            rows[b] = tuple(a[i : i + 1] for a in done)
        out = tuple(map(np.concatenate, zip(*rows)))
    residuals = out[3]
    for b, (row, t) in enumerate(zip(residuals.tolist(), tol)):
        if any(r > t for r in row):
            raise SolverConvergenceError(f"eigenpair residuals {residuals[b]} exceed tol={t}")
    _check_pairs(out[0], out[1])
    return out + (solvers,)


def top_k_eigs(V: np.ndarray, k: int) -> SpectralResult:
    """Top-k eigenpairs of Delta + V; each pair satisfies
    ||H phi - lambda phi||_2 <= max(RESIDUAL_TOL, RESIDUAL_ULPS eps (max|V| + 4d)),
    a bound on the rounding of H phi, or SolverConvergenceError is raised.
    The result's solver field names the path that produced it.

    d = 1: a solve on windows around the highest sites (_window_solve),
    kept only when an LDL^T inertia count of theta I - H (_count_above),
    exact for a tridiagonal within a few ulps of H, certifies that no
    eigenvalue was missed; otherwise, and when the windows would cover half
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

    def on_grid(self, shape: tuple, x0: tuple) -> np.ndarray:
        """bar_phi(. - x0), zero-extended, on the centred grid of ``shape``;
        ValueError when bar_phi's window around x0 leaves it."""
        prof = np.zeros(shape)
        prof[field.window(shape[0], x0, self.weights.half)] = self.bar_phi
        return prof


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


def approximation_errors(bar, lam1, phi1, peak, phi, prof, scales):
    """Scaled eigenpair approximation errors at the conditioning point x0
    of B solves, stacked on a leading axis (B = 1 for one solve):

        eig_err = a_L * |lambda_1 - (Xi(x0) + bar_lambda)|
        fun_err = (a_L / d_L) * ||phi_1 - bar_phi(. - x0)||_2

    given the top eigenvalues lam1 and eigenfunctions phi1, xi(x0) and
    Phi(x0) of each field, with Xi(x0) = xi(x0) + Phi(x0), and
    bar_phi(. - x0), zero-extended, on the solve's grid (bar.on_grid)."""
    eig_err = scales.a_L * np.abs(lam1 - (peak + phi + bar.bar_lambda))
    fun_err = (scales.a_L / scales.d_L) * distance_up_to_sign(phi1, prof)
    return eig_err, fun_err


def distance_up_to_sign(phi: np.ndarray, ref: np.ndarray) -> np.ndarray:
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

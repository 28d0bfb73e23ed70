"""Discrete Schrödinger operators on boxes: solvers and approximation checks.

The operator is H = Delta + V on a centered box with Dirichlet boundary
conditions (functions are extended by zero outside the box before the
stencil is applied).  Eigenvalues are kept in non-increasing order
lambda_1 >= lambda_2 >= ...

Two solvers: top_k_eigs, the one entry point for the top of the spectrum,
backed by LAPACK (tridiagonal and subset solvers) and ARPACK, with a
certified solve on windows around the highest sites in d = 1 and a
Chebyshev filter in front of ARPACK in d >= 2; and dense_eigs, a full
symmetric eigendecomposition used as the independent oracle on small boxes.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh, eigh_tridiagonal
from scipy.linalg.lapack import dstebz
from scipy.sparse import csr_array
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from . import covariance as cov
from . import field
from .extremes import descending_sites
from .errors import SolverConvergenceError

__all__ = [
    "SpectralResult",
    "BarSolution",
    "apply_hamiltonian",
    "dense_eigs",
    "top_k_eigs",
    "solve_bar_problem",
    "bar_lambda_expansion",
    "quadratic_form",
    "form_gradient",
    "decay_check",
    "approximation_error",
    "spectral_gap_check",
]

DENSE_SITE_LIMIT = 4000  # dense_eigs, the full-eigh oracle
# top_k_eigs, d >= 2: dense subset eigh up to here, ARPACK above.  Top 4
# pairs on one BLAS thread of a 2-vCPU x86 VM: 1.4 ms against 4.0 ms for
# ARPACK at 169 sites, about even near 400, 86 ms against 13 ms at 961.
SUBSET_SITE_LIMIT = 400
_ARPACK_V0_SEED = 12345
# top_k_eigs, d >= 2 above SUBSET_SITE_LIMIT: ARPACK runs on the Chebyshev
# filter T_m((2H - (c + a)I) / (c - a)) of degree FILTER_DEGREE, with a below
# the spectrum and c below lambda_k; c comes from boxes of radius
# CUT_BOX_RADIUS around high sites (_filter_interval).
FILTER_DEGREE = 12
CUT_BOX_RADIUS = 2
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
TIE_TOL = 1e-12
# c' of spectral_gap_check: the gap event asks lambda_2 <= xi(x0) - c' a_L/d_L.
GAP_C_PRIME = 0.25


def apply_hamiltonian(V: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """(Delta psi)(x) + V(x) psi(x), psi extended by zero outside the box.

    psi has V's shape, or a leading batch axis, shape (k,) + V.shape, to
    apply H to k functions at once.
    """
    batch = psi.ndim - V.ndim
    if batch not in (0, 1) or psi.shape[batch:] != V.shape:
        raise ValueError(f"shape mismatch: {V.shape} vs {psi.shape}")
    out = (V - 2.0 * V.ndim) * psi
    for axis in range(batch, psi.ndim):
        lo = [slice(None)] * psi.ndim
        hi = [slice(None)] * psi.ndim
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        out[tuple(lo)] += psi[tuple(hi)]
        out[tuple(hi)] += psi[tuple(lo)]
    return out


def _index_to_coord(idx: tuple, half: int) -> tuple:
    return tuple(int(i) - half for i in idx)


@dataclass(frozen=True)
class SpectralResult:
    """Top eigenpairs of one operator, eigenvalues non-increasing."""

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray  # shape (k,) + grid shape
    centers: tuple  # grid-index tuples of argmax |phi|
    residuals: np.ndarray
    half: int  # box half-width, for coordinate conversion
    solver: str  # "window", "tridiagonal", "subset", "arpack" or "dense"

    def __post_init__(self):
        lam = self.eigenvalues
        if np.any(np.diff(lam) > TIE_TOL):
            raise ValueError("eigenvalues not in non-increasing order")
        norms = np.sqrt(np.sum(self.eigenfunctions**2, axis=tuple(range(1, self.eigenfunctions.ndim))))
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("eigenfunctions not l2-normalized")

    @property
    def k(self) -> int:
        return len(self.eigenvalues)

    @property
    def gap(self) -> float:
        if self.k < 2:
            raise ValueError("gap needs at least two eigenvalues")
        return float(self.eigenvalues[0] - self.eigenvalues[1])

    def center_coords(self, i: int = 0) -> tuple:
        return _index_to_coord(self.centers[i], self.half)

    def tied_blocks(self, tol: float = TIE_TOL):
        """Partition 0..k-1 into maximal blocks of eigenvalues within tol."""
        blocks, start = [], 0
        for i in range(1, self.k + 1):
            if i == self.k or self.eigenvalues[i - 1] - self.eigenvalues[i] > tol:
                blocks.append(list(range(start, i)))
                start = i
        return blocks

    def to_json(self) -> str:
        return json.dumps(
            {
                "eigenvalues": self.eigenvalues.tolist(),
                "centers": [self.center_coords(i) for i in range(self.k)],
                "residuals": self.residuals.tolist(),
                "gap": self.gap if self.k >= 2 else None,
            }
        )


def _finalize(lams, phis, V, solver: str) -> SpectralResult:
    """Order, sign-fix and package eigenpairs; compute true residuals.

    phis holds the eigenfunctions as rows, shape (k,) + V.shape; all k are
    normalized, centred, sign-fixed and residual-checked in one pass.
    """
    order = np.argsort(-lams, kind="stable")
    lams = np.asarray(lams, dtype=float)[order]
    k = lams.size
    stack = (k,) + (1,) * V.ndim  # broadcasts one number per row
    P = np.asarray(phis)[order]
    P = P / np.sqrt(np.sum(P.reshape(k, -1) ** 2, axis=1)).reshape(stack)
    flat = P.reshape(k, -1)
    # argmax of |phi|, first in C order on ties; positive there
    peak = np.argmax(np.abs(flat), axis=1)
    flip = flat[np.arange(k), peak] < 0
    P[flip] = -P[flip]
    R = apply_hamiltonian(V, P)
    R -= lams.reshape(stack) * P
    centers = zip(*(c.tolist() for c in np.unravel_index(peak, V.shape)))
    return SpectralResult(
        eigenvalues=lams,
        eigenfunctions=P,
        centers=tuple(centers),
        residuals=np.sqrt(np.sum(R.reshape(k, -1) ** 2, axis=1)),
        half=V.shape[0] // 2,
        solver=solver,
    )


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


def _assemble_scaled(V: np.ndarray, a: float, c: float) -> csr_array:
    """(2H - (c + a)I) / (c - a), sparse: H with [a, c] mapped onto [-1, 1]."""
    n = V.size
    i, j = _bonds(V.shape)
    sites = np.arange(n)
    scale = 2.0 / (c - a)
    diag = scale * (V.ravel(order="C") - 2.0 * V.ndim) - (c + a) / (c - a)
    data = np.concatenate([diag, np.full(2 * i.size, scale)])
    rows = np.concatenate([sites, i, j])
    cols = np.concatenate([sites, j, i])
    return csr_array((data, (rows, cols)), shape=(n, n))


def _arpack_ncv(n: int, k: int) -> int:
    # scipy.sparse.linalg.eigsh's default Lanczos basis size
    return min(n, max(2 * k + 1, 20))


def solver_bytes(n: int, d: int, k: int) -> int:
    """Bytes top_k_eigs holds for k pairs on n sites in dimension d: O(n)
    for the tridiagonal solver; the dense subset-eigh matrix (n x n); or,
    on the ARPACK path, the Lanczos basis (ncv x n), the filter's three work
    vectors and its CSR matrix (at most 2d + 1 entries a row, 8 bytes of
    value and 8 of column index each, and an 8-byte pointer a row)."""
    if d == 1:
        return 8 * n * (k + 4)
    if n <= SUBSET_SITE_LIMIT:
        return 8 * n * n
    return 8 * n * (_arpack_ncv(n, k) + 3) + 16 * (2 * d + 1) * n + 8 * (n + 1)


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


def _chebyshev_filter(V: np.ndarray, a: float, c: float) -> LinearOperator:
    """T_m(S) for m = FILTER_DEGREE and S = (2H - (c + a)I) / (c - a), by
    the three-term recurrence T_{j+1}(S)x = 2S T_j(S)x - T_{j-1}(S)x with
    three work vectors."""
    S = _assemble_scaled(V, a, c)

    def apply(x):
        prev, cur = x.ravel(), S @ x.ravel()
        for _ in range(FILTER_DEGREE - 1):
            nxt = S @ cur
            nxt *= 2.0
            nxt -= prev
            prev, cur = cur, nxt
        return cur

    return LinearOperator(S.shape, matvec=apply, dtype=float)


def dense_eigs(V: np.ndarray, k: int | None = None) -> SpectralResult:
    """Full symmetric eigendecomposition (oracle path, small boxes only)."""
    n = V.size
    if n > DENSE_SITE_LIMIT:
        raise ValueError(f"dense solver limited to {DENSE_SITE_LIMIT} sites")
    H = _assemble_dense(V)
    w, U = np.linalg.eigh(H)
    k = n if k is None else min(k, n)
    sel = np.argsort(-w)[:k]
    return _finalize(w[sel], U[:, sel].T.reshape((k,) + V.shape), V, "dense")


def _window_eigs(V: np.ndarray, k: int, tol: float) -> SpectralResult | None:
    """Certified top-k pairs of the d = 1 operator from windows around its
    highest sites, or None when the windows cannot be certified.

    One LAPACK call solves the principal submatrix of H on the union of the
    windows; windows that do not touch are not coupled.  Zero-extended, the
    k top Ritz vectors have residual block R on the full H.  Were they
    orthonormal, k eigenvalues of H would lie within r = ||R||_F of the
    Ritz values mu_1 >= ... >= mu_k (Kahan).  A loss delta of
    orthonormality widens r to bound = (r + 2 max|mu| delta)(1 + delta) /
    (1 - delta), so all k lie above theta = mu_k - bound - slack.  A Sturm
    count (LAPACK dstebz) of the eigenvalues of H above theta decides: if
    it finds exactly k, they are the top k and the pairs are returned.
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
    t = sites.size
    if 2 * t >= n:
        return None
    mu, U = eigh_tridiagonal(
        V[sites] - 2.0,
        (np.diff(sites) == 1).astype(float),
        select="i",
        select_range=(t - k, t - 1),
    )
    phis = np.zeros((k, n))
    phis[:, sites] = U.T
    result = _finalize(mu, phis, V, "window")
    gram = result.eigenfunctions @ result.eigenfunctions.T
    delta = float(np.linalg.norm(gram - np.eye(k)))
    if np.any(result.residuals > tol) or delta > tol:
        return None
    r = math.sqrt(float(np.sum(result.residuals**2)))
    mu = result.eigenvalues
    # Kahan's bound for the orthonormal polar factor of the Ritz vectors
    bound = (r + 2.0 * float(np.max(np.abs(mu))) * delta) * (1.0 + delta) / (1.0 - delta)
    h_norm = float(np.max(np.abs(V - 2.0))) + 2.0
    slack = _COUNT_SLACK_ULPS * np.finfo(float).eps * h_norm
    theta = float(mu[-1]) - bound - slack
    top = float(np.max(V)) + 1.0  # above every eigenvalue (Gershgorin)
    # range 1: count by value in (theta, top]; an abstol as wide as that
    # interval stops the bisection at once, leaving only the count
    count, _, _, _, info = dstebz(
        V - 2.0, np.ones(n - 1), 1, theta, top, 0, 0, top - theta, b"E"
    )
    if info != 0 or count != k:
        return None
    return result


def top_k_eigs(V: np.ndarray, k: int, tol: float = 1e-10) -> SpectralResult:
    """Top-k eigenpairs of Delta + V; each pair satisfies
    ||H phi - lambda phi||_2 <= tol or SolverConvergenceError is raised.
    The result's solver field names the path that produced it.

    d = 1: a solve on windows around the highest sites, kept only when a
    Sturm count certifies that no eigenvalue was missed (_window_eigs);
    otherwise, and when the windows would cover half the sites, LAPACK
    bisection and inverse iteration on the whole tridiagonal H
    (eigh_tridiagonal).  d >= 2 up to SUBSET_SITE_LIMIT sites: dense
    LAPACK eigh restricted to the top k indices.  Larger d >= 2 boxes:
    ARPACK (eigsh) from a fixed start vector, so results are deterministic,
    on p(H) = T_m((2H - (c + a)I) / (c - a)), the Chebyshev polynomial of
    degree m = FILTER_DEGREE with [a, c] from _filter_interval.  On [a, c]
    |p| <= 1; above c, p increases from 1.  Every eigenvalue of H lies
    above a and the top k above c, so the top k of p(H) belong to the same
    eigenvectors as the top k of H, in the same order, while p stretches
    their gaps.  The eigenvalues returned are the Rayleigh quotients
    <u, Hu> of the Ritz vectors u.  A site hundreds of units above the rest
    of V makes p(lambda_1) / p(lambda_k) so large that rounding along the
    top pair swamps the others; their residuals then exceed tol.
    """
    n = V.size
    if k > 32:
        raise ValueError("k limited to 32")
    if k > n:
        raise ValueError(f"k={k} exceeds {n} sites")
    if tol < 1e-13:
        raise ValueError("tol below achievable double precision")
    try:
        if V.ndim == 1:
            result = _window_eigs(V, k, tol)
            if result is not None:
                return result
            solver = "tridiagonal"
            lams, U = eigh_tridiagonal(
                V - 2.0, np.ones(n - 1), select="i", select_range=(n - k, n - 1)
            )
        elif n <= SUBSET_SITE_LIMIT:
            solver = "subset"
            lams, U = eigh(_assemble_dense(V), subset_by_index=[n - k, n - 1])
        else:
            solver = "arpack"
            p_of_H = _chebyshev_filter(V, *_filter_interval(V, k))
            v0 = np.random.default_rng(_ARPACK_V0_SEED).standard_normal(n)
            _, U = eigsh(p_of_H, k, which="LA", tol=0, ncv=_arpack_ncv(n, k), v0=v0)
            P = U.T.reshape((k,) + V.shape)
            lams = np.sum((P * apply_hamiltonian(V, P)).reshape(k, -1), axis=1)
    except (ArpackNoConvergence, LinAlgError) as exc:
        raise SolverConvergenceError(f"eigensolver did not converge: {exc}") from exc
    result = _finalize(lams, U.T.reshape((k,) + V.shape), V, solver)
    if np.any(result.residuals > tol):
        raise SolverConvergenceError(
            f"eigenpair residuals {result.residuals} exceed tol={tol}"
        )
    return result


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
        """Offsets and weights of bar_phi, built once, for field.phi_at."""
        return field.ProfileWeights.of(self.bar_phi, self.bar_phi.ndim)


def bar_lambda_expansion(model: cov.CovarianceModel, a_L: float, d: int) -> float:
    """First-order expansion -2d + sum over unit vectors of 1/S(x)."""
    total = -2.0 * d
    for axis in range(d):
        e = np.zeros(d, dtype=int)
        e[axis] = 1
        for sign in (1, -1):
            s = cov.shape(model, a_L, sign * e)
            if s <= 0.0:
                raise ValueError(
                    "shape vanishes at a unit vector; expansion undefined"
                )
            total += 1.0 / s
    return total


def solve_bar_problem(
    model: cov.CovarianceModel, a_L: float, r_L: int
) -> BarSolution:
    """Solve the deterministic problem Delta - S on Q_{r_L}, Dirichlet."""
    if r_L < 3 or r_L % 2 == 0:
        raise ValueError(f"r_L must be odd and >= 3, got {r_L}")
    half = r_L // 2
    S = cov.shape_grid(model, a_L, half)
    V = -S
    res = top_k_eigs(V, 1)
    if res.residuals[0] > 1e-12 * max(1.0, abs(res.eigenvalues[0])):
        raise SolverConvergenceError(
            f"bar problem residual {res.residuals[0]:.3e} too large"
        )
    phi = res.eigenfunctions[0]
    c = tuple(s // 2 for s in phi.shape)
    if phi[c] < 0:
        phi = -phi
    try:
        expansion = bar_lambda_expansion(model, a_L, model.d)
    except ValueError:
        expansion = math.nan
    return BarSolution(
        bar_lambda=float(res.eigenvalues[0]),
        bar_phi=phi,
        expansion_value=expansion,
    )


def quadratic_form(V: np.ndarray, psi: np.ndarray) -> float:
    """<psi, (Delta + V) psi> for l2-normalized psi."""
    if abs(float(np.sum(psi**2)) - 1.0) > 1e-8:
        raise ValueError("psi must be l2-normalized")
    return float(np.sum(psi * apply_hamiltonian(V, psi)))


def form_gradient(V: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Gradient of the quadratic form in the sphere chart around the origin.

    The form is viewed as a function of the off-origin values of psi, with
    the origin value eliminated through the normalization constraint
    psi(0) = sqrt(1 - sum_{x != 0} psi(x)^2) > 0.  Then

        d form / d psi(x) = 2 [ (H psi)(x) - (H psi)(0) psi(x) / psi(0) ],

    which vanishes exactly at eigenfunctions.  The origin component of the
    returned grid is set to zero (it is not a free coordinate).
    """
    c = tuple(s // 2 for s in psi.shape)
    off_mass = float(np.sum(psi**2)) - float(psi[c] ** 2)
    if 1.0 - off_mass <= 0.0:
        raise ValueError("normalization leaves no positive mass at the origin")
    if psi[c] <= 0.0:
        raise ValueError("psi must be positive at the origin in this chart")
    hpsi = apply_hamiltonian(V, psi)
    grad = 2.0 * (hpsi - (hpsi[c] / psi[c]) * psi)
    grad[c] = 0.0
    return grad


@dataclass(frozen=True)
class DecayReport:
    holds: bool
    max_ratio: float  # largest phi(x)^2 * (1 + c*rate)^{2|x-center|}
    fitted_c: float  # largest c for which the bound holds on this data


def decay_check(
    phi: np.ndarray, center: tuple, rate: float, c: float = 0.5
) -> DecayReport:
    """Check exponential decay phi(x)^2 <= (1 + c*rate)^{-2|x - center|}.

    center is a grid-index tuple; rate plays the role of a_L/d_L.
    Diagnostic only: returns the worst ratio and the best constant that
    would make the bound hold, never raises.
    """
    d = phi.ndim
    idx = np.indices(phi.shape)
    dist = np.zeros(phi.shape)
    for axis in range(d):
        dist += np.abs(idx[axis] - center[axis])
    mask = dist > 0
    ratios = phi[mask] ** 2 * (1.0 + c * rate) ** (2.0 * dist[mask])
    max_ratio = float(np.max(ratios)) if ratios.size else 0.0
    # best constant: phi^2 <= (1+c'r)^{-2 dist}  <=>  c' <= ((phi^2)^{-1/(2 dist)} - 1)/r
    pos = mask & (phi**2 > 0)
    if pos.any() and rate > 0:
        cands = ((phi[pos] ** 2) ** (-0.5 / dist[pos]) - 1.0) / rate
        fitted = float(np.min(cands))
    else:
        fitted = math.inf
    return DecayReport(holds=bool(max_ratio <= 1.0), max_ratio=max_ratio, fitted_c=fitted)


def _embed_profile(bar_phi: np.ndarray, target_shape: tuple, x0_idx: tuple) -> np.ndarray:
    """Zero-extend bar_phi (centered on Q_r) into a grid of target_shape,
    centered at grid index x0_idx."""
    rh = bar_phi.shape[0] // 2
    out = np.zeros(target_shape)
    src = []
    dst = []
    for axis, c in enumerate(x0_idx):
        lo, hi = c - rh, c + rh
        if lo < 0 or hi >= target_shape[axis]:
            raise ValueError("profile window leaves the target box")
        dst.append(slice(lo, hi + 1))
        src.append(slice(None))
    out[tuple(dst)] = bar_phi[tuple(src)]
    return out


def approximation_error(
    bar: BarSolution,
    result: SpectralResult,
    view: field.FluctuationView,
    scales,
) -> tuple[float, float]:
    """Scaled eigenpair approximation errors at the conditioning point.

    eig_err = a_L * |lambda_1 - (Xi(x0) + bar_lambda)|
    fun_err = (a_L / d_L) * ||phi_1 - bar_phi(. - x0)||_2

    where Xi(x0) = xi(x0) + Phi(x0), result was computed on the central
    box of the view's sample, and bar_phi is zero-extended.  x0 is the base
    point of the fluctuation view (expected to be the conditioning point).
    """
    bar_phi = bar.bar_phi
    x0 = view.x0
    xi_cap_x0 = view.base.at(x0) + field.phi_at(view, bar.weights)
    lam1 = float(result.eigenvalues[0])
    eig_err = scales.a_L * abs(lam1 - (xi_cap_x0 + bar.bar_lambda))

    # locate x0 inside the result grid (the central box of the sample)
    x0_idx = tuple(int(c) + result.half for c in x0)
    prof = _embed_profile(bar_phi, result.eigenfunctions[0].shape, x0_idx)
    phi1 = result.eigenfunctions[0]
    if float(np.sum(phi1 * prof)) < 0:
        phi1 = -phi1
    fun_err = (scales.a_L / scales.d_L) * math.sqrt(
        float(np.sum((phi1 - prof) ** 2))
    )
    return float(eig_err), float(fun_err)


def spectral_gap_check(result: SpectralResult, peak_value: float, scales):
    """Whether lambda_2 <= xi(x0) - GAP_C_PRIME * a_L / d_L; returns (ok, margin)."""
    if result.k < 2:
        raise ValueError("gap check needs at least two eigenvalues")
    bound = peak_value - GAP_C_PRIME * scales.a_L / scales.d_L
    margin = bound - float(result.eigenvalues[1])
    return (margin >= 0.0, float(margin))

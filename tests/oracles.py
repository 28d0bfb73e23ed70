"""Reference computations the tests check the library against.

None of these runs on a program path: the library's one eigensolver is
``spectrum.top_k_eigs``.  ``dense_eigs`` is the independent full-``eigh``
oracle on small boxes, ``dstebz_count_above`` the bisection count that
the d = 1 window certificate's inertia count must equal, ``tied_blocks``
groups a result's eigenvalues, and ``quadratic_form`` and
``form_gradient`` are the Rayleigh quotient and its gradient that
criterion 13 checks.  ``xi_cap`` forms the shifted
field, ``check_hypotheses`` the structural diagnostics of a covariance,
and ``ppp_rank_one_probability`` the rank-one probability of the decorated
point process.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dstebz

from andex import covariance as cov, spectrum
from andex.covariance import CovarianceModel, derive_dL, eval_cov_offsets
from andex.field import FieldSample, ProfileWeights, window

DENSE_SITE_LIMIT = 4000  # dense_eigs, the full-eigh oracle


def dense_eigs(V: np.ndarray, k: int | None = None) -> spectrum.SpectralResult:
    """Full symmetric eigendecomposition (oracle path, small boxes only)."""
    n = V.size
    if n > DENSE_SITE_LIMIT:
        raise ValueError(f"dense solver limited to {DENSE_SITE_LIMIT} sites")
    H = spectrum._assemble_dense(V)
    w, U = np.linalg.eigh(H)
    k = n if k is None else min(k, n)
    sel = np.argsort(-w)[:k]
    lams, P, centers, residuals = spectrum._finalize(
        w[sel][None], U[:, sel].T.reshape((1, k) + V.shape), V[None]
    )
    return spectrum.SpectralResult(
        lams[0], P[0], tuple(centers[0].tolist()), residuals[0], "dense"
    )


def dstebz_count_above(V: np.ndarray, theta: float) -> int | None:
    """How many eigenvalues of the d = 1 operator Delta + V lie above theta,
    by LAPACK dstebz counting at both ends of (theta, top], top above every
    eigenvalue (Gershgorin) and theta; None when LAPACK fails.  An abstol
    as wide as the interval stops its bisection at once, leaving only the
    count.  The window certificate counted this way before its one-pass
    count, spectrum._count_above."""
    n = V.size
    if n == 1:  # f2py's dstebz refuses an empty off-diagonal
        return int(float(V[0]) - 2.0 > theta)
    top = max(float(V.max()), theta) + 1.0
    count, _, _, _, info = dstebz(V - 2.0, np.ones(n - 1), 1, theta, top, 0, 0, top - theta, b"E")
    return count if info == 0 else None


def tied_blocks(result: spectrum.SpectralResult, tol: float = spectrum.TIE_TOL):
    """Partition 0..k-1 into maximal blocks of eigenvalues within tol."""
    blocks, start = [], 0
    for i in range(1, result.k + 1):
        if i == result.k or result.eigenvalues[i - 1] - result.eigenvalues[i] > tol:
            blocks.append(list(range(start, i)))
            start = i
    return blocks


def quadratic_form(V: np.ndarray, psi: np.ndarray) -> float:
    """<psi, (Delta + V) psi> for l2-normalized psi."""
    if abs(float(np.sum(psi**2)) - 1.0) > 1e-8:
        raise ValueError("psi must be l2-normalized")
    return float(np.sum(psi * spectrum.apply_hamiltonian(V, psi)))


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
    hpsi = spectrum.apply_hamiltonian(V, psi)
    grad = 2.0 * (hpsi - (hpsi[c] / psi[c]) * psi)
    grad[c] = 0.0
    return grad


def xi_cap(sample: FieldSample, weights: ProfileWeights) -> tuple[np.ndarray, int]:
    """Shifted field Xi = xi + Phi of the one field of ``sample``, a block of
    one, on the admissible sub-box.

    Returns (grid, sub_half) where the grid covers the points y with
    Q_{r,y} inside Q_L, i.e. |y_i| <= sub_half = h - r_half.

    Vectorized as a correlation: Xi(y) = xi(y) (1 - sum w v) + sum w xi(.+y).
    """
    offs, w, rh = weights.offsets, weights.weights, weights.half
    if offs.shape[1] != sample.d:
        raise ValueError(f"profile must be {sample.d}-dimensional")
    sub_half = sample.half - rh
    if sub_half < 0:
        raise ValueError("profile window larger than the box")
    v_offs = cov.eval_cov_offsets(sample.model, offs)
    L, (vals,) = sample.L, sample.values
    out = (1.0 - float(w @ v_offs)) * vals[window(L, (0,) * sample.d, sub_half)]
    for off, weight in zip(offs.tolist(), w):
        out += weight * vals[window(L, off, sub_half)]
    return out, sub_half


@dataclass(frozen=True)
class HypothesisReport:
    """Diagnostic check of the structural hypotheses on v.

    tail_stat: max of v(x)*ln|x| over the far annulus (long-range decay).
    shortrange_ok / witnesses: unit-scale lower/upper envelope constants.
    assumption14_ratio: d_L / a_L (should be small).
    assumption15_ratio: tau_L / ((1/a_L) * sqrt(a_L/d_L)) (should be <= O(1)).
    """

    tail_stat: float
    shortrange_ok: bool
    c_lower: float
    c_prime: float
    assumption14_ok: bool
    assumption14_ratio: float
    assumption15_ok: bool
    assumption15_ratio: float

    def to_json(self) -> str:
        return json.dumps(self.__dict__)


def check_hypotheses(model: CovarianceModel, L: int, scales) -> HypothesisReport:
    """Evaluate the long-range / short-range hypotheses on Q_{3L}.

    tail_stat scans v(x)*ln|x| for |x| >= exp(sqrt(ln L)); the witness
    constants are fitted, not assumed.  Purely diagnostic: never raises on
    a failed hypothesis.
    """
    if L < 4:
        raise ValueError("L too small for a meaningful scan")
    d = model.d
    half = (3 * L) // 2
    r_min = math.exp(math.sqrt(math.log(L)))
    d_L = derive_dL(model)

    # Scan along a set of rays plus random lattice points: exact for the
    # isotropic families, cheap in all dimensions.
    rng = np.random.default_rng(0)
    pts = [np.eye(d, dtype=int)[i] * k for i in range(d) for k in range(1, half + 1)]
    diag = np.ones(d, dtype=int)
    pts += [diag * k for k in range(1, half + 1)]
    pts += list(rng.integers(-half, half + 1, size=(512, d)))
    pts = np.array([p for p in pts if np.any(p != 0)])
    norms = np.sqrt(np.sum(pts.astype(float) ** 2, axis=-1))
    vals = eval_cov_offsets(model, pts)

    far = norms >= r_min
    tail_stat = float(np.max(vals[far] * np.log(norms[far]))) if far.any() else 0.0
    tail_stat = max(tail_stat, 0.0)

    one_minus = 1.0 - vals
    c_lower = float(d_L * np.min(one_minus))
    # Upper envelope 1 - v(x) <= e^{c'|x|}/d_L, fitted only where it is
    # non-vacuous (1 - v <= 1).
    sup_norm = np.max(np.abs(pts), axis=-1)
    ok = one_minus > 0
    rates = np.log(d_L * one_minus[ok]) / sup_norm[ok]
    c_prime = float(max(np.max(rates), 0.0)) if rates.size else 0.0
    shortrange_ok = c_lower > 0.0 and np.isfinite(c_prime)

    a_L = scales.a_L
    r14 = d_L / a_L
    tau_budget = (1.0 / a_L) * math.sqrt(a_L / d_L)
    r15 = scales.tau_L / tau_budget if tau_budget > 0 else math.inf
    return HypothesisReport(
        tail_stat=tail_stat,
        shortrange_ok=bool(shortrange_ok),
        c_lower=c_lower,
        c_prime=c_prime,
        assumption14_ok=bool(r14 < 1.0),
        assumption14_ratio=float(r14),
        assumption15_ok=bool(np.isfinite(r15)),
        assumption15_ratio=float(r15),
    )


# Seeds per batch of ppp_rank_one_probability; its draws depend on it.
PPP_CHUNK = 20000


def ppp_rank_one_probability(
    b: float, K: int, n_seeds: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of P(ell(1) = 1) for the K-truncated decorated
    process, with binomial standard error.

    Vectorized over seeds.  For very large b the truncation inflates the
    estimate (the true argmax may fall past K points); this is documented
    behaviour and fine for monotonicity checks, where the truncated value
    upper-bounds an already tiny probability.
    """
    if K < 50 or n_seeds < 1:
        raise ValueError("K >= 50 and n_seeds >= 1 required")
    if not b >= 0:
        raise ValueError(f"decoration variance must be >= 0, got {b}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    hits = 0
    done = 0
    sd = math.sqrt(b)
    while done < n_seeds:
        m = min(PPP_CHUNK, n_seeds - done)
        gamma = np.cumsum(rng.exponential(size=(m, K)), axis=1)
        s = -np.log(gamma)
        if b > 0:
            s = s + rng.normal(0.0, sd, size=(m, K))
        hits += int(np.sum(np.argmax(s, axis=1) == 0))
        done += m
    p = hits / n_seeds
    se = math.sqrt(max(p * (1.0 - p), 1.0 / n_seeds) / n_seeds)
    return p, se

"""Stationary lattice covariance families and their structural diagnostics.

Four families are supported:

    iid               v(x) = 1{x = 0}
    cube_indicator(m) v(x) = prod_i max(0, 1 - |x_i|/m)   (product of tents)
    gaussian_kernel(ell) v(x) = exp(-|x|^2 / (2 ell^2))
    exponential(alpha)   v(x) = exp(-alpha |x|)

The first three are the workhorses; the exponential family exists mainly to
stress the circulant-embedding failure path.  All evaluation is pure and a
model is immutable after construction.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .errors import EmbeddingInvalidError

__all__ = [
    "CovarianceModel",
    "HypothesisReport",
    "eval_cov",
    "eval_cov_offsets",
    "derive_dL",
    "shape",
    "effective_radius",
    "check_hypotheses",
    "circulant_spectrum",
]

# effective_radius cuts the covariance where it falls below this.
RADIUS_EPS = 1e-14

# family -> the name of its one parameter, None for a family without one
_FAMILIES = {
    "iid": None,
    "cube_indicator": "m",
    "gaussian_kernel": "ell",
    "exponential": "alpha",
}


@dataclass(frozen=True)
class CovarianceModel:
    family: str
    d: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown covariance family: {self.family!r}")
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1..3, got {self.d}")
        key = _FAMILIES[self.family]
        extra = sorted(set(self.params) - {key})
        if extra:
            raise ValueError(f"{self.family} takes no parameter {', '.join(extra)}")
        if key is not None:
            val = self.params.get(key)
            real = isinstance(val, numbers.Real) and not isinstance(val, bool)
            if not (real and 0 < val < math.inf):
                raise ValueError(
                    f"{self.family} requires a finite parameter {key} > 0, got {val!r}"
                )

    @classmethod
    def from_config(cls, cfg: dict, d: int) -> "CovarianceModel":
        cfg = dict(cfg)
        if "family" not in cfg:
            raise ValueError("covariance config needs a family")
        return cls(family=cfg.pop("family"), d=d, params=cfg)

    def to_config(self) -> dict:
        return {"family": self.family, **self.params}


def eval_cov_offsets(model: CovarianceModel, offsets: np.ndarray) -> np.ndarray:
    """Vectorized covariance at integer offsets, shape (..., d)."""
    x = np.asarray(offsets, dtype=float)
    if x.shape[-1] != model.d:
        raise ValueError(f"offsets must have last axis {model.d}")
    if model.family == "iid":
        return np.all(x == 0.0, axis=-1).astype(float)
    if model.family == "cube_indicator":
        m = model.params["m"]
        return np.prod(np.maximum(0.0, 1.0 - np.abs(x) / m), axis=-1)
    if model.family == "gaussian_kernel":
        ell = model.params["ell"]
        return np.exp(-np.sum(x * x, axis=-1) / (2.0 * ell * ell))
    alpha = model.params["alpha"]
    return np.exp(-alpha * np.sqrt(np.sum(x * x, axis=-1)))


def eval_cov(model: CovarianceModel, x) -> float:
    """Covariance v(x) at a single lattice point (sequence of d ints)."""
    return float(eval_cov_offsets(model, np.atleast_1d(np.asarray(x))[None, :])[0])


def derive_dL(model: CovarianceModel) -> float:
    """Short-range scale 1/(1 - sup_{|x|=1} v(x)); exact per family."""
    if model.family == "iid":
        return 1.0
    if model.family == "cube_indicator":
        return float(model.params["m"])
    if model.family == "gaussian_kernel":
        ell = model.params["ell"]
        drop = -math.expm1(-1.0 / (2.0 * ell * ell))  # 1 - e^{-1/(2 ell^2)}
        if drop <= 0.0:
            raise ValueError("degenerate covariance: no drop at unit distance")
        return 1.0 / drop
    alpha = model.params["alpha"]
    drop = -math.expm1(-alpha)
    if drop <= 0.0:
        raise ValueError("degenerate covariance: no drop at unit distance")
    return 1.0 / drop


def shape(model: CovarianceModel, a_L: float, x) -> float:
    """Shape profile a_L * (1 - v(x)) >= 0."""
    if a_L < 0.0:
        raise ValueError("a_L must be nonnegative")
    return a_L * (1.0 - eval_cov(model, x))


def shape_grid(model: CovarianceModel, a_L: float, half: int) -> np.ndarray:
    """Shape on the centered box [-half, half]^d as a grid."""
    offs = _offset_grid(model.d, half)
    return a_L * (1.0 - eval_cov_offsets(model, offs))


def _offset_grid(d: int, half: int) -> np.ndarray:
    """Integer offsets of the centered box, shape (side,)*d + (d,)."""
    axes = [np.arange(-half, half + 1)] * d
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def effective_radius(model: CovarianceModel) -> int:
    """Smallest integer r with v(x) < RADIUS_EPS whenever |x| >= r along an axis."""
    if model.family == "iid":
        return 0
    if model.family == "cube_indicator":
        return int(math.ceil(model.params["m"]))
    if model.family == "gaussian_kernel":
        ell = model.params["ell"]
        return int(math.ceil(ell * math.sqrt(2.0 * math.log(1.0 / RADIUS_EPS)))) + 1
    alpha = model.params["alpha"]
    return int(math.ceil(math.log(1.0 / RADIUS_EPS) / alpha)) + 1


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
    ratios = np.log(d_L * one_minus[ok]) / sup_norm[ok]
    c_prime = float(max(np.max(ratios), 0.0)) if ratios.size else 0.0
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


def _fftn(x: np.ndarray) -> np.ndarray:
    """Complex DFT over every axis, bit-identical to ``np.fft.fftn``.

    ``scipy.fft.fft`` one axis at a time, last axis first, on complex
    input: the order and the transform numpy uses (``scipy.fft.fftn`` and
    real input both round differently), but faster at lengths with a large
    prime factor.
    """
    out = np.asarray(x, dtype=complex)
    for axis in reversed(range(out.ndim)):
        out = scipy.fft.fft(out, axis=axis)
    return out


def circulant_spectrum(model: CovarianceModel, torus_side: int) -> np.ndarray:
    """DFT of the minimal-image wrapped covariance on the d-torus.

    Returns the real spectral grid (shape (torus_side,)*d).  Raises
    EmbeddingInvalidError when the most negative entry is materially below
    zero (< -1e-8 * max entry), which means spectral synthesis on this
    torus would not be an exact sampler.
    """
    if torus_side < 2:
        raise ValueError("torus_side must be >= 2")
    n = torus_side
    k = np.arange(n)
    signed = np.where(k <= n // 2, k, k - n)
    axes = [signed] * model.d
    offs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    c = eval_cov_offsets(model, offs)
    spec = _fftn(c)
    if np.max(np.abs(spec.imag)) > 1e-10 * max(np.max(np.abs(spec.real)), 1.0):
        raise EmbeddingInvalidError("wrapped covariance DFT not real")
    spec = spec.real
    mx = float(np.max(spec))
    mn = float(np.min(spec))
    if mn < -1e-8 * mx:
        raise EmbeddingInvalidError(
            f"negative spectral entry {mn:.3e} (max {mx:.3e}); "
            "increase padding or fall back to dense factorization"
        )
    return spec

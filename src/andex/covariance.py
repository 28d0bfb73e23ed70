"""Stationary lattice covariance families.

Each family is one entry of ``FAMILIES``: the name of its one parameter,
v at integer offsets, the short-range scale d_L and the radius beyond which
v is negligible.  The four families are

    iid                  v(x) = 1{x = 0}
    cube_indicator(m)    v(x) = prod_i max(0, 1 - |x_i|/m)   (product of tents)
    gaussian_kernel(ell) v(x) = exp(-|x|^2 / (2 ell^2))
    exponential(alpha)   v(x) = exp(-alpha |x|)

All evaluation is pure and a model is immutable after construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.fft

from .errors import EmbeddingInvalidError

__all__ = [
    "FAMILIES",
    "Family",
    "CovarianceModel",
    "eval_cov_offsets",
    "derive_dL",
    "effective_radius",
    "circulant_spectrum",
]

# effective_radius cuts the covariance where it falls below this.
RADIUS_EPS = 1e-14


@dataclass(frozen=True)
class Family:
    """One covariance family, as functions of its parameter's value: v at
    float offsets of shape (..., d), the scale d_L and the radius that
    effective_radius returns.  ``param`` is None for a family without one."""

    param: str | None
    v: Callable[[np.ndarray, float | None], np.ndarray]
    d_L: Callable[[float | None], float]
    radius: Callable[[float | None], int]


def _unit_scale(drop: float) -> float:
    """d_L = 1/drop of a family whose v drops by ``drop`` at unit distance."""
    if drop <= 0.0:
        raise ValueError("degenerate covariance: no drop at unit distance")
    return 1.0 / drop


FAMILIES: dict[str, Family] = {
    "iid": Family(
        None,
        v=lambda x, _: np.all(x == 0.0, axis=-1).astype(float),
        d_L=lambda _: 1.0,
        radius=lambda _: 0,
    ),
    # v(e_1) = max(0, 1 - 1/m) is 0 for m < 1, so d_L is 1 there
    "cube_indicator": Family(
        "m",
        v=lambda x, m: np.prod(np.maximum(0.0, 1.0 - np.abs(x) / m), axis=-1),
        d_L=lambda m: float(max(m, 1)),
        radius=lambda m: int(math.ceil(m)),
    ),
    "gaussian_kernel": Family(
        "ell",
        v=lambda x, ell: np.exp(-np.sum(x * x, axis=-1) / (2.0 * ell * ell)),
        d_L=lambda ell: _unit_scale(-math.expm1(-1.0 / (2.0 * ell * ell))),
        radius=lambda ell: (
            int(math.ceil(ell * math.sqrt(2.0 * math.log(1.0 / RADIUS_EPS)))) + 1
        ),
    ),
    "exponential": Family(
        "alpha",
        v=lambda x, alpha: np.exp(-alpha * np.sqrt(np.sum(x * x, axis=-1))),
        d_L=lambda alpha: _unit_scale(-math.expm1(-alpha)),
        radius=lambda alpha: int(math.ceil(math.log(1.0 / RADIUS_EPS) / alpha)) + 1,
    ),
}


@dataclass(frozen=True)
class CovarianceModel:
    family: str
    d: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown covariance family: {self.family!r}")
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1..3, got {self.d}")
        key = FAMILIES[self.family].param
        extra = [repr(k) for k in self.params if key is None or k != key]
        if extra:
            raise ValueError(f"{self.family} takes no parameter {', '.join(extra)}")
        if key is not None:
            val = self.params.get(key)
            real = isinstance(val, numbers.Real) and not isinstance(val, bool)
            if not (real and 0 < val < math.inf):
                raise ValueError(
                    f"{self.family} requires a finite parameter {key} > 0, got {val!r}"
                )

    def __hash__(self):
        # what equality compares; params is a dict, so the generated hash
        # would fail
        return hash((self.family, self.d, tuple(sorted(self.params.items()))))

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
    fam = FAMILIES[model.family]
    return fam.v(x, model.params.get(fam.param))


def derive_dL(model: CovarianceModel) -> float:
    """Short-range scale 1/(1 - sup_{|x|=1} v(x)); exact per family."""
    fam = FAMILIES[model.family]
    return fam.d_L(model.params.get(fam.param))


def shape_grid(model: CovarianceModel, a_L: float, half: int) -> np.ndarray:
    """Shape profile a_L * (1 - v) >= 0 on the centered box [-half, half]^d."""
    if not a_L >= 0.0:
        raise ValueError("a_L must be nonnegative")
    offs = offset_grid(model.d, half)
    return a_L * (1.0 - eval_cov_offsets(model, offs))


def offset_grid(d: int, half: int) -> np.ndarray:
    """Integer offsets of the centered box, shape (side,)*d + (d,)."""
    axes = [np.arange(-half, half + 1)] * d
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def effective_radius(model: CovarianceModel) -> int:
    """Smallest integer r with v(x) < RADIUS_EPS whenever |x| >= r along an axis."""
    fam = FAMILIES[model.family]
    return fam.radius(model.params.get(fam.param))


def fftn(x: np.ndarray, d: int) -> np.ndarray:
    """Complex DFT over the trailing d axes of the complex array ``x``, in
    place; each transformed slice is bit-identical to ``np.fft.fftn`` of it.

    ``scipy.fft.fft`` one axis at a time, last axis first, on complex
    input: the order and the transform numpy uses (``scipy.fft.fftn`` and
    real input both round differently), but faster at lengths with a large
    prime factor, and faster still over a stack of slices.
    """
    for axis in range(-1, -d - 1, -1):
        x = scipy.fft.fft(x, axis=axis, overwrite_x=True)
    return x


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
    spec = fftn(c.astype(complex), model.d)
    if np.max(np.abs(spec.imag)) > 1e-10 * max(np.max(np.abs(spec.real)), 1.0):
        raise EmbeddingInvalidError("wrapped covariance DFT not real")
    spec = spec.real
    mx = float(np.max(spec))
    mn = float(np.min(spec))
    if mn < -1e-8 * mx:
        raise EmbeddingInvalidError(
            f"negative spectral entry {mn:.3e} (max {mx:.3e}); the torus "
            "padding is fixed, so draw with the dense sampler instead "
            "(--sampler dense, up to field.DENSE_SITE_LIMIT sites)"
        )
    return spec

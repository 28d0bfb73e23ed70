"""Exact Gaussian field sampling and the fluctuation decomposition.

A field lives on the centered box Q_L = [-h, h]^d with h = floor(L/2), so
the grid side is 2h+1 and the origin sits at index (h, ..., h).  Two exact
samplers are provided:

    dense     -- factorize the full covariance matrix (small boxes only);
    circulant -- spectral synthesis on a padded torus, restricted to Q_L.

Both draw from the exact law; the circulant path refuses to run (rather
than clip eigenvalues) when the embedding is not nonnegative.

On top of a sample, fluctuation_view builds the decomposition around a
base point x0:

    xi(x) = xi(x0) * v(x - x0) + zeta(x),      zeta(x0) = 0,

with zeta independent of xi(x0).  The view carries v(. - x0) and zeta.
The peak-conditioned sampler returns the view of its conditioned field,
and the event check and the profile-weighted correction
Phi(x0) = sum_x w(x) zeta(x0 + x) read from it; Phi at another point y is
Phi of the view at y.  The shifted field Xi = xi + Phi has marginal
variance 1 + tau^2.

What does not depend on the seed is built once per run and shared,
read-only: the profile v(. - x0) per (model, L, x0), the event check's
windows with 1 - v and sd(zeta) on them per (model, L, x0, R_L), each in
an LRU of 8, and the offsets and weights of a profile, which
ProfileWeights holds (BarSolution.weights builds them once per bar
solution).  A trial then only draws, forms zeta and gathers it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from . import covariance as cov
from .errors import CovarianceInconsistencyError, EmbeddingInvalidError

__all__ = [
    "FieldSample",
    "FluctuationView",
    "ProfileWeights",
    "EventReport",
    "box_half",
    "grid_side",
    "sample_field",
    "peak_conditioned_sample",
    "fluctuation_view",
    "cov_zeta",
    "compute_tau",
    "phi_at",
    "xi_cap",
    "event_check",
]

DENSE_SITE_LIMIT = 6000

# Shape factor of the peak event's part E2: |zeta| <= EVENT_SHAPE_FACTOR * S.
EVENT_SHAPE_FACTOR = 0.1


def box_half(L: int) -> int:
    """Half-width of Q_L: the box is [-h, h]^d with h = floor(L/2)."""
    return L // 2


def grid_side(L: int) -> int:
    return 2 * (L // 2) + 1


def point_to_index(point, h: int) -> tuple:
    idx = tuple(int(c) + h for c in np.atleast_1d(point))
    if any(i < 0 or i > 2 * h for i in idx):
        raise ValueError(f"point {tuple(point)} outside box of half-width {h}")
    return idx


@dataclass(frozen=True)
class FieldSample:
    values: np.ndarray  # shape (side,)*d, read-only
    L: int
    d: int
    model: cov.CovarianceModel
    seed: int
    sampler: str  # "dense" | "circulant"
    conditioned_at: Optional[tuple] = None  # ((coords...), value)

    def __post_init__(self):
        side = grid_side(self.L)
        if self.values.shape != (side,) * self.d:
            raise ValueError(
                f"grid shape {self.values.shape} != {(side,) * self.d}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite field values")
        self.values.setflags(write=False)

    @property
    def half(self) -> int:
        return box_half(self.L)

    def at(self, point) -> float:
        return float(self.values[point_to_index(point, self.half)])

    def export_binary(self, path_prefix: str) -> None:
        """Row-major little-endian float64 grid plus a JSON sidecar."""
        self.values.astype("<f8").tofile(path_prefix + ".bin")
        meta = {
            "L": self.L,
            "d": self.d,
            "model": self.model.to_config(),
            "seed": self.seed,
            "sampler": self.sampler,
        }
        with open(path_prefix + ".json", "w") as fh:
            json.dump(meta, fh)


def _cache_key(model) -> tuple:
    """Hashable stand-in for a model, whose params dict is not hashable."""
    return (model.family, model.d, tuple(sorted(model.params.items())))


def _per_model_cache(build):
    """Cache ``build(model, *args)``, the args hashable, in an LRU of 8
    entries keyed on (_cache_key(model), *args), so trials across many
    seeds do not rebuild what depends only on the model and the geometry.
    ``build`` returns an array or a tuple of arrays; cached arrays are
    read-only, because every caller shares them."""

    @functools.lru_cache(maxsize=8)
    def cached(key, *args):
        family, d, params = key
        out = build(cov.CovarianceModel(family, d, dict(params)), *args)
        for arr in out if isinstance(out, tuple) else (out,):
            arr.setflags(write=False)
        return out

    @functools.wraps(build)
    def lookup(model, *args):
        return cached(_cache_key(model), *args)

    lookup.cache_clear = cached.cache_clear
    return lookup


@_per_model_cache
def _dense_factor(model, L):
    h = box_half(L)
    side = 2 * h + 1
    n = side**model.d
    pts = cov._offset_grid(model.d, h).reshape(n, model.d)
    diffs = pts[:, None, :] - pts[None, :, :]
    C = cov.eval_cov_offsets(model, diffs)
    try:
        return np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(C)
        if np.min(w) < -1e-8 * max(np.max(w), 1.0):
            raise CovarianceInconsistencyError(
                f"covariance matrix has eigenvalue {np.min(w):.3e}"
            )
        return V * np.sqrt(np.clip(w, 0.0, None))


def _dense_draw(model, L, rng):
    h = box_half(L)
    side = 2 * h + 1
    n = side**model.d
    if n > DENSE_SITE_LIMIT:
        raise ValueError(
            f"dense sampler limited to {DENSE_SITE_LIMIT} sites, got {n}"
        )
    F = _dense_factor(model, L)
    z = rng.standard_normal(n)
    return (F @ z).reshape((side,) * model.d)


@_per_model_cache
def _circulant_amplitude(model, M):
    spec = cov.circulant_spectrum(model, M)  # raises if invalid
    return np.sqrt(np.clip(spec, 0.0, None))


def _circulant_draw(model, L, rng):
    h = box_half(L)
    side = 2 * h + 1
    pad = 2 * cov.effective_radius(model)
    M = side + pad
    amp = _circulant_amplitude(model, M)
    shape = (M,) * model.d
    a = rng.standard_normal(shape)
    b = rng.standard_normal(shape)
    X = cov._fftn(amp * (a + 1j * b))
    # Real and imaginary parts are independent exact draws; keep the real
    # one.  Scaling the real part alone equals (X / M^(d/2)).real bit for
    # bit: numpy divides a complex by a real scalar as a product with its
    # reciprocal.
    sl = (slice(0, side),) * model.d
    return X.real[sl] * (1.0 / M ** (model.d / 2.0))


def sample_field(
    model: cov.CovarianceModel,
    L: int,
    seed: int,
    sampler_hint: Optional[str] = None,
) -> FieldSample:
    """Exact draw of the stationary field on Q_L.

    Deterministic given (seed, model, L, sampler).  With no hint the
    circulant path is preferred and the dense path is the fallback when
    the embedding is invalid and the box is small enough.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if sampler_hint not in (None, "dense", "circulant"):
        raise ValueError(f"unknown sampler {sampler_hint!r}")
    kind = sampler_hint or "circulant"
    draw = _dense_draw if kind == "dense" else _circulant_draw
    try:
        values = draw(model, L, rng)
    except EmbeddingInvalidError:
        # Raised before the rng draws anything, so the fallback sees the
        # same stream as a dense-only draw.
        if sampler_hint is not None:
            raise
        values, kind = _dense_draw(model, L, rng), "dense"
    return FieldSample(
        values=values, L=L, d=model.d, model=model, seed=seed, sampler=kind
    )


@_per_model_cache
def _profile_grid(model, L, x0):
    """v(x - x0) over the whole grid of Q_L; x0 is a tuple of ints."""
    offs = cov._offset_grid(model.d, box_half(L)) - np.asarray(x0)
    return cov.eval_cov_offsets(model, offs)


def peak_conditioned_sample(
    model: cov.CovarianceModel, L: int, x0, value: float, seed: int
) -> FluctuationView:
    """Exact draw of the field conditioned on xi(x0) = value, returned as
    its fluctuation view around x0; the field itself is ``view.base``.

    Built from the fluctuation decomposition: draw xi, strip its projection
    onto xi(x0), and put the prescribed value back.  The residual zeta is
    independent of xi(x0), so the law is the exact conditional one.  The
    returned view shares the unconditioned draw's profile, and its zeta is
    formed from the conditioned values as fluctuation_view forms it.
    """
    view = fluctuation_view(sample_field(model, L, seed), x0)
    vals = value * view.profile + view.zeta
    vals[point_to_index(view.x0, view.base.half)] = value  # exact, no roundoff
    sample = replace(view.base, values=vals, conditioned_at=(view.x0, float(value)))
    return _decompose(sample, view.x0, view.profile)


@dataclass(frozen=True)
class FluctuationView:
    """Fluctuation decomposition of one sample around a base point:
    base.values = xi(x0) * profile + zeta, with profile = v(. - x0) over
    the grid and zeta(x0) = 0.  Both arrays are read-only."""

    base: FieldSample
    x0: tuple
    profile: np.ndarray
    zeta: np.ndarray


def _decompose(sample: FieldSample, x0: tuple, prof: np.ndarray) -> FluctuationView:
    """The view of ``sample`` around x0 given its read-only profile; the
    only code that forms zeta."""
    zeta = sample.values - sample.at(x0) * prof
    zeta[point_to_index(x0, sample.half)] = 0.0
    zeta.setflags(write=False)
    return FluctuationView(base=sample, x0=x0, profile=prof, zeta=zeta)


def fluctuation_view(sample: FieldSample, x0) -> FluctuationView:
    """The decomposition of ``sample`` around x0; the only code that builds
    v(. - x0)."""
    x0 = tuple(int(c) for c in np.atleast_1d(x0))
    return _decompose(sample, x0, _profile_grid(sample.model, sample.L, x0))


def cov_zeta(model: cov.CovarianceModel, x0, x, y) -> float:
    """Cov(zeta_{x0}(x), zeta_{x0}(y)) = v(x-y) - v(x-x0) v(y-x0)."""
    x0 = np.atleast_1d(np.asarray(x0))
    x = np.atleast_1d(np.asarray(x))
    y = np.atleast_1d(np.asarray(y))
    return (
        cov.eval_cov(model, x - y)
        - cov.eval_cov(model, x - x0) * cov.eval_cov(model, y - x0)
    )


def _check_profile(bar_phi: np.ndarray, d: int) -> int:
    """Validate an odd centered profile grid; return its half-width."""
    if bar_phi.ndim != d:
        raise ValueError(f"profile must be {d}-dimensional")
    side = bar_phi.shape[0]
    if any(s != side for s in bar_phi.shape) or side % 2 == 0:
        raise ValueError("profile grid must be an odd centered cube")
    norm = float(np.sum(bar_phi**2))
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"profile must be l2-normalized, got norm^2={norm}")
    return side // 2


@dataclass(frozen=True)
class ProfileWeights:
    """The checked window of an l2-normalized profile bar_phi on Q_r: its
    half-width, the offsets x != 0 (shape (n, d)) and their weights
    w(x) = bar_phi(x)^2, both arrays read-only.  Built once per profile
    (BarSolution.weights) and read by phi_at and xi_cap."""

    half: int
    offsets: np.ndarray
    weights: np.ndarray

    @classmethod
    def of(cls, bar_phi: np.ndarray, d: int) -> "ProfileWeights":
        rh = _check_profile(bar_phi, d)
        offs = cov._offset_grid(d, rh).reshape(-1, d)
        w = (bar_phi**2).reshape(-1)
        keep = ~np.all(offs == 0, axis=-1)
        offs, w = offs[keep], w[keep]
        offs.setflags(write=False)
        w.setflags(write=False)
        return cls(half=rh, offsets=offs, weights=w)


def compute_tau(model: cov.CovarianceModel, bar_phi: np.ndarray) -> float:
    """Std-dev of the profile-weighted fluctuation correction.

    tau^2 = sum_{x,y != 0} w(x) w(y) (v(x-y) - v(x) v(y)),  w = bar_phi^2.
    Translation invariance makes the base point irrelevant.
    """
    pw = ProfileWeights.of(bar_phi, model.d)
    pts, w = pw.offsets, pw.weights
    V = cov.eval_cov_offsets(model, pts[:, None, :] - pts[None, :, :])
    v0 = cov.eval_cov_offsets(model, pts)
    tau2 = float(w @ (V - np.outer(v0, v0)) @ w)
    if tau2 < -1e-12:
        raise CovarianceInconsistencyError(f"negative tau^2 = {tau2}")
    return math.sqrt(max(tau2, 0.0))


def phi_at(view: FluctuationView, weights: ProfileWeights) -> float:
    """Profile-weighted fluctuation correction at the view's base point.

    Phi(x0) = sum_{x in Q_r, x != 0} bar_phi(x)^2 * zeta(x0 + x), read from
    view.zeta, with the offsets and weights of bar_phi in ``weights``.  Phi
    at another point y is phi_at(fluctuation_view(view.base, y), weights).
    """
    d, h = view.base.d, view.base.half
    if weights.offsets.shape[1] != d:
        raise ValueError(f"profile must be {d}-dimensional")
    if any(abs(c) + weights.half > h for c in view.x0):
        raise ValueError(
            f"window of half-width {weights.half} around {view.x0} leaves the box"
        )
    idx = weights.offsets + np.array(view.x0) + h
    return float(weights.weights @ view.zeta[tuple(idx.T)])


def xi_cap(view: FluctuationView, weights: ProfileWeights) -> tuple[np.ndarray, int]:
    """Shifted field Xi = xi + Phi on the admissible sub-box.

    Returns (grid, sub_half) where the grid covers the points y with
    Q_{r,y} inside Q_L, i.e. |y_i| <= sub_half = h - r_half.

    Vectorized as a correlation: Xi(y) = xi(y) (1 - sum w v) + sum w xi(.+y).
    """
    sample = view.base
    offs, w, rh = weights.offsets, weights.weights, weights.half
    if offs.shape[1] != sample.d:
        raise ValueError(f"profile must be {sample.d}-dimensional")
    sub_half = sample.half - rh
    if sub_half < 0:
        raise ValueError("profile window larger than the box")
    v_offs = cov.eval_cov_offsets(sample.model, offs)
    side = 2 * sub_half + 1
    core = (slice(rh, rh + side),) * sample.d
    out = (1.0 - float(w @ v_offs)) * sample.values[core].copy()
    for off, weight in zip(offs, w):
        sl = tuple(
            slice(rh + int(o), rh + int(o) + side) for o in off
        )
        out += weight * sample.values[sl]
    return out, sub_half


class _EventWindows(NamedTuple):
    """What event_check needs of Q_{2R_L, x0} and Q_{R_L, x0} beyond the
    seed, as flat grid indices; x0 itself is left out of both windows."""

    wide: np.ndarray  # sites of Q_{2R_L, x0}
    wide_dip: np.ndarray  # 1 - v(x - x0) on them
    narrow: np.ndarray  # sites of Q_{R_L, x0}
    narrow_l1: np.ndarray  # |x - x0|_1 on them
    narrow_sd: np.ndarray  # sd(zeta(x)) = sqrt(1 - v(x - x0)^2) on them


@_per_model_cache
def _event_windows(model, L, x0, R_L):
    prof = _profile_grid(model, L, x0).reshape(-1)
    offs = (cov._offset_grid(model.d, box_half(L)) - np.asarray(x0)).reshape(-1, model.d)
    sup = np.max(np.abs(offs), axis=-1)
    wide = np.flatnonzero((sup <= (2 * R_L) // 2) & (sup > 0))
    narrow = np.flatnonzero((sup <= R_L // 2) & (sup > 0))
    return _EventWindows(
        wide=wide,
        wide_dip=1.0 - prof[wide],
        narrow=narrow,
        narrow_l1=np.sum(np.abs(offs[narrow]), axis=-1),
        narrow_sd=np.sqrt(np.clip(1.0 - prof[narrow] ** 2, 0.0, None)),
    )


@dataclass(frozen=True)
class EventReport:
    """Membership and worst-case slack for the three-part peak event."""

    x0: tuple
    in_E1: bool
    in_E2: bool
    in_E3: bool
    margins: tuple  # positive slack <=> membership, one per sub-event

    @property
    def in_event(self) -> bool:
        return self.in_E1 and self.in_E2 and self.in_E3


def event_check(view: FluctuationView, scales) -> EventReport:
    """Check the three-part event around the base point x0 of the view.

    E1: |xi(x0) - a_L| < theta (theta = 2d+1).
    E2: |zeta(x)| <= EVENT_SHAPE_FACTOR * S(x - x0) on the window Q_{2R_L, x0}.
    E3: |zeta(x)| / sd(zeta(x)) <= (a_L/d_L)^{kappa |x-x0|} *
        sqrt(1 v |xi(x0) - a_L| a_L) on Q_{R_L, x0} minus x0; sites with
        sd(zeta) = 0 count as ratio 0.

    Margins are the minimal slacks (bound minus attained value); their sign
    matches membership.
    """
    x0, zeta = view.x0, view.zeta
    a_L, d_L, kappa, theta = scales.a_L, scales.d_L, scales.kappa, scales.theta
    wide_half = (2 * scales.R_L) // 2  # half-width of Q_{2 R_L}
    if any(abs(c) + wide_half > view.base.half for c in x0):
        raise ValueError("Q_{2R_L, x0} leaves the sampled box")
    win = _event_windows(view.base.model, view.base.L, x0, scales.R_L)

    dev = abs(view.base.at(x0) - a_L)
    margin1 = theta - dev
    in_e1 = dev < theta

    # E2 on the wide window, S = a_L (1 - v)
    slack2 = EVENT_SHAPE_FACTOR * (a_L * win.wide_dip) - np.abs(zeta.take(win.wide))
    margin2 = float(np.min(slack2))
    in_e2 = margin2 >= 0.0

    # E3 on the narrow window; ratio 0 where sd(zeta) = 0
    sd = win.narrow_sd
    ratio = np.divide(
        np.abs(zeta.take(win.narrow)), sd, out=np.zeros(sd.size), where=sd > 0
    )
    bound = (a_L / d_L) ** (kappa * win.narrow_l1) * math.sqrt(max(1.0, dev * a_L))
    slack3 = bound - ratio
    margin3 = float(np.min(slack3))
    in_e3 = margin3 >= 0.0

    return EventReport(
        x0=x0,
        in_E1=bool(in_e1),
        in_E2=bool(in_e2),
        in_E3=bool(in_e3),
        margins=(float(margin1), margin2, margin3),
    )

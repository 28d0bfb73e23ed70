"""Exact Gaussian field sampling and the fluctuation decomposition.

A field lives on the centered box Q_L = [-h, h]^d with h = floor(L/2), so
the grid side is 2h+1 and the origin sits at index (h, ..., h).  Every cut of
a cube Q_{r,x} out of that grid, a single site included, goes through
window, which raises ValueError when the cube leaves Q_L.  Two exact
samplers are provided, in the table SAMPLERS, and sample_field draws with
the one it is named:

    circulant -- spectral synthesis on a padded torus, restricted to Q_L
                 (the default);
    dense     -- factorize the full covariance matrix (small boxes only).

Both draw from the exact law.  The circulant sampler raises
EmbeddingInvalidError when the embedded spectrum is not nonnegative; it
neither clips eigenvalues nor switches to the dense sampler.

On top of a sample, fluctuation_view builds the decomposition around a
base point x0:

    xi(x) = xi(x0) * v(x - x0) + zeta(x),      zeta(x0) = 0,

with zeta independent of xi(x0).  The view carries v(. - x0) and zeta.
The peak-conditioned sampler returns the view of its conditioned field,
and the event check and the profile-weighted correction
Phi(x0) = sum_x w(x) zeta(x0 + x) read from it; Phi at another point y is
Phi of the view at y.  The shifted field Xi = xi + Phi, which xi_cap
forms from a sample, has marginal variance 1 + tau^2.

What does not depend on the seed is built once per run and shared,
read-only: the sampler factors per (model, L or torus side), the profile
v(. - x0) per (model, L, x0), the event check's windows with 1 - v and
sd(zeta) on them per (model, L, x0, R_L), each in an LRU of 8 keyed on the
model itself, and the offsets and weights of a profile, which
ProfileWeights holds (BarSolution.weights builds them once per bar
solution).  A trial then only draws, forms zeta and gathers it.  The one
state a draw keeps is the fields of the last batch of seeds, drawn
together by the first sample_field call that names the batch and served to
the others; each equals the single draw of its seed bit for bit.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import covariance as cov
from .errors import CovarianceInconsistencyError

__all__ = [
    "FieldSample",
    "FluctuationView",
    "ProfileWeights",
    "EventReport",
    "box_half",
    "grid_side",
    "torus_side",
    "window",
    "SAMPLERS",
    "sample_field",
    "peak_conditioned_sample",
    "fluctuation_view",
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


def torus_side(model: cov.CovarianceModel, L: int) -> int:
    """Side of the circulant sampler's torus: Q_L padded by twice the
    model's effective radius."""
    return grid_side(L) + 2 * cov.effective_radius(model)


def window(L: int, x0, half: int) -> tuple[slice, ...]:
    """Slices of the Q_L grid holding the cube of half-width ``half``
    around the point x0, given in coordinates with the box centre at the
    origin; ValueError when the cube leaves Q_L."""
    h = L // 2
    out = []
    for c in x0:
        if abs(c) + half > h:
            raise ValueError(
                f"cube of half-width {half} around {tuple(x0)} leaves the box of side {L}"
            )
        out.append(slice(h + c - half, h + c + half + 1))
    return tuple(out)


def _ring(cube: np.ndarray, batch: int = 0) -> np.ndarray:
    """The entries of an odd cube in C order, its centre left out; with
    batch = 1, of each cube stacked on a leading axis, one row per cube."""
    flat = cube.reshape(cube.shape[:batch] + (-1,))
    mid = flat.shape[-1] // 2
    return np.concatenate((flat[..., :mid], flat[..., mid + 1 :]), axis=-1)


def _at(L: int, x0) -> tuple[slice, ...]:
    """Index of the site x0 in each grid of Q_L stacked on a leading axis."""
    return (slice(None),) + window(L, x0, 0)


@dataclass(frozen=True)
class FieldSample:
    values: np.ndarray  # shape (side,)*d, read-only
    L: int
    model: cov.CovarianceModel
    seed: int
    sampler: str  # "dense" | "circulant"

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
    def d(self) -> int:
        return self.model.d

    @property
    def half(self) -> int:
        return box_half(self.L)

    def at(self, point) -> float:
        return self.values[window(self.L, point, 0)].item()

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


def _per_model_cache(build):
    """Cache ``build(model, *args)``, the args hashable, in an LRU of 8
    entries keyed on (model, *args), so trials across many seeds do not
    rebuild what depends only on the model and the geometry.  ``build``
    returns an array or a tuple of arrays; cached arrays are read-only,
    because every caller shares them."""

    @functools.lru_cache(maxsize=8)
    @functools.wraps(build)
    def cached(model, *args):
        out = build(model, *args)
        for arr in out if isinstance(out, tuple) else (out,):
            arr.setflags(write=False)
        return out

    return cached


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


def _dense_draw(model, L, rngs):
    h = box_half(L)
    side = 2 * h + 1
    n = side**model.d
    if n > DENSE_SITE_LIMIT:
        raise ValueError(
            f"dense sampler limited to {DENSE_SITE_LIMIT} sites, got {n}"
        )
    F = _dense_factor(model, L)
    # one product per seed: a matrix product would round differently
    return np.stack([F @ rng.standard_normal(n) for rng in rngs]).reshape(
        (len(rngs),) + (side,) * model.d
    )


@_per_model_cache
def _circulant_amplitude(model, M):
    spec = cov.circulant_spectrum(model, M)  # raises if invalid
    return np.sqrt(np.clip(spec, 0.0, None))


def _circulant_draw(model, L, rngs):
    side = grid_side(L)
    M = torus_side(model, L)
    amp = _circulant_amplitude(model, M)
    shape = (M,) * model.d
    X = np.empty((len(rngs),) + shape, dtype=complex)
    for x, rng in zip(X, rngs):
        a, b = rng.standard_normal((2,) + shape)
        np.multiply(amp, a, out=x.real)
        np.multiply(amp, b, out=x.imag)
    X = cov._fftn(X, model.d)
    # Real and imaginary parts are independent exact draws; keep the real
    # one.  Scaling the real part alone equals (X / M^(d/2)).real bit for
    # bit: numpy divides a complex by a real scalar as a product with its
    # reciprocal.
    sl = (slice(None),) + (slice(0, side),) * model.d
    return X.real[sl] * (1.0 / M ** (model.d / 2.0))


# The exact samplers, by the name sample_field and the CLI's --sampler take.
# Each maps a list of generators to the stacked fields, one per generator.
SAMPLERS = {"circulant": _circulant_draw, "dense": _dense_draw}

# The version of the seed -> field mapping of SAMPLERS, which a run's
# manifest records.
SAMPLER_VERSION = 1

# A batch of seeds stacks its complex torus grids in at most
# DRAW_BATCH_BYTES, and holds at most DRAW_BATCH_MAX seeds (batch_size).
DRAW_BATCH_BYTES = 2 * 1024 * 1024
DRAW_BATCH_MAX = 32


def batch_size(model: cov.CovarianceModel, L: int) -> int:
    """Seeds per batch of circulant draws on Q_L: as many torus grids as
    fit DRAW_BATCH_BYTES, clamped to 1..DRAW_BATCH_MAX."""
    grid_bytes = 16 * torus_side(model, L) ** model.d
    return min(max(DRAW_BATCH_BYTES // grid_bytes, 1), DRAW_BATCH_MAX)


def draw_bytes(model: cov.CovarianceModel, L: int) -> int:
    """Bytes a batch of batch_size circulant draws on Q_L holds: six complex
    torus grids for one seed's draw, and two for each seed of the batch,
    its slot in the stacked transform and its real part in this batch and
    the last one, which the draw memo holds."""
    grid_bytes = 16 * torus_side(model, L) ** model.d
    return grid_bytes * (6 + 2 * batch_size(model, L))


@functools.lru_cache(maxsize=1)
def _draw_batch(model, L, batch, sampler):
    """The read-only stacked fields of the seeds in ``batch``."""
    rngs = [np.random.default_rng(np.random.SeedSequence(s)) for s in batch]
    out = SAMPLERS[sampler](model, L, rngs)
    out.setflags(write=False)
    return out


def sample_field(
    model: cov.CovarianceModel,
    L: int,
    seed: int,
    sampler: str = "circulant",
    batch: tuple | None = None,
) -> FieldSample:
    """Exact draw of the stationary field on Q_L with the sampler that
    SAMPLERS names, and no other.

    Deterministic given (seed, model, L, sampler).  ``batch``, a tuple of
    seeds that holds ``seed`` (default: ``seed`` alone), is drawn whole by
    the first call that names it and kept until another batch is drawn, so
    the calls for its other seeds draw nothing; every field equals its
    single draw bit for bit.  ValueError when ``seed`` is not in
    ``batch``.  The circulant sampler raises EmbeddingInvalidError when the
    embedding of the model on its padded torus is not nonnegative; the
    dense sampler raises ValueError above DENSE_SITE_LIMIT sites.
    """
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}")
    batch = (seed,) if batch is None else tuple(batch)
    if seed not in batch:
        raise ValueError(f"seed {seed} is not in its batch {batch}")
    values = _draw_batch(model, L, batch, sampler)[batch.index(seed)]
    return FieldSample(values=values, L=L, model=model, seed=seed, sampler=sampler)


@_per_model_cache
def _profile_grid(model, L, x0):
    """v(x - x0) over the whole grid of Q_L; x0 is a tuple of ints."""
    offs = cov._offset_grid(model.d, box_half(L)) - np.asarray(x0)
    return cov.eval_cov_offsets(model, offs)


def _point(x0) -> tuple:
    return tuple(int(c) for c in np.atleast_1d(x0))


def _zeta(values: np.ndarray, L: int, x0: tuple, prof: np.ndarray) -> np.ndarray:
    """zeta = xi - xi(x0) v(. - x0) of each field of Q_L in ``values``,
    stacked on a leading axis, given the profile v(. - x0); zero at x0.
    The only code that forms zeta."""
    at = _at(L, x0)
    zeta = values - values[at] * prof
    zeta[at] = 0.0
    return zeta


def _condition(values: np.ndarray, model, L: int, x0: tuple, value: float):
    """The fields of Q_L in ``values``, stacked on a leading axis,
    conditioned on xi(x0) = value: (conditioned fields, their zeta), both
    of the shape of ``values``.  Each field's draw loses its projection onto
    xi(x0) and gets the prescribed value back.  ValueError when a
    conditioned field is not finite."""
    prof = _profile_grid(model, L, x0)
    vals = value * prof + _zeta(values, L, x0, prof)
    vals[_at(L, x0)] = value  # exact, no roundoff
    if not np.isfinite(vals).all():
        raise ValueError("non-finite field values")
    return vals, _zeta(vals, L, x0, prof)


def peak_conditioned_sample(sample: FieldSample, x0, value: float) -> FluctuationView:
    """The draw ``sample`` conditioned on xi(x0) = value, returned as its
    fluctuation view around x0; the conditioned field is ``view.base``.

    Built from the fluctuation decomposition: strip the draw's projection
    onto xi(x0) and put the prescribed value back.  The residual zeta is
    independent of xi(x0), so for an exact draw the law is the exact
    conditional one.  The returned view shares the unconditioned draw's
    profile, and its zeta is formed from the conditioned values as
    fluctuation_view forms it.  The one-field case of _condition, which
    conditions a block of fields at once.
    """
    x0 = _point(x0)
    vals, zeta = _condition(sample.values[None], sample.model, sample.L, x0, value)
    return _view(replace(sample, values=vals[0]), x0, zeta[0])


@dataclass(frozen=True)
class FluctuationView:
    """Fluctuation decomposition of one sample around a base point:
    base.values = xi(x0) * profile + zeta, with profile = v(. - x0) over
    the grid and zeta(x0) = 0.  Both arrays are read-only."""

    base: FieldSample
    x0: tuple
    profile: np.ndarray
    zeta: np.ndarray


def _view(sample: FieldSample, x0: tuple, zeta: np.ndarray) -> FluctuationView:
    """The view of ``sample`` around x0 with its zeta, made read-only."""
    zeta.setflags(write=False)
    prof = _profile_grid(sample.model, sample.L, x0)
    return FluctuationView(base=sample, x0=x0, profile=prof, zeta=zeta)


def fluctuation_view(sample: FieldSample, x0) -> FluctuationView:
    """The decomposition of ``sample`` around x0; the only code that builds
    v(. - x0)."""
    x0 = _point(x0)
    prof = _profile_grid(sample.model, sample.L, x0)
    return _view(sample, x0, _zeta(sample.values[None], sample.L, x0, prof)[0])


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
    The one-field case of _phi.
    """
    return float(_phi(view.zeta[None], view.base.L, view.x0, weights)[0])


def _phi(zeta: np.ndarray, L: int, x0: tuple, weights: ProfileWeights) -> np.ndarray:
    """Phi(x0) (see phi_at) of each zeta of Q_L stacked on a leading axis.
    One dot product per field: a matrix product would round differently."""
    if weights.offsets.shape[1] != zeta.ndim - 1:
        raise ValueError(f"profile must be {zeta.ndim - 1}-dimensional")
    rings = _ring(zeta[(slice(None),) + window(L, x0, weights.half)], batch=1)
    return np.array([weights.weights @ ring for ring in rings])


def xi_cap(sample: FieldSample, weights: ProfileWeights) -> tuple[np.ndarray, int]:
    """Shifted field Xi = xi + Phi of ``sample`` on the admissible sub-box.

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
    L, vals = sample.L, sample.values
    out = (1.0 - float(w @ v_offs)) * vals[window(L, (0,) * sample.d, sub_half)]
    for off, weight in zip(offs.tolist(), w):
        out += weight * vals[window(L, off, sub_half)]
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
    sites = np.arange(prof.size).reshape((grid_side(L),) * model.d)
    wide = _ring(sites[window(L, x0, R_L)])  # Q_{2R_L} has half-width R_L
    narrow = _ring(sites[window(L, x0, R_L // 2)])
    return _EventWindows(
        wide=wide,
        wide_dip=1.0 - prof[wide],
        narrow=narrow,
        narrow_l1=_ring(np.sum(np.abs(cov._offset_grid(model.d, R_L // 2)), axis=-1)),
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


def event_check(view: FluctuationView, scales) -> EventReport:
    """Check the three-part event around the base point x0 of the view.

    E1: |xi(x0) - a_L| < theta (theta = 2d+1).
    E2: |zeta(x)| <= EVENT_SHAPE_FACTOR * S(x - x0) on the window Q_{2R_L, x0}.
    E3: |zeta(x)| / sd(zeta(x)) <= (a_L/d_L)^{kappa |x-x0|} *
        sqrt(1 v |xi(x0) - a_L| a_L) on Q_{R_L, x0} minus x0; sites with
        sd(zeta) = 0 count as ratio 0.

    Margins are the minimal slacks (bound minus attained value); their sign
    matches membership: E1 holds when its margin is positive, E2 and E3
    when theirs are not negative.  The one-field case of _event_margins.
    """
    base = view.base
    peak = np.array([base.at(view.x0)])
    margins = _event_margins(peak, view.zeta[None], base.model, base.L, view.x0, scales)
    m1, m2, m3 = margins[0].tolist()
    return EventReport(
        x0=view.x0, in_E1=m1 > 0.0, in_E2=m2 >= 0.0, in_E3=m3 >= 0.0, margins=(m1, m2, m3)
    )


def _event_margins(peak, zeta, model, L: int, x0: tuple, scales) -> np.ndarray:
    """The margins of E1, E2 and E3 (see event_check), shape (B, 3), of B
    fields of Q_L with the values ``peak`` at x0 and the zeta around x0
    stacked on a leading axis."""
    a_L, d_L, kappa, theta = scales.a_L, scales.d_L, scales.kappa, scales.theta
    win = _event_windows(model, L, x0, scales.R_L)
    flat = zeta.reshape(len(zeta), -1)
    dev = np.abs(peak - a_L)

    # E2 on the wide window, S = a_L (1 - v)
    slack2 = EVENT_SHAPE_FACTOR * (a_L * win.wide_dip) - np.abs(flat[:, win.wide])

    # E3 on the narrow window; ratio 0 where sd(zeta) = 0
    sd = win.narrow_sd
    ratio = np.divide(
        np.abs(flat[:, win.narrow]), sd, out=np.zeros((len(flat), sd.size)), where=sd > 0
    )
    bound = (a_L / d_L) ** (kappa * win.narrow_l1) * np.sqrt(np.maximum(1.0, dev * a_L))[:, None]
    return np.stack((theta - dev, slack2.min(axis=1), (bound - ratio).min(axis=1)), axis=1)

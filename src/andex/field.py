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

On top of a sample, the fluctuation decomposition around a base point x0:

    xi(x) = xi(x0) * v(x - x0) + zeta(x),      zeta(x0) = 0,

with zeta independent of xi(x0).  The localisation functions work on a
block of fields of Q_L stacked on a leading axis, one field being a block
of one: fluctuations forms zeta, condition conditions each field on
xi(x0) = value, event_margins gives the margins of the three-part peak
event around x0, and phi forms the profile-weighted correction
Phi(x0) = sum_x w(x) zeta(x0 + x).  The shifted field Xi = xi + Phi has
marginal variance 1 + tau^2.

What does not depend on the seed is built once per run and shared,
read-only: the sampler factors per (model, L or torus side), the profile
v(. - x0) per (model, L, x0), the windows of event_margins with 1 - v and
sd(zeta) on them per (model, L, x0, R_L), each in an LRU of 8 keyed on the
model itself, and the offsets and weights of a profile, which
ProfileWeights holds (BarSolution.weights builds them once per bar
solution).  A trial then only draws, forms zeta and gathers it.  A draw
keeps no state: one sample_field call draws a block of seeds together, and
each field of the block equals the draw of its seed alone bit for bit.  A
seed's generator is numpy's default_rng(SeedSequence(seed)), and trial i of
a run has the seed SeedSequence((master_seed, i, 0))'s first uint64 word
(trial_seeds).  Both come from one vectorised pass over a block, _seed_state,
which equals numpy's SeedSequence bit for bit
(tests/test_field.py::TestSeedingPass) and runs hash constants built once;
no other module knows SeedSequence's word layout.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import covariance as cov
from .errors import CovarianceInconsistencyError

__all__ = [
    "FieldSample",
    "ProfileWeights",
    "box_half",
    "grid_side",
    "torus_side",
    "window",
    "SAMPLERS",
    "sample_field",
    "fluctuations",
    "condition",
    "compute_tau",
    "phi",
    "event_margins",
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


def _ring(cube: np.ndarray, lead: int = 0) -> np.ndarray:
    """The entries of an odd cube in C order, its centre left out; with
    lead = 1, of each cube stacked on a leading axis, one row per cube."""
    flat = cube.reshape(cube.shape[:lead] + (-1,))
    mid = flat.shape[-1] // 2
    return np.concatenate((flat[..., :mid], flat[..., mid + 1 :]), axis=-1)


def _at(L: int, x0) -> tuple[slice, ...]:
    """Index of the site x0 in each grid of Q_L stacked on a leading axis."""
    return (slice(None),) + window(L, x0, 0)


@dataclass(frozen=True)
class FieldSample:
    """The fields of Q_L drawn for ``seeds``, one a seed, stacked on the
    leading axis of ``values``; a single field is a block of one."""

    values: np.ndarray  # shape (len(seeds),) + (side,)*d, read-only
    L: int
    model: cov.CovarianceModel
    seeds: tuple
    sampler: str  # "dense" | "circulant"

    def __post_init__(self):
        shape = (len(self.seeds),) + (grid_side(self.L),) * self.d
        if self.values.shape != shape:
            raise ValueError(f"grid shape {self.values.shape} != {shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite field values")
        self.values.setflags(write=False)

    @property
    def d(self) -> int:
        return self.model.d

    @property
    def half(self) -> int:
        return box_half(self.L)

    def export_binary(self, path_prefix: str) -> None:
        """The field of a block of one: its row-major little-endian float64
        grid plus a JSON sidecar."""
        (seed,) = self.seeds
        self.values.astype("<f8").tofile(path_prefix + ".bin")
        meta = {
            "L": self.L,
            "d": self.d,
            "model": self.model.to_config(),
            "seed": seed,
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
    pts = cov.offset_grid(model.d, h).reshape(n, model.d)
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
    X = cov.fftn(X, model.d)
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

# A block of seeds stacks its complex torus grids in at most
# DRAW_BATCH_BYTES, and holds at most DRAW_BATCH_MAX seeds (batch_size).
DRAW_BATCH_BYTES = 2 * 1024 * 1024
DRAW_BATCH_MAX = 32


def batch_size(model: cov.CovarianceModel, L: int) -> int:
    """Seeds per block of circulant draws on Q_L: as many torus grids as
    fit DRAW_BATCH_BYTES, clamped to 1..DRAW_BATCH_MAX."""
    grid_bytes = 16 * torus_side(model, L) ** model.d
    return min(max(DRAW_BATCH_BYTES // grid_bytes, 1), DRAW_BATCH_MAX)


def draw_bytes(model: cov.CovarianceModel, L: int) -> int:
    """Bytes a block of batch_size circulant draws on Q_L holds: six complex
    torus grids for one seed's draw; for each seed of the block its slot in
    the stacked transform, its real part on Q_L and 1 KiB for its
    generator; and numpy's buffer of at most np.getbufsize() doubles for
    the strided real part."""
    B = batch_size(model, L)
    grid_bytes = 16 * torus_side(model, L) ** model.d
    sites = grid_side(L) ** model.d
    buffer = 8 * min(np.getbufsize(), B * sites)
    return 6 * grid_bytes + B * (grid_bytes + 8 * sites + 1024) + buffer


# numpy's SeedSequence (pool of 4 words) on the columns of a uint32 array at
# once: its mix_entropy and generate_state, bit for bit.  Each runs a hash
# constant h from a fixed start, h <- h * mult mod 2^32 a step, and its step
# k turns a word w into f((w ^ h_k) * h_{k+1}), f(x) = x ^ (x >> 16).
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mix_entropy
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


@functools.lru_cache(maxsize=8)
def _hash_steps(init: int, mult: int, n: int) -> np.ndarray:
    """h_0 .. h_n of the hash constant from ``init``, as a read-only uint32
    column.  Array products wrap mod 2^32 without the overflow warning
    that numpy's uint32 scalars give."""
    h = np.multiply.accumulate(np.array([init] + [mult] * n, np.uint32), dtype=np.uint32)[:, None]
    h.setflags(write=False)
    return h


def _hashmix(words: np.ndarray, h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Hash steps on the rows of words, one a row: row i is xored with
    h[i] and multiplied by m[i], the constants before and after its step."""
    w = (words ^ h) * m
    return w ^ (w >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def _pool_steps() -> tuple[np.ndarray, np.ndarray]:
    """The (h, m) constants of mix_entropy's steps that mix each pool word
    into the others, each of shape (_POOL, _POOL, 1): row dst of src holds
    those of the step that mixes word src into word dst; row src, a step
    numpy skips, holds spare ones."""
    h = _hash_steps(_INIT_A, _MULT_A, _POOL * _POOL + 1)
    k = [[_POOL + 3 * src + dst - (dst > src) for dst in range(_POOL)] for src in range(_POOL)]
    return h[k], h[np.add(k, 1)]


_POOL_H, _POOL_M = _pool_steps()


def _seed_state(entropy: np.ndarray, lengths: np.ndarray, n: int) -> np.ndarray:
    """SeedSequence(e).generate_state(n, np.uint64) of each column e of the
    uint32 array ``entropy``, shape (E, B), cut to its length in
    ``lengths``: a C-ordered (B, n) uint64 array.  Each column holds zeros
    past its length."""
    E, B = entropy.shape
    h = _hash_steps(_INIT_A, _MULT_A, _POOL * max(E, _POOL))
    pool = np.zeros((_POOL, B), np.uint32)
    pool[: min(E, _POOL)] = entropy[:_POOL]  # a short column hashes zeros, as numpy does
    pool = _hashmix(pool, h[:_POOL], h[1 : _POOL + 1])
    for src in range(_POOL):  # every pool word into each other one
        mixed = _mix(pool, _hashmix(pool[src], _POOL_H[src], _POOL_M[src]))
        mixed[src] = pool[src]
        pool = mixed
    for src in range(_POOL, E):  # each further word into every pool word
        k = _POOL * src
        mixed = _mix(pool, _hashmix(entropy[src], h[k : k + _POOL], h[k + 1 : k + _POOL + 1]))
        pool = np.where(src < lengths, mixed, pool)
    h = _hash_steps(_INIT_B, _MULT_B, 2 * n)
    words = _hashmix(pool[np.arange(2 * n) % _POOL], h[:-1], h[1:]).astype(np.uint64)
    return np.ascontiguousarray((words[0::2] | words[1::2] << 32).T)


def _int_words(values) -> tuple[np.ndarray, np.ndarray]:
    """The uint32 words SeedSequence makes of each nonnegative int of
    ``values``, low word first, as the columns of a (W, B) array padded
    with zeros, and the number of words of each (1 for 0).  ValueError, as
    SeedSequence gives, for a negative int."""
    values = [operator.index(v) for v in values]
    if min(values) < 0:
        raise ValueError("expected non-negative integer")
    counts = np.array([max(1, -(-v.bit_length() // 32)) for v in values])
    W = int(counts.max())
    raw = b"".join(v.to_bytes(4 * W, "little") for v in values)
    return np.frombuffer(raw, "<u4").reshape(-1, W).T.astype(np.uint32), counts


class _State(ISeedSequence):
    """A seed sequence whose state is already drawn: the PCG64 words of
    one seed, which PCG64 seeds itself with."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != self.words.size:
            raise ValueError(f"holds {self.words.size} words, asked for {n_words}")
        return self.words


def trial_seeds(master_seed: int, start: int, stop: int) -> list[int]:
    """The seeds of trials start .. stop - 1: for trial i,
    SeedSequence((master_seed, i, 0)).generate_state(1, np.uint64)[0], the
    seeds of all of them from one _seed_state pass."""
    master, _ = _int_words([master_seed])
    index, counts = _int_words(range(start, stop))
    B = stop - start
    # an index of fewer words than the widest has its trailing 0 in the
    # padding, and the last row lies past its length
    entropy = np.concatenate(
        (np.broadcast_to(master, (len(master), B)), index, np.zeros((1, B), np.uint32))
    )
    return _seed_state(entropy, len(master) + counts + 1, 1)[:, 0].tolist()


def _generators(seeds) -> list[np.random.Generator]:
    """np.random.default_rng(np.random.SeedSequence(s)) of each seed s, bit
    for bit, the PCG64 words of all of them from one _seed_state pass."""
    words, counts = _int_words(seeds)
    state = _seed_state(words, counts, 4)
    return [np.random.Generator(np.random.PCG64(_State(w))) for w in state]


def sample_field(
    model: cov.CovarianceModel, L: int, seeds, sampler: str = "circulant"
) -> FieldSample:
    """Exact draws of the stationary field on Q_L, one for each seed of
    ``seeds``, together, with the sampler that SAMPLERS names, and no
    other: one read-only FieldSample stacking them in the order of
    ``seeds``.  Each field equals the draw of its seed alone bit for bit.

    Deterministic given (seeds, model, L, sampler).  The circulant sampler
    raises EmbeddingInvalidError when the embedding of the model on its
    padded torus is not nonnegative; the dense sampler raises ValueError
    above DENSE_SITE_LIMIT sites.
    """
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}")
    seeds = tuple(seeds)
    values = SAMPLERS[sampler](model, L, _generators(seeds))
    return FieldSample(values=values, L=L, model=model, seeds=seeds, sampler=sampler)


@_per_model_cache
def _profile_grid(model, L, x0):
    """v(x - x0) over the whole grid of Q_L; x0 is a tuple of ints."""
    offs = cov.offset_grid(model.d, box_half(L)) - np.asarray(x0)
    return cov.eval_cov_offsets(model, offs)


def fluctuations(values: np.ndarray, L: int, x0: tuple, prof: np.ndarray) -> np.ndarray:
    """zeta = xi - xi(x0) v(. - x0) of each field of Q_L in ``values``,
    stacked on a leading axis, given the profile v(. - x0); zero at x0.
    The only code that forms zeta."""
    at = _at(L, x0)
    zeta = values - values[at] * prof
    zeta[at] = 0.0
    return zeta


def condition(values: np.ndarray, model, L: int, x0: tuple, value: float):
    """The fields of Q_L in ``values``, stacked on a leading axis,
    conditioned on xi(x0) = value: (conditioned fields, their zeta), both
    of the shape of ``values``.

    Each field's draw loses its projection onto xi(x0) and gets the
    prescribed value back.  The residual zeta is independent of xi(x0), so
    for an exact draw the law is the exact conditional one.  ValueError
    when a conditioned field is not finite."""
    prof = _profile_grid(model, L, x0)
    vals = value * prof + fluctuations(values, L, x0, prof)
    vals[_at(L, x0)] = value  # exact, no roundoff
    if not np.isfinite(vals).all():
        raise ValueError("non-finite field values")
    return vals, fluctuations(vals, L, x0, prof)


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
    (BarSolution.weights) and read by phi."""

    half: int
    offsets: np.ndarray
    weights: np.ndarray

    @classmethod
    def of(cls, bar_phi: np.ndarray, d: int) -> "ProfileWeights":
        rh = _check_profile(bar_phi, d)
        offs = cov.offset_grid(d, rh).reshape(-1, d)
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


def phi(zeta: np.ndarray, L: int, x0: tuple, weights: ProfileWeights) -> np.ndarray:
    """Profile-weighted fluctuation correction at x0 of each zeta of Q_L
    stacked on a leading axis:

        Phi(x0) = sum_{x in Q_r, x != 0} bar_phi(x)^2 * zeta(x0 + x),

    with the offsets and weights of bar_phi in ``weights``.  One dot
    product per field: a matrix product would round differently."""
    if weights.offsets.shape[1] != zeta.ndim - 1:
        raise ValueError(f"profile must be {zeta.ndim - 1}-dimensional")
    rings = _ring(zeta[(slice(None),) + window(L, x0, weights.half)], lead=1)
    return np.array([weights.weights @ ring for ring in rings])


class _EventWindows(NamedTuple):
    """What event_margins needs of Q_{2R_L, x0} and Q_{R_L, x0} beyond the
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
        narrow_l1=_ring(np.sum(np.abs(cov.offset_grid(model.d, R_L // 2)), axis=-1)),
        narrow_sd=np.sqrt(np.clip(1.0 - prof[narrow] ** 2, 0.0, None)),
    )


def event_margins(peak, zeta, model, L: int, x0: tuple, scales) -> np.ndarray:
    """The margins of the three-part peak event around x0, shape (B, 3),
    of B fields of Q_L with the values ``peak`` at x0 and the zeta around
    x0 stacked on a leading axis.

    E1: |xi(x0) - a_L| < theta (theta = 2d+1).
    E2: |zeta(x)| <= EVENT_SHAPE_FACTOR * S(x - x0) on the window Q_{2R_L, x0}.
    E3: |zeta(x)| / sd(zeta(x)) <= (a_L/d_L)^{kappa |x-x0|} *
        sqrt(1 v |xi(x0) - a_L| a_L) on Q_{R_L, x0} minus x0; sites with
        sd(zeta) = 0 count as ratio 0.

    Margins are the minimal slacks (bound minus attained value); their sign
    matches membership: E1 holds when its margin is positive, E2 and E3
    when theirs are not negative."""
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

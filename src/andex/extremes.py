"""Order statistics, mesoscopic partition, site ranks, and the
decorated-PPP reference law.

The mesoscopic partition covers the centered box Q_L with super-boxes of
side T = R + floor(sqrt(R)) anchored at the corner; super-boxes that do not
fit entirely inside Q_L fall into the peeled remainder, and each retained
super-box keeps a centered core of side R.  Per-box maxima over the cores
are the objects whose joint law becomes Poissonian in the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "MesoPartition",
    "ExtremeRecord",
    "PPPReference",
    "build_partition",
    "order_statistics",
    "box_maxima",
    "site_ranks",
    "sample_ppp_reference",
    "ppp_rank_one_probability",
    "cross_box_covariance",
]

# Seeds per batch of ppp_rank_one_probability; its draws depend on it.
PPP_CHUNK = 20000


@dataclass(frozen=True)
class MesoPartition:
    L: int
    R_L: int
    d: int
    super_side: int
    n_per_axis: int
    box_centers: tuple  # lattice coordinate tuples

    @property
    def n_boxes(self) -> int:
        return len(self.box_centers)

    @property
    def core_half(self) -> int:
        return self.R_L // 2

    @property
    def gap(self) -> int:
        return math.isqrt(self.R_L)

    def core_slices(self, j: int) -> tuple:
        """Index slices of core j inside the full Q_L grid."""
        h = self.L // 2
        c = self.box_centers[j]
        return tuple(
            slice(ci + h - self.core_half, ci + h + self.core_half + 1) for ci in c
        )

    @cached_property
    def core_sites(self) -> np.ndarray:
        """Flat indices into the C-ordered Q_L grid of each core's sites:
        one row per core, in the core's own C order.  Read-only."""
        side = 2 * (self.L // 2) + 1
        grid = np.arange(side**self.d).reshape((side,) * self.d)
        sites = np.stack(
            [grid[self.core_slices(j)].ravel() for j in range(self.n_boxes)]
        )
        sites.setflags(write=False)
        return sites

    def core_mask(self, shape: tuple) -> np.ndarray:
        mask = np.zeros(shape, dtype=bool)
        for j in range(self.n_boxes):
            mask[self.core_slices(j)] = True
        return mask


def build_partition(L: int, R_L: int, d: int) -> MesoPartition:
    """Tile Q_L with super-boxes of side R_L + floor(sqrt(R_L)).

    Super-boxes are anchored at the corner of the grid; any partial box at
    the far edge is dropped into the remainder.  Cores of side R_L sit
    centered in their super-boxes.
    """
    if R_L < 1:
        raise ValueError("R_L must be positive")
    T = R_L + math.isqrt(R_L)
    if T > L / 2:
        raise ValueError(
            f"super-box side {T} exceeds L/2 = {L / 2}; partition infeasible"
        )
    h = L // 2
    side = 2 * h + 1
    n = side // T
    if n < 1:
        raise ValueError("box side too small for a single super-box")
    core_half = R_L // 2
    centers = []
    # center index of box (j1,...,jd): j*T + T//2 along each axis
    axis_centers = [j * T + T // 2 for j in range(n)]
    for idx in np.ndindex(*([n] * d)):
        coord = tuple(axis_centers[j] - h for j in idx)
        centers.append(coord)
    # sanity: cores inside Q_L
    for c in centers:
        for ci in c:
            if ci - core_half < -h or ci + core_half > h:
                raise ValueError("core leaves the box; partition bug")
    return MesoPartition(
        L=L,
        R_L=R_L,
        d=d,
        super_side=T,
        n_per_axis=n,
        box_centers=tuple(centers),
    )


@dataclass(frozen=True)
class ExtremeRecord:
    """Descending order statistics of one field, with rescalings."""

    order: tuple  # ((coords...), value) descending in value
    rescaled: tuple  # ((coords/L...), a_L*(value - a_L))


def descending_sites(flat: np.ndarray, top: int | None = None) -> np.ndarray:
    """Indices of the ``top`` highest entries of a flat array (all when
    None), by decreasing value, equal values in index order: the first
    ``top`` of a stable descending sort.  With ``top`` below the size,
    ``np.argpartition`` finds the cut-off value, and only the entries at or
    above it are sorted."""
    n = flat.size
    if top is None or top >= n:
        return np.argsort(-flat, kind="stable")
    cut = flat[np.argpartition(flat, n - top)[n - top]]
    idx = np.flatnonzero(flat >= cut)
    return idx[np.argsort(-flat[idx], kind="stable")[:top]]


def _descending_order(values: np.ndarray, h: int, top: int | None = None):
    """Positions and values sorted by decreasing value; ties broken
    lexicographically by coordinates (C order)."""
    flat = values.ravel(order="C")
    idx = descending_sites(flat, top)
    out = []
    for i in idx:
        pos = np.unravel_index(int(i), values.shape)
        out.append((tuple(int(p) - h for p in pos), float(flat[i])))
    return out


def order_statistics(sample, a_L: float, top: int | None = None) -> ExtremeRecord:
    """The field's ``top`` highest sites (all when None) in descending
    order, equal values in C order, with the standard rescalings."""
    h = sample.half
    order = _descending_order(sample.values, h, top)
    L = sample.L
    rescaled = tuple(
        (tuple(c / L for c in pos), a_L * (val - a_L)) for pos, val in order
    )
    return ExtremeRecord(order=tuple(order), rescaled=rescaled)


def box_maxima(sample, partition: MesoPartition) -> tuple:
    """Per-core argmax of the field: one ((coords...), value) per core, in
    core order."""
    if sample.L // 2 != partition.L // 2 or sample.d != partition.d:
        raise ValueError("partition was built for another box")
    h = sample.half
    flat = sample.values.ravel()
    sites = partition.core_sites
    # argmax keeps the first of tied sites, the first in each core's C order
    best = sites[np.arange(len(sites)), np.argmax(flat[sites], axis=1)]
    coords = np.stack(np.unravel_index(best, sample.values.shape), axis=1) - h
    return tuple(
        (tuple(int(c) for c in coord), float(flat[i]))
        for coord, i in zip(coords, best)
    )


def site_ranks(values: np.ndarray, sites: Sequence[tuple]) -> tuple:
    """1-based rank of each grid-index site in the descending order of values.

    A rank counts the larger values and the equal values earlier in C
    order, so it is the position in the stable descending sort of
    order_statistics, found in O(n) per site without sorting.
    """
    flat = values.ravel(order="C")
    ranks = []
    for site in sites:
        i = int(np.ravel_multi_index(tuple(site), values.shape))
        v = flat[i]
        ranks.append(
            int(np.count_nonzero(flat > v)) + int(np.count_nonzero(flat[:i] == v)) + 1
        )
    return tuple(ranks)


@dataclass(frozen=True)
class PPPReference:
    """Truncated decorated Poisson point process reference sample.

    u_k = -ln(Gamma_k) is a descending PPP with intensity e^{-u} du;
    decorations v_k ~ N(0, b); p is the descending sort of u + v, and
    ell(k) is the pre-sort index of p_k.  Ranks are reported only up to
    k_max_safe, past which truncation at K points could matter.
    """

    b: float
    K: int
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    ell: tuple  # ranks for k = 1 .. k_max_safe (1-based values)
    k_max_safe: int


def sample_ppp_reference(b: float, K: int, seed: int) -> PPPReference:
    if K < 50:
        raise ValueError("K must be >= 50")
    if b < 0:
        raise ValueError("decoration variance must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    gamma = np.cumsum(rng.exponential(size=K))
    u = -np.log(gamma)
    v = rng.normal(0.0, math.sqrt(b), size=K) if b > 0 else np.zeros(K)
    s = u + v
    order = np.argsort(-s, kind="stable")
    p = s[order]
    guard = u[-1] + 6.0 * math.sqrt(b)
    k_max_safe = int(np.searchsorted(-p, -guard))  # count of p > guard
    if k_max_safe == 0:
        raise ValueError(
            f"K={K} too small for any safe rank at decoration variance b={b}"
        )
    ell = tuple(int(order[k] + 1) for k in range(k_max_safe))
    return PPPReference(
        b=b, K=K, u=u, v=v, p=p, ell=ell, k_max_safe=k_max_safe
    )


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


def cross_box_covariance(samples: Sequence, partition: MesoPartition) -> float:
    """Max over distinct core pairs of the empirical covariance of per-box
    maxima across the batch (diagnostic for long-range decorrelation)."""
    if len(samples) < 200:
        raise ValueError("need at least 200 samples")
    n_boxes = partition.n_boxes
    M = np.empty((len(samples), n_boxes))
    for i, s in enumerate(samples):
        for j in range(n_boxes):
            M[i, j] = np.max(s.values[partition.core_slices(j)])
    C = np.cov(M, rowvar=False)
    C = np.atleast_2d(C)
    off = C[~np.eye(n_boxes, dtype=bool)]
    return float(np.max(off)) if off.size else 0.0

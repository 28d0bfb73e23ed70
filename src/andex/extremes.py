"""Descending site order, mesoscopic partition, site ranks, and the
decorated-PPP reference law.

A site is a flat index into the C-ordered Q_L grid.  The mesoscopic
partition covers the centered box Q_L with super-boxes of side
T = R + floor(sqrt(R)) anchored at the corner; super-boxes that do not fit
entirely inside Q_L fall into the peeled remainder, and each retained
super-box keeps a centered core of side R.  Per-box maxima over the cores
are the objects whose joint law becomes Poissonian in the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "MesoPartition",
    "PPPReference",
    "build_partition",
    "descending_sites",
    "box_maxima",
    "site_ranks",
    "sample_ppp_reference",
]

@dataclass(frozen=True, eq=False)
class MesoPartition:
    L: int
    R_L: int
    d: int
    # Flat indices into the C-ordered Q_L grid of each core's sites: one row
    # per core, cores and each core's sites in C order.  Read-only.
    core_sites: np.ndarray

    @property
    def n_boxes(self) -> int:
        return len(self.core_sites)


def build_partition(L: int, R_L: int, d: int) -> MesoPartition:
    """Tile Q_L with super-boxes of side T = R_L + floor(sqrt(R_L)).

    Super-boxes are anchored at the corner of the grid; any partial box at
    the far edge is dropped into the remainder.  Cores sit centered in their
    super-boxes: along each axis, core j spans the grid indices
    j*T + T//2 +- R_L//2, R_L of them for odd R_L.
    """
    if R_L < 1:
        raise ValueError("R_L must be positive")
    T = R_L + math.isqrt(R_L)
    if T > L / 2:
        raise ValueError(
            f"super-box side {T} exceeds L/2 = {L / 2}; partition infeasible"
        )
    side = 2 * (L // 2) + 1
    n = side // T
    axis = np.arange(n)[:, None] * T + T // 2 + np.arange(-(R_L // 2), R_L // 2 + 1)
    # one axis more per pass: row (core) and column (site) orders stay C
    sites = np.zeros((1, 1), dtype=axis.dtype)
    for _ in range(d):
        sites = (sites[:, None, :, None] * side + axis[None, :, None, :]).reshape(
            len(sites) * n, -1
        )
    sites.setflags(write=False)
    return MesoPartition(L=L, R_L=R_L, d=d, core_sites=sites)


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


def box_maxima(sample, partition: MesoPartition) -> tuple[np.ndarray, np.ndarray]:
    """Per-core argmax of the field: (sites, values), one entry per core in
    core order; of tied sites the first in the core's C order."""
    if sample.L // 2 != partition.L // 2 or sample.d != partition.d:
        raise ValueError("partition was built for another box")
    flat = sample.values.ravel()
    sites = partition.core_sites
    best = sites[np.arange(len(sites)), np.argmax(flat[sites], axis=1)]
    return best, flat[best]


def site_ranks(values: np.ndarray, sites: Sequence[int]) -> tuple:
    """1-based rank of each site in the descending order of values.

    A rank counts the larger values and the equal values earlier in C
    order, so it is the position in the order of descending_sites, found in
    O(n) per site without sorting.
    """
    flat = values.ravel(order="C")
    ranks = []
    for i in sites:
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
    if not b >= 0:
        raise ValueError(f"decoration variance must be >= 0, got {b}")
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

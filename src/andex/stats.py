"""Finite-sample statistical tests used to confront the limit theorems.

Small and deliberately boring: a two-sided KS statistic, the Gumbel CDF,
an index-of-dispersion test for Poissonian counts, and a tail-frequency
estimator with binomial error bars.  Thresholds live in the callers; this
module only computes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TestReport",
    "ks_statistic",
    "gumbel_cdf",
    "poisson_dispersion",
    "tail_frequency",
]


@dataclass(frozen=True)
class TestReport:
    statistic: float
    n: int
    threshold: float
    passed: bool
    description: str

    def __post_init__(self):
        if self.passed != (self.statistic <= self.threshold):
            raise ValueError("pass flag inconsistent with statistic/threshold")

    def to_json(self) -> str:
        return json.dumps(
            {
                "statistic": self.statistic,
                "n": self.n,
                "threshold": self.threshold,
                "pass": self.passed,
                "description": self.description,
            }
        )

    @classmethod
    def make(cls, statistic: float, n: int, threshold: float, description: str):
        return cls(
            statistic=float(statistic),
            n=int(n),
            threshold=float(threshold),
            passed=bool(statistic <= threshold),
            description=description,
        )


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov sup-distance.

    samples must be sorted ascending; cdf is a vectorizable callable into
    [0, 1].
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("need a non-empty 1-D array of samples")
    if np.any(np.diff(x) < 0):
        raise ValueError("samples must be sorted ascending")
    n = x.size
    F = np.asarray(cdf(x), dtype=float)
    if np.any(np.diff(F) < -1e-12):
        raise ValueError("cdf is not nondecreasing on the sample")
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - F)
    d_minus = np.max(F - (i - 1) / n)
    return float(max(d_plus, d_minus, 0.0))


def gumbel_cdf(u):
    """Standard Gumbel CDF exp(-e^{-u}) (law of the max of a PPP with
    intensity e^{-u} du)."""
    return np.exp(-np.exp(-np.asarray(u, dtype=float)))


# Fewest counts poisson_dispersion accepts.
DISPERSION_MIN_COUNTS = 50
# Band the index of dispersion must lie in, and the mean count it needs.
DISPERSION_BAND = (0.8, 1.2)
DISPERSION_MIN_MEAN = 0.2


def poisson_dispersion(counts) -> TestReport:
    """Index-of-dispersion test: sample variance over sample mean.

    Passes when the index lies in DISPERSION_BAND and the mean exceeds
    DISPERSION_MIN_MEAN (a near-empty count vector carries no evidence).
    The report statistic is the distance outside the band (0 when inside),
    so that pass <=> statistic <= 0.
    """
    c = np.asarray(counts, dtype=float)
    if c.ndim != 1 or c.size < DISPERSION_MIN_COUNTS:
        raise ValueError(f"need at least {DISPERSION_MIN_COUNTS} counts")
    if np.any(c < 0) or np.any(c != np.round(c)):
        raise ValueError("counts must be nonnegative integers")
    mean = float(np.mean(c))
    if mean == 0.0:
        raise ValueError("all counts are zero")
    var = float(np.var(c, ddof=1))
    dispersion = var / mean
    lo, hi = DISPERSION_BAND
    stat = max(lo - dispersion, dispersion - hi)
    if mean <= DISPERSION_MIN_MEAN:
        stat = math.inf
    return TestReport.make(
        statistic=stat,
        n=c.size,
        threshold=0.0,
        description=(
            f"index of dispersion {dispersion:.4f} (mean {mean:.4f}), "
            f"band [{lo}, {hi}], min mean {DISPERSION_MIN_MEAN}"
        ),
    )


def tail_frequency(values, level: float) -> tuple[float, float]:
    """Exceedance frequency with binomial standard error.

    Returns (fraction exceeding level, SE).
    """
    x = np.asarray(values, dtype=float)
    if x.size < 100:
        raise ValueError("need at least 100 values")
    n = x.size
    k = int(np.sum(x > level))
    p = k / n
    se = math.sqrt(p * (1.0 - p) / n)
    return (p, se)

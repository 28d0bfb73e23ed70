"""Deterministic scale parameters and analytic Gaussian tail quantities.

Everything here is a pure function of its inputs.  The central quantity is
the level a_L at which the standard Gaussian upper tail equals L^{-d}; it
is solved numerically (never via the sqrt(2 d ln L) asymptotic) because the
asymptotic error would swamp desk-scale fluctuation measurements.

Far-tail probabilities are computed through the scaled complementary error
function erfcx, which keeps full relative accuracy where 1 - CDF would
cancel catastrophically:

    log P(N(0,1) > a) = log(erfcx(a/sqrt(2))/2) - a^2/2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize, special

from .errors import QuadratureError

__all__ = [
    "ScaleSet",
    "compute_aL",
    "compute_theta_L",
    "interval_ILC",
    "gaussian_sum_tail",
    "restricted_sum_tail",
    "suggest_windows",
    "normal_log_sf",
    "normal_sf",
]

# Exponent kappa of the shrink-window scale theta_L and of the decay bound
# of the peak event's part E3.
KAPPA = 0.25

# Largest level for which exp(-a^2/2) stays inside double range with room
# to spare; beyond this L^{-d} underflows and the solve is meaningless.
_A_MAX = 38.0


def normal_log_sf(a):
    """log P(N(0,1) > a), accurate in the far upper tail."""
    a = np.asarray(a, dtype=float)
    return np.log(0.5 * special.erfcx(a / math.sqrt(2.0))) - 0.5 * a * a


def normal_sf(a):
    """P(N(0,1) > a) without cancellation in the upper tail."""
    return 0.5 * special.erfc(np.asarray(a, dtype=float) / math.sqrt(2.0))


def compute_aL(L: int, d: int) -> float:
    """Solve P(N(0,1) > a) = L^{-d} for a.

    Parameters
    ----------
    L : box side, >= 2.
    d : dimension, 1..3.

    Uses a bracketing Brent solve on the log tail followed by one Newton
    polish, giving relative accuracy far below the required 1e-12.
    """
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {d}")
    if L < 2:
        raise ValueError(f"box side must be >= 2, got {L}")
    log_target = -d * math.log(L)
    if log_target < float(normal_log_sf(_A_MAX)):
        raise ValueError(
            f"L^d = {L}^{d} puts the tail below double precision range"
        )

    f = lambda a: float(normal_log_sf(a)) - log_target
    lo, hi = 0.0, _A_MAX
    if f(lo) < 0.0:
        # tail at 0 is 1/2; L^{-d} >= 1/2 only for tiny L^d, handled by bracket
        lo = -5.0
    a = optimize.brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16)
    # Newton polish: d/da log sf = -phi(a)/sf(a)
    for _ in range(2):
        g = f(a)
        slope = -math.exp(-0.5 * a * a) / math.sqrt(2 * math.pi) / math.exp(
            float(normal_log_sf(a))
        )
        a -= g / slope
    return float(a)


def compute_theta_L(a_L: float, d_L: float, tau_L: float, kappa: float) -> float:
    """Shrink-window scale (a_L/d_L)^kappa * max(1/a_L, a_L*tau_L^2)."""
    if not (0.0 < kappa < 1.0 / 3.0):
        raise ValueError(f"kappa must lie in (0, 1/3), got {kappa}")
    if d_L < 1.0:
        raise ValueError(f"d_L must be >= 1, got {d_L}")
    if a_L <= d_L:
        raise ValueError(
            f"requires d_L < a_L (got a_L={a_L}, d_L={d_L}); "
            "caller must opt into the unsafe regime explicitly"
        )
    return (a_L / d_L) ** kappa * max(1.0 / a_L, a_L * tau_L * tau_L)


def interval_ILC(a_L: float, tau_L: float, C: float) -> tuple[float, float]:
    """Interval of width 2*C*max(1/a_L, tau_L) centred at a_L/sqrt(1+tau_L^2)."""
    if C <= 0.0:
        raise ValueError(f"C must be positive, got {C}")
    centre = a_L / math.sqrt(1.0 + tau_L * tau_L)
    half = C * max(1.0 / a_L, tau_L)
    return (centre - half, centre + half)


def gaussian_sum_tail(
    a_L: float, tau_L: float, s: float, Ld: float
) -> tuple[float, float]:
    """Exact analytic pair for the shifted-sum tail.

    Returns (Ld * P(N(0, 1+tau^2) >= a_L*sqrt(1+tau^2) + s/a_L), exp(-s)).
    The first entry is a closed-form complementary normal CDF evaluation,
    no sampling involved.
    """
    if tau_L < 0.0:
        raise ValueError(f"tau_L must be >= 0, got {tau_L}")
    if Ld <= 1.0:
        raise ValueError(f"Ld must exceed 1, got {Ld}")
    sigma = math.sqrt(1.0 + tau_L * tau_L)
    level = a_L * sigma + s / a_L
    log_p = float(normal_log_sf(level / sigma))
    return (math.exp(math.log(Ld) + log_p), math.exp(-s))


def restricted_sum_tail(
    a_L: float, tau_L: float, s: float, Ld: float, C: float
) -> float:
    """Ld * P(X + Y >= a_Xi + s/a_L, X outside interval_ILC(a_L, tau_L, C))
    for independent X ~ N(0,1), Y ~ N(0, tau_L^2).

    The tau_L > 0 case integrates the convolution over the two excluded
    half-lines with adaptive quadrature; tau_L = 0 reduces to interval
    arithmetic on a single normal variable.
    """
    lo, hi = interval_ILC(a_L, tau_L, C)
    level = a_L * math.sqrt(1.0 + tau_L * tau_L) + s / a_L
    if tau_L == 0.0:
        # X >= level and (X < lo or X > hi)
        p = float(normal_sf(max(level, hi)))
        if level < lo:
            p += float(normal_sf(level)) - float(normal_sf(lo))
        return Ld * p

    def integrand(x):
        dens = math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        return dens * float(normal_sf((level - x) / tau_L))

    try:
        left, el = integrate.quad(
            integrand, -np.inf, lo, limit=500, epsabs=0.0, epsrel=1e-10
        )
        right, er = integrate.quad(
            integrand, hi, np.inf, limit=500, epsabs=0.0, epsrel=1e-10
        )
    except Exception as exc:  # scipy raises IntegrationWarning-as-error etc.
        raise QuadratureError(f"tail quadrature failed: {exc}") from exc
    total = left + right
    if total > 0 and (el + er) > 1e-2 * total:
        raise QuadratureError(
            f"tail quadrature did not converge (value={total}, err={el + er})"
        )
    return Ld * total


def suggest_windows(a_L: float, d_L: float, L: int) -> tuple[int, int]:
    """Default mesoscopic/microscopic window sides (R_L, r_L).

    Heuristic: r_L = ceil(max(a_L, 3*d_L)) rounded up to odd; R_L = largest
    odd integer <= L/4 (which guarantees at least 4 mesoscopic boxes per
    axis).  Both are meant to be overridable by experiment config.
    """
    if d_L >= a_L:
        raise ValueError(f"requires d_L < a_L (got a_L={a_L}, d_L={d_L})")
    if L < 32:
        raise ValueError(f"box side too small for window separation: {L}")
    r = math.ceil(max(a_L, 3.0 * d_L))
    if r % 2 == 0:
        r += 1
    R = L // 4
    if R % 2 == 0:
        R -= 1
    if not (r < R):
        raise ValueError(
            f"cannot fit microscopic window below mesoscopic one: r={r}, R={R}"
        )
    return (R, r)


@dataclass(frozen=True)
class ScaleSet:
    """All deterministic scales for one (L, d, covariance model).

    The seven inputs are fields; a_Xi, theta, kappa and theta_L are derived
    from them."""

    L: int
    d: int
    a_L: float
    tau_L: float
    R_L: int
    r_L: int
    d_L: float

    def __post_init__(self):
        # theta_L raises unless 1 <= d_L < a_L
        compute_theta_L(self.a_L, self.d_L, self.tau_L, KAPPA)
        if not (self.r_L < self.R_L < self.L):
            raise ValueError("window ordering r_L < R_L < L violated")

    @property
    def a_Xi(self) -> float:
        """Level of the shifted field Xi, a_L * sqrt(1 + tau_L^2)."""
        return self.a_L * math.sqrt(1.0 + self.tau_L * self.tau_L)

    @property
    def theta(self) -> int:
        """Half-width 2d+1 of the peak event's part E1."""
        return 2 * self.d + 1

    @property
    def kappa(self) -> float:
        return KAPPA

    @property
    def theta_L(self) -> float:
        return compute_theta_L(self.a_L, self.d_L, self.tau_L, KAPPA)

    def to_json(self) -> str:
        """Inputs and derived scales, in the order a manifest lists them."""
        keys = "L d a_L tau_L a_Xi theta kappa theta_L R_L r_L d_L".split()
        return json.dumps({key: getattr(self, key) for key in keys})

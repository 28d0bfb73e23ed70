"""Exception types shared across the package.

Each failure mode that callers are expected to branch on gets its own
class; everything else surfaces as ValueError.
"""


class AndexError(Exception):
    """Base class for package-specific failures."""


class ConfigError(AndexError):
    """Invalid or incomplete configuration."""


class EmbeddingInvalidError(AndexError):
    """Circulant embedding produced a materially negative spectral entry."""


class QuadratureError(AndexError):
    """Adaptive quadrature failed to converge."""


class CovarianceInconsistencyError(AndexError):
    """A covariance computation produced an impossible value (e.g. a
    variance more negative than roundoff can explain)."""


class SolverConvergenceError(AndexError):
    """Iterative eigensolver failed to reach the requested residual."""

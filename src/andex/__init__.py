"""andex: a numerical laboratory for extreme-value statistics of correlated
Gaussian potentials and the top of the Anderson Hamiltonian spectrum.

Modules
-------
scales      deterministic scale parameters and analytic Gaussian tails
covariance  stationary covariance families and structural diagnostics
field       exact Gaussian samplers and the fluctuation decomposition
spectrum    Schrödinger operators, eigensolvers, approximation formulas
extremes    descending site order, mesoscopic partition, decorated-PPP reference
stats       KS / Gumbel / Poisson-dispersion / tail-frequency machinery
harness     Monte Carlo experiments: configs, seeding, records, manifests
"""

__version__ = "0.1.0"

from . import covariance, extremes, field, harness, scales, spectrum, stats  # noqa: F401

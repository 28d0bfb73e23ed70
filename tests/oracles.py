"""Reference computations the tests check the library against.

None of these runs on a program path: the library's one eigensolver is
``spectrum.top_k_eigs``.  ``dense_eigs`` is the independent full-``eigh``
oracle on small boxes, ``tied_blocks`` groups a result's eigenvalues,
and ``quadratic_form`` and ``form_gradient`` are the Rayleigh quotient
and its gradient that criterion 13 checks.
"""

import numpy as np

from andex import spectrum

DENSE_SITE_LIMIT = 4000  # dense_eigs, the full-eigh oracle


def dense_eigs(V: np.ndarray, k: int | None = None) -> spectrum.SpectralResult:
    """Full symmetric eigendecomposition (oracle path, small boxes only)."""
    n = V.size
    if n > DENSE_SITE_LIMIT:
        raise ValueError(f"dense solver limited to {DENSE_SITE_LIMIT} sites")
    H = spectrum._assemble_dense(V)
    w, U = np.linalg.eigh(H)
    k = n if k is None else min(k, n)
    sel = np.argsort(-w)[:k]
    return spectrum._finalize(w[sel], U[:, sel].T.reshape((k,) + V.shape), V, "dense")


def tied_blocks(result: spectrum.SpectralResult, tol: float = spectrum.TIE_TOL):
    """Partition 0..k-1 into maximal blocks of eigenvalues within tol."""
    blocks, start = [], 0
    for i in range(1, result.k + 1):
        if i == result.k or result.eigenvalues[i - 1] - result.eigenvalues[i] > tol:
            blocks.append(list(range(start, i)))
            start = i
    return blocks


def quadratic_form(V: np.ndarray, psi: np.ndarray) -> float:
    """<psi, (Delta + V) psi> for l2-normalized psi."""
    if abs(float(np.sum(psi**2)) - 1.0) > 1e-8:
        raise ValueError("psi must be l2-normalized")
    return float(np.sum(psi * spectrum.apply_hamiltonian(V, psi)))


def form_gradient(V: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Gradient of the quadratic form in the sphere chart around the origin.

    The form is viewed as a function of the off-origin values of psi, with
    the origin value eliminated through the normalization constraint
    psi(0) = sqrt(1 - sum_{x != 0} psi(x)^2) > 0.  Then

        d form / d psi(x) = 2 [ (H psi)(x) - (H psi)(0) psi(x) / psi(0) ],

    which vanishes exactly at eigenfunctions.  The origin component of the
    returned grid is set to zero (it is not a free coordinate).
    """
    c = tuple(s // 2 for s in psi.shape)
    off_mass = float(np.sum(psi**2)) - float(psi[c] ** 2)
    if 1.0 - off_mass <= 0.0:
        raise ValueError("normalization leaves no positive mass at the origin")
    if psi[c] <= 0.0:
        raise ValueError("psi must be positive at the origin in this chart")
    hpsi = spectrum.apply_hamiltonian(V, psi)
    grad = 2.0 * (hpsi - (hpsi[c] / psi[c]) * psi)
    grad[c] = 0.0
    return grad


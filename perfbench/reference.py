"""Reference spectrum for the benchmark's output checks.

A Fourier-Galerkin solve of the self-adjoint form of the separated equation,

    -(w psi')' + m^2 alpha^2 / w psi = beta w psi,    w = 1 + alpha sin(theta),

in the real trigonometric basis of one reflection sector (theta -> pi - theta):
even states span cos(k theta) for even k and sin(k theta) for odd k, odd
states the other half.  The stiffness and mass matrices are symmetric and the
mass matrix is positive definite, so a Cholesky reduction gives a plain
symmetric eigenproblem.  Periodic trapezoid quadrature on a grid much finer
than the basis is exact to rounding for the polynomial terms and converges
geometrically for the 1/w term.

This shares no code with the package it checks: no recursion, no
determinant, no shooting and no finite differences.
"""

from __future__ import annotations

import math

import numpy as np

HARMONICS = 96        # highest harmonic in the basis
QUAD_PER_HARMONIC = 8  # quadrature points per harmonic


def _basis(parity: str, kmax: int, theta: np.ndarray):
    """Basis values and derivatives on the grid, one column per function."""
    funcs, derivs = [], []
    for k in range(kmax + 1):
        use_cos = (k % 2 == 0) == (parity == "even")
        if use_cos:
            funcs.append(np.cos(k * theta))
            derivs.append(-k * np.sin(k * theta))
        elif k > 0:
            funcs.append(np.sin(k * theta))
            derivs.append(k * np.cos(k * theta))
    return np.array(funcs).T, np.array(derivs).T


def sector_spectrum(alpha: float, m: int, parity: str,
                    kmax: int = HARMONICS) -> np.ndarray:
    """All eigenvalues of one (m, parity) sector, ascending.

    Only the low part of the returned array is converged; callers take the
    states below a few hundred, far under kmax**2.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be even or odd, got {parity!r}")
    n = QUAD_PER_HARMONIC * kmax
    theta = np.arange(n) * (2.0 * math.pi / n)
    w = 1.0 + alpha * np.sin(theta)
    phi, dphi = _basis(parity, kmax, theta)
    h = 2.0 * math.pi / n
    stiff = (dphi.T @ (w[:, None] * dphi)
             + (m * alpha) ** 2 * (phi.T @ (phi / w[:, None]))) * h
    mass = (phi.T @ (w[:, None] * phi)) * h
    chol = np.linalg.cholesky(mass)
    left = np.linalg.solve(chol, stiff)
    reduced = np.linalg.solve(chol, left.T).T
    return np.linalg.eigvalsh(0.5 * (reduced + reduced.T))


def states_below(alpha: float, m: int, parity: str, beta_max: float) -> list[float]:
    """Sector eigenvalues in [0, beta_max]; the m = 0 constant mode reads 0."""
    vals = sector_spectrum(alpha, m, parity)
    return [max(0.0, float(b)) for b in vals if -1e-8 <= b <= beta_max]

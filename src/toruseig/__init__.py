"""Eigenvalues and eigenfunctions of a quantum particle on a torus surface.

The separated poloidal equation is solved by a Fourier-coefficient
recursion (for m = 0 a truncated tridiagonal pencil, whose eigenvalues are
the roots of the truncated-coefficient polynomial; for general m a two-seed
tail determinant) and verified against two independent oracles: Runge-Kutta
shooting and a periodic finite-difference discretization.  One real
three- or five-term stencil, in the phase-reduced storage d_n, encodes the
recursion; the tests check it by projecting the equation itself onto
Fourier modes.
"""

from .eigensolver import (
    BetaPolynomial,
    Eigenpair,
    coefficient_polynomials,
    determinant,
    determinant_scan,
    find_eigenvalues,
    roots_warm_started,
)
from .geometry import SpectralPoint, TorusShape, beta_to_energy, embed, metric_factor
from .oracles import (
    OracleConfig,
    ShootingState,
    fd_spectrum,
    rk_find_eigenvalue,
    rk_mismatch,
    rk_sample,
)
from .recursion import CoefficientSeries, ModeSpec, propagate, residual
from .wavefunction import (
    Eigenfunction,
    compare_scaled,
    evaluate,
    from_series,
    normalize,
    overlap,
)

__version__ = "0.1.0"

__all__ = [
    "BetaPolynomial",
    "CoefficientSeries",
    "Eigenfunction",
    "Eigenpair",
    "ModeSpec",
    "OracleConfig",
    "ShootingState",
    "SpectralPoint",
    "TorusShape",
    "beta_to_energy",
    "coefficient_polynomials",
    "compare_scaled",
    "determinant",
    "determinant_scan",
    "embed",
    "evaluate",
    "fd_spectrum",
    "find_eigenvalues",
    "from_series",
    "metric_factor",
    "normalize",
    "overlap",
    "propagate",
    "residual",
    "rk_find_eigenvalue",
    "rk_mismatch",
    "rk_sample",
    "roots_warm_started",
]

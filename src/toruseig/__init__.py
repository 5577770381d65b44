"""Eigenvalues and eigenfunctions of a quantum particle on a torus surface.

The separated poloidal equation is solved by a Fourier-coefficient
recursion (for m = 0 a truncated tridiagonal pencil, whose eigenvalues are
the roots of the truncated-coefficient polynomial; for general m a two-seed
tail determinant) and verified against two independent oracles: Runge-Kutta
shooting and a periodic finite-difference discretization.
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
from .recursion import (
    CoefficientSeries,
    ModeSpec,
    RecursionRow,
    five_term_row,
    propagate,
    residual,
    three_term_row,
)
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
    "RecursionRow",
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
    "five_term_row",
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
    "three_term_row",
]

"""Real trigonometric eigenfunctions: assembly, evaluation, inner products.

An eigenfunction is stored as psi(theta) = a_0 + sum_k a_k cos(k theta)
+ b_k sin(k theta).  Under the reflection theta -> pi - theta the harmonics
map as cos(k theta) -> (-1)^k cos(k theta) and sin(k theta) ->
(-1)^(k+1) sin(k theta), so even-sector functions carry only
{1, sin(odd k), cos(even k)} and odd-sector functions the complement.
``from_series`` applies the storage rule of the ``recursion`` module docstring
and ``evaluate`` its trigonometric sum.

The orthogonality measure is the theta part of the surface area element,
(1 + alpha sin(theta)) dtheta; the azimuthal factor e^{i m phi} contributes
a constant absorbed by convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal, Sequence

import numpy as np

from .recursion import CoefficientSeries, ModeSpec, _trig_coefficients, _trig_sum

Normalization = Literal["none", "unit-weighted"]

__all__ = [
    "Eigenfunction",
    "ScaledComparison",
    "from_series",
    "evaluate",
    "normalize",
    "overlap",
    "weighted_norm_sq_from_coefficients",
    "compare_scaled",
]


@dataclass(frozen=True)
class Eigenfunction:
    """Finite trigonometric sum with its mode metadata.

    ``lambda_index`` counts states of fixed m within one parity sector in
    ascending beta, starting at 1; the exact constant mode is index 0.
    """

    mode: ModeSpec
    beta: float
    a: tuple[float, ...]
    b: tuple[float, ...]
    lambda_index: int | None = None
    normalization: Normalization = "none"

    def __post_init__(self) -> None:
        if len(self.a) != len(self.b):
            raise ValueError("cosine and sine coefficient arrays must align")
        if len(self.a) < 1:
            raise ValueError("need at least the constant coefficient")

    @property
    def max_harmonic(self) -> int:
        return len(self.a) - 1

    def parity_violation(self) -> float:
        """Largest coefficient that the parity sector forbids."""
        worst = 0.0
        for k in range(len(self.a)):
            cos_allowed = (k % 2 == 0) if self.mode.parity == "even" else (k % 2 == 1)
            if not cos_allowed:
                worst = max(worst, abs(self.a[k]))
            if k >= 1:
                sin_allowed = (k % 2 == 1) if self.mode.parity == "even" else (k % 2 == 0)
                if not sin_allowed:
                    worst = max(worst, abs(self.b[k]))
        return worst


def from_series(series: CoefficientSeries, beta: float, mode: ModeSpec,
                lambda_index: int | None = None) -> Eigenfunction:
    """Convert stored coefficients to the real trig basis.

    Each d_k lands on one cos(k theta) or sin(k theta) by the storage rule
    of the ``recursion`` module docstring.  The series' common exp(log_scale)
    factor is not materialized (it may not be representable); coefficient
    ratios are unaffected and normalize() fixes the scale outright.
    """
    if series.m != mode.m or series.parity != mode.parity:
        raise ValueError("mode does not match the series")
    a, b = _trig_coefficients(series)
    return Eigenfunction(mode=mode, beta=beta, a=tuple(a.tolist()),
                         b=tuple(b.tolist()), lambda_index=lambda_index)


def evaluate(psi: Eigenfunction, theta):
    """psi(theta); accepts scalars or arrays.

    No BLAS call, so the result does not depend on the BLAS thread count.
    """
    total = _trig_sum(np.array(psi.a), np.array(psi.b), theta)[0]
    if np.ndim(theta) == 0:
        return float(total)
    return total


def overlap(psi1: Eigenfunction, psi2: Eigenfunction, alpha: float) -> float:
    """Weighted inner product over [0, 2 pi).

    Periodic trapezoid quadrature, exact for trigonometric polynomials well
    below the grid's Nyquist harmonic.
    """
    if psi1.mode.m != psi2.mode.m:
        raise ValueError(
            f"overlap requires equal m, got {psi1.mode.m} and {psi2.mode.m}"
        )
    n = max(512, 2 * (psi1.max_harmonic + psi2.max_harmonic) + 8)
    th = np.arange(n) * (2.0 * math.pi / n)
    w = 1.0 + alpha * np.sin(th)
    v1 = evaluate(psi1, th)
    v2 = v1 if psi2 is psi1 else evaluate(psi2, th)
    vals = v1 * v2 * w
    return float(np.sum(vals) * (2.0 * math.pi / n))


def weighted_norm_sq_from_coefficients(psi: Eigenfunction, alpha: float) -> float:
    """Closed-form weighted norm from the trig coefficients.

    integral psi^2 (1 + alpha sin) dtheta = 2 pi a_0^2 + pi sum (a_k^2+b_k^2)
    + alpha [ 2 pi a_0 b_1 + pi sum_{k>=2} a_{k-1} b_k - pi sum_{k>=1} a_{k+1} b_k ],
    the sine weight coupling neighboring harmonics only.
    """
    a, b = psi.a, psi.b
    kmax = len(a) - 1
    base = 2.0 * math.pi * a[0] ** 2
    for k in range(1, kmax + 1):
        base += math.pi * (a[k] ** 2 + b[k] ** 2)
    cross = 2.0 * math.pi * a[0] * b[1] if kmax >= 1 else 0.0
    for k in range(2, kmax + 1):
        cross += math.pi * a[k - 1] * b[k]
    for k in range(1, kmax):
        cross -= math.pi * a[k + 1] * b[k]
    return base + alpha * cross


def _sign_fix_order(psi: Eigenfunction):
    yield psi.a[0]
    for k in range(1, len(psi.a)):
        yield psi.b[k]
        yield psi.a[k]


def normalize(psi: Eigenfunction, alpha: float) -> Eigenfunction:
    """Unit weighted norm; sign fixed by the first nonzero coefficient.

    The coefficient scan order is (a_0, b_1, a_1, b_2, a_2, ...); the first
    entry above the noise floor is made positive.  Idempotent.
    """
    norm_sq = overlap(psi, psi, alpha)
    if norm_sq <= 0.0 or not math.isfinite(norm_sq):
        raise ValueError("cannot normalize a zero (or non-finite) function")
    scale = 1.0 / math.sqrt(norm_sq)
    peak = max(max(abs(x) for x in psi.a), max(abs(x) for x in psi.b))
    for lead in _sign_fix_order(psi):
        if abs(lead) > 1e-12 * peak:
            if lead < 0:
                scale = -scale
            break
    return replace(
        psi,
        a=tuple(scale * x for x in psi.a),
        b=tuple(scale * x for x in psi.b),
        normalization="unit-weighted",
    )


@dataclass(frozen=True)
class ScaledComparison:
    scale: float
    max_abs_deviation: float


def compare_scaled(samples_a: Sequence[tuple[float, float]],
                   samples_b: Sequence[tuple[float, float]]) -> ScaledComparison:
    """Least-squares single scale s minimizing sum (s a_i - b_i)^2."""
    if len(samples_a) != len(samples_b) or len(samples_a) < 2:
        raise ValueError("need two equal-length sample lists with >= 2 points")
    ta = [t for t, _ in samples_a]
    tb = [t for t, _ in samples_b]
    if any(abs(x - y) > 1e-12 for x, y in zip(ta, tb)):
        raise ValueError("sample theta grids differ")
    va = np.array([v for _, v in samples_a])
    vb = np.array([v for _, v in samples_b])
    denom = float(np.dot(va, va))
    if denom == 0.0:
        raise ValueError("first sample list is identically zero")
    scale = float(np.dot(va, vb)) / denom
    return ScaledComparison(
        scale=scale,
        max_abs_deviation=float(np.max(np.abs(scale * va - vb))),
    )

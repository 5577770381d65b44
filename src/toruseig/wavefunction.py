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
a constant absorbed by convention.  Inner products (``overlap``, and the norm
``normalize`` divides by) are exact: they come from the trig coefficients in
closed form, never from samples of psi.
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
    """Weighted inner product over [0, 2 pi), exact from the trig coefficients.

    With psi1 = (a, b) and psi2 = (c, d), zero-padded to one length,
    integral psi1 psi2 (1 + alpha sin) dtheta = 2 pi a_0 c_0
    + pi sum_{k>=1} (a_k c_k + b_k d_k) + alpha pi [a_0 d_1 + c_0 b_1
    + 1/2 sum_{k>=2} (a_{k-1} d_k + c_{k-1} b_k)
    - 1/2 sum_{k>=1} (a_{k+1} d_k + c_{k+1} b_k)]:
    the sine weight couples neighboring harmonics only.  No BLAS call, so
    the result does not depend on the BLAS thread count.
    """
    if psi1.mode.m != psi2.mode.m:
        raise ValueError(
            f"overlap requires equal m, got {psi1.mode.m} and {psi2.mode.m}"
        )
    n = max(2, len(psi1.a), len(psi2.a))
    a, b, c, d = (np.pad(np.asarray(x, dtype=float), (0, n - len(x)))
                  for x in (psi1.a, psi1.b, psi2.a, psi2.b))
    plain = 2.0 * a[0] * c[0] + np.sum(a[1:] * c[1:] + b[1:] * d[1:])
    cross = a[0] * d[1] + c[0] * b[1] + 0.5 * np.sum(
        (a[1:-1] * d[2:] + c[1:-1] * b[2:]) - (a[2:] * d[1:-1] + c[2:] * b[1:-1]))
    return float(math.pi * (plain + alpha * cross))


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

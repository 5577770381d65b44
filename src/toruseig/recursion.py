"""Fourier-coefficient recursions for the separated poloidal equation.

With psi(theta + 2 pi) = psi(theta) expanded as psi = sum_n c_n e^{i n theta}
and w = 1 + alpha sin(theta), the separated equation

    E[psi] = psi'' + alpha cos(theta)/w psi' - m^2 alpha^2/w^2 psi + beta psi = 0

projects onto e^{i n theta} after clearing the denominators: the n-th
Fourier coefficient of w E[psi] (m = 0) couples three consecutive
coefficients, that of w^2 E[psi] (general m) five.  The projection uses

    sin(theta) f  ->  (f_{n-1} - f_{n+1}) / (2i)
    cos(theta) f  ->  (f_{n-1} + f_{n+1}) / 2

and the analogous double-angle rules.

The operator is invariant under theta -> pi - theta, so solutions split into
even and odd sectors.  All arithmetic is real: the series is stored as
d_n = c_n / i^n (even) or c_n / i^(n-1) (odd), which turns the parity
relations into d_{-n} = +/- d_n and makes every row multiplier real.  One
real stencil encodes the recursion: row n of ``_d_row_three`` applied to d
is (2/alpha) times the n-th coefficient of w E[psi], and row n of
``_d_row_five`` the n-th coefficient of w^2 E[psi], each divided by the same
power of i as d_n.  The tests verify this by projection, against an FFT of
the equation evaluated on a grid.  In the shifted angle u = theta + pi/2
(origin at the inner equator) the even sector is a cosine series and the odd
sector a sine series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

Parity = Literal["even", "odd"]

RESCALE_THRESHOLD = 1e100
_POLE_EPS = 1e-280

__all__ = [
    "Parity",
    "ModeSpec",
    "CoefficientSeries",
    "propagate",
    "residual",
    "reconstruct",
    "RESCALE_THRESHOLD",
]


def _check_parity(parity: str) -> Parity:
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return parity  # type: ignore[return-value]


@dataclass(frozen=True)
class ModeSpec:
    """Azimuthal integer m and parity sector under theta -> pi - theta."""

    m: int
    parity: Parity

    def __post_init__(self) -> None:
        if not (isinstance(self.m, int) and self.m >= 0):
            raise ValueError(f"m must be a nonnegative integer, got {self.m}")
        _check_parity(self.parity)


@dataclass(frozen=True)
class CoefficientSeries:
    """Two-sided Fourier series in phase-reduced real storage.

    ``d[k]`` holds c_k / i^k (even sector) or c_k / i^(k-1) (odd sector) for
    k = 0..order; the negative side follows from parity, d_{-k} = d_k (even)
    or -d_k (odd), so a violating series cannot be represented.
    ``log_scale`` accumulates the natural log of any overflow rescaling
    applied during propagation; the true coefficients are d * exp(log_scale).
    """

    order: int
    m: int
    parity: Parity
    d: tuple[float, ...]
    log_scale: float = 0.0

    def __post_init__(self) -> None:
        _check_parity(self.parity)
        if self.order < 0 or len(self.d) != self.order + 1:
            raise ValueError(
                f"need order+1 stored coefficients, got {len(self.d)} for order {self.order}"
            )
        if self.parity == "odd" and self.d[0] != 0.0:
            raise ValueError("odd-parity series must have d_0 == 0")

    def max_abs(self) -> float:
        return max(abs(v) for v in self.d)


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


class _PoleHit(Exception):
    """A marching denominator vanished; beta sits on k(k+1) for some k."""


def _d_row_three(n: int, alpha: float, beta: float) -> tuple[float, float, float]:
    # real-storage row: tm*d_{n-1} + t0*d_n + tp*d_{n+1} = 0
    tm = -(beta - n * (n - 1))
    t0 = 2.0 / alpha * (beta - n * n)
    tp = n * (n + 1) - beta
    return tm, t0, tp


def _d_row_five(n: int, alpha: float, m: int, beta: float):
    a2 = alpha * alpha
    am2 = -(a2 / 4) * ((n - 2) * (n - 1) - beta)
    am1 = alpha * ((n - 1) ** 2 + (n - 1) / 2 - beta)
    a0 = (1 + a2 / 2) * (beta - n * n) - m * m * a2
    ap1 = alpha * ((n + 1) ** 2 - (n + 1) / 2 - beta)
    ap2 = -(a2 / 4) * ((n + 2) * (n + 1) - beta)
    return am2, am1, a0, ap1, ap2


def _march_three(alpha: float, beta: float, parity: Parity, order: int,
                 seed: float) -> tuple[list[float], float]:
    """March the m = 0 recursion in d storage up to d_order."""
    d = [0.0] * (order + 1)
    log_scale = 0.0
    if parity == "even":
        d[0] = seed
        if order >= 1:
            # n = 0 row forces d_1 = d_0/alpha for beta != 0; the beta = 0 row
            # is identically zero and the constant eigenmode has d_1 = 0.
            d[1] = 0.0 if beta == 0.0 else seed / alpha
    else:
        if order >= 1:
            d[1] = seed
    for n in range(1, order):
        tm, t0, tp = _d_row_three(n, alpha, beta)
        if abs(tp) < _POLE_EPS:
            raise _PoleHit(n)
        d[n + 1] = -(t0 * d[n] + tm * d[n - 1]) / tp
        if abs(d[n + 1]) > RESCALE_THRESHOLD:
            peak = max(abs(x) for x in d[: n + 2])
            for k in range(n + 2):
                d[k] /= peak
            log_scale += math.log(peak)
    return d, log_scale


def _march_five(alpha: float, m: int, beta: float, parity: Parity, order: int,
                seeds: tuple[float, float]) -> tuple[list[float], float]:
    """March the general-m recursion in d storage up to d_order.

    Even sector seeds (d_0, d_1); the n = 0 row fixes d_2 and the
    parity-folded n = 1 row fixes d_3.  Odd sector seeds (d_1, d_2) with
    d_0 = 0; its n = 0 row is identically zero.
    """
    d = [0.0] * (order + 1)
    log_scale = 0.0
    a2 = alpha * alpha
    if parity == "even":
        d[0], d[1] = seeds
        if order >= 2:
            den = -(a2 / 2) * (2.0 - beta)
            if abs(den) < _POLE_EPS:
                raise _PoleHit(0)
            d[2] = -(((1 + a2 / 2) * beta - m * m * a2) * d[0]
                     + alpha * (1 - 2 * beta) * d[1]) / den
        if order >= 3:
            am2, am1, a0, ap1, ap2 = _d_row_five(1, alpha, m, beta)
            if abs(ap2) < _POLE_EPS:
                raise _PoleHit(1)
            d[3] = -((am2 + a0) * d[1] + am1 * d[0] + ap1 * d[2]) / ap2
    else:
        if order >= 1:
            d[1] = seeds[0]
        if order >= 2:
            d[2] = seeds[1]
        if order >= 3:
            am2, am1, a0, ap1, ap2 = _d_row_five(1, alpha, m, beta)
            if abs(ap2) < _POLE_EPS:
                raise _PoleHit(1)
            d[3] = -((a0 - am2) * d[1] + ap1 * d[2]) / ap2
    for n in range(2, order - 1):
        am2, am1, a0, ap1, ap2 = _d_row_five(n, alpha, m, beta)
        if abs(ap2) < _POLE_EPS:
            raise _PoleHit(n)
        d[n + 2] = -(am2 * d[n - 2] + am1 * d[n - 1] + a0 * d[n] + ap1 * d[n + 1]) / ap2
        if abs(d[n + 2]) > RESCALE_THRESHOLD:
            peak = max(abs(x) for x in d[: n + 3])
            for k in range(n + 3):
                d[k] /= peak
            log_scale += math.log(peak)
    return d, log_scale


def nudge_off_pole(beta: float, attempt: int = 0) -> float:
    """Shift beta off a marching pole beta = k(k+1) by a negligible amount."""
    return beta + (1.0 + abs(beta)) * 1e-12 * (1024.0 ** attempt)


def _march_safe(march, beta: float, *args):
    b = beta
    for attempt in range(4):
        try:
            return march(b, *args)
        except _PoleHit:
            b = nudge_off_pole(beta, attempt)
    raise ArithmeticError(f"marching failed near beta = {beta}")


def march_three_safe(alpha: float, beta: float, parity: Parity, order: int,
                     seed: float = 1.0) -> tuple[list[float], float]:
    return _march_safe(lambda b: _march_three(alpha, b, parity, order, seed), beta)


def march_five_safe(alpha: float, m: int, beta: float, parity: Parity, order: int,
                    seeds: tuple[float, float]) -> tuple[list[float], float]:
    return _march_safe(lambda b: _march_five(alpha, m, b, parity, order, seeds), beta)


def propagate(seeds: float | tuple[float, ...], mode: ModeSpec, alpha: float,
              beta: float, order: int) -> CoefficientSeries:
    """Fill a CoefficientSeries from its free low-order seeds.

    m = 0 takes a single seed (d_0 even / d_1 odd) and marches the three-term
    rows, so all rows with center |n| <= order-1 hold exactly.  m != 0 takes
    two seeds ((d_0, d_1) even / (d_1, d_2) odd) and marches the five-term
    rows, satisfying centers |n| <= order-2.  Negative-n entries follow from
    parity.  If beta lands on a marching pole k(k+1) the propagation is
    retried at a nudged beta; magnitudes beyond 1e100 trigger a rescale
    recorded in log_scale.
    """
    _check_alpha(alpha)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if isinstance(seeds, (int, float)):
        seeds = (float(seeds),)
    if mode.m == 0:
        if len(seeds) != 1:
            raise ValueError(f"m=0 {mode.parity} takes one seed, got {len(seeds)}")
        d, log_scale = march_three_safe(alpha, beta, mode.parity, order, seeds[0])
    else:
        if len(seeds) != 2:
            raise ValueError(f"m={mode.m} {mode.parity} takes two seeds, got {len(seeds)}")
        d, log_scale = march_five_safe(alpha, mode.m, beta, mode.parity, order,
                                       (seeds[0], seeds[1]))
    return CoefficientSeries(order=order, m=mode.m, parity=mode.parity,
                             d=tuple(d), log_scale=log_scale)


def reconstruct(series: CoefficientSeries, thetas: np.ndarray,
                derivatives: int = 0) -> np.ndarray:
    """Evaluate psi (and optionally theta-derivatives) on a grid.

    Returns an array of shape (derivatives+1, len(thetas)): rows are psi,
    psi', psi''...  Exact term-by-term differentiation of the trigonometric
    sum; summation order is fixed (ascending harmonic) for determinism.
    """
    thetas = np.asarray(thetas, dtype=float)
    u = thetas + math.pi / 2.0
    out = np.zeros((derivatives + 1, thetas.size))
    if series.parity == "even":
        out[0] += series.d[0]
        for k in range(1, series.order + 1):
            cku, sku = np.cos(k * u), np.sin(k * u)
            term = 2.0 * series.d[k]
            out[0] += term * cku
            if derivatives >= 1:
                out[1] += -k * term * sku
            if derivatives >= 2:
                out[2] += -k * k * term * cku
    else:
        for k in range(1, series.order + 1):
            cku, sku = np.cos(k * u), np.sin(k * u)
            term = 2.0 * series.d[k]
            out[0] += term * sku
            if derivatives >= 1:
                out[1] += k * term * cku
            if derivatives >= 2:
                out[2] += -k * k * term * sku
    return out


def residual(series: CoefficientSeries, alpha: float, mode: ModeSpec,
             beta: float, grid_size: int = 256) -> float:
    """Max absolute value of the separated equation over a uniform theta grid.

    Uses exact differentiation of the truncated series, so the residual
    measures truncation and eigenvalue error only, not differencing error.
    Evaluated in the series' stored scale (see CoefficientSeries.log_scale);
    divide by the reconstructed max |psi| for a scale-free figure.
    """
    _check_alpha(alpha)
    if mode.m != series.m or mode.parity != series.parity:
        raise ValueError("mode does not match the series")
    if grid_size < 4 * series.order:
        raise ValueError(f"grid_size must be >= 4*order = {4 * series.order}")
    th = np.arange(grid_size) * (2.0 * math.pi / grid_size)
    psi, dpsi, d2psi = reconstruct(series, th, derivatives=2)
    w = 1.0 + alpha * np.sin(th)
    lhs = (d2psi + alpha * np.cos(th) / w * dpsi
           - mode.m**2 * alpha**2 / w**2 * psi + beta * psi)
    return float(np.max(np.abs(lhs)))

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
even and odd sectors.  All arithmetic is real.  The package's one storage
rule: a series of parity p (0 even, 1 odd) stores d_n = c_n / i^(n - p),
n = 0..order, which turns the parity relations into d_{-n} = +/- d_n and
makes every row multiplier real.  One real stencil encodes the recursion:
row n of ``_d_row_three`` applied to d is (2/alpha) times the n-th
coefficient of w E[psi], and row n of ``_d_row_five`` the n-th coefficient
of w^2 E[psi], each divided by the same power of i as d_n.  The tests verify
this by projection, against an FFT of the equation evaluated on a grid.

A march solves each row for its top coefficient, dividing by the row's
leading multiplier.  That vanishes on the poles beta = k(k+1), which the
march steps off once (``_off_pole``), and each new coefficient past
RESCALE_THRESHOLD rescales its column (``_rescale``).

Since psi is real, c_{-k} = conj(c_k): psi = a_0 + sum_k a_k cos(k theta)
+ b_k sin(k theta) with a_0 = d_0, a_k = 2 Re c_k and b_k = -2 Im c_k
(``_trig_coefficients``), and ``_trig_sum`` evaluates that sum.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Literal

import numpy as np

Parity = Literal["even", "odd"]

RESCALE_THRESHOLD = 1e100
_TABLE_SIZE = 1 << 14

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
        # any integer type (numpy's too) is stored as int, so JSON sees an int
        try:
            m = operator.index(self.m)
        except TypeError:
            m = -1      # not an integer: rejected like a negative one
        if m < 0:
            raise ValueError(f"m must be a nonnegative integer, got {self.m}")
        object.__setattr__(self, "m", int(m))
        _check_parity(self.parity)


@dataclass(frozen=True)
class CoefficientSeries:
    """Two-sided Fourier series in phase-reduced real storage.

    ``d[k]`` holds d_k for k = 0..order by the storage rule of the module
    docstring; the negative side follows from parity, d_{-k} = d_k (even)
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


def _poles(parity: Parity, top: int) -> list[int]:
    """Marching poles k(k+1), k = 1 (even) or 2 (odd) up to top: the betas
    where a five-term march to top + 1 divides by zero."""
    return [k * (k + 1) for k in range(1 if parity == "even" else 2, top + 1)]


def _off_pole(beta: float, first: int, last: int) -> float:
    """beta, moved up by (1 + beta) 1e-12 if it is one of a march's poles
    k(k+1), first <= k <= last, where one of its rows divides by zero.

    Off the exact poles no divisor vanishes, since k(k+1) - beta is nonzero
    in floating point, until alpha^2 times it underflows (alpha ~ 1e-154).
    Rejects a non-finite beta.
    """
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    k = math.isqrt(int(beta)) if beta > 0.0 else 0
    if first <= k <= last and beta == k * (k + 1):
        return beta + (1.0 + beta) * 1e-12
    return beta


def _rescale(d: list[float], top: int, alpha: float, beta: float) -> float:
    """Divide d_0..d_top by their peak and return its log: the march's one
    overflow guard, applied to a row's new d_top past RESCALE_THRESHOLD.

    Below alpha of about 1e-29 the values stay finite but not accurate, as
    both seed columns collapse onto the dominant solution.  A peak that is
    not finite (d_top overflowed, or is NaN) raises ``ArithmeticError``.
    """
    peak = max(abs(x) for x in d[top::-1])  # d_top first: a NaN there is the peak
    if not math.isfinite(peak):
        raise ArithmeticError(f"march overflowed at d_{top} (alpha {alpha}, beta {beta})")
    for k in range(top + 1):
        d[k] /= peak
    return math.log(peak)


def march_three_safe(alpha: float, beta: float, parity: Parity, order: int,
                     seed: float = 1.0) -> tuple[list[float], float]:
    """March the m = 0 recursion in d storage up to d_order: (d, log_scale)."""
    beta = _off_pole(beta, 1, order - 1)
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
        d[n + 1] = -(t0 * d[n] + tm * d[n - 1]) / tp
        if not abs(d[n + 1]) <= RESCALE_THRESHOLD:
            log_scale += _rescale(d, n + 1, alpha, beta)
    return d, log_scale


def _march_five(alpha: float, m: int, beta: float, parity: Parity, order: int,
                seeds) -> list[tuple[list[float], float]]:
    """March the general-m recursion in d storage up to d_order, jointly for
    every seed pair in ``seeds``: one (d, log_scale) per pair, in order.

    Each row comes from one ``_d_row_five`` call and is applied to every
    column; each column rescales on its own.  A column seeds d_floor and
    d_floor+1 (floor 0 even, 1 odd, where d_0 = 0 and the n = 0 row is
    identically zero).  Rows 0 and 1 reach below d_0: inside the one row
    loop, their d_-2 and d_-1 multipliers fold onto d_2 and d_1 by parity,
    d_-k = +/- d_k, and each row then fixes d_{n+2} as every later row does.
    Below alpha of about 3.5e-162, alpha^2/4 underflows to 0, and with it
    every row's divisor: that raises ``ArithmeticError``, naming alpha.
    """
    if alpha * alpha / 4 == 0.0:
        raise ArithmeticError(f"alpha {alpha} is too small for the five-term rows: "
                              "alpha^2/4 underflows to 0")
    floor = 0 if parity == "even" else 1
    sign = 1.0 - 2 * floor
    beta = _off_pole(beta, floor + 1, order - 1)
    cols = [[0.0] * (order + 1) for _ in seeds]
    for d, s in zip(cols, seeds):
        d[floor:floor + 2] = s[:order + 1 - floor]
    scales = [0.0] * len(cols)
    for n in range(floor, order - 1):
        am2, am1, a0, ap1, ap2 = _d_row_five(n, alpha, m, beta)
        if n < 2:  # fold, then zero the multipliers: d[n - 2] wraps to the list's end
            if n == 0:  # d_-2, d_-1 onto d_2, d_1 (an even row: the odd one is zero)
                ap1, ap2, am1 = ap1 + am1, ap2 + am2, 0.0
            else:  # d_-1 onto d_1
                a0 += sign * am2
            am2 = 0.0
        for j, d in enumerate(cols):
            d[n + 2] = -(am2 * d[n - 2] + am1 * d[n - 1] + a0 * d[n] + ap1 * d[n + 1]) / ap2
            if not abs(d[n + 2]) <= RESCALE_THRESHOLD:
                scales[j] += _rescale(d, n + 2, alpha, beta)
    return list(zip(cols, scales))


def march_five_safe(alpha: float, m: int, beta: float, parity: Parity, order: int,
                    seeds: tuple[float, float]) -> tuple[list[float], float]:
    return _march_five(alpha, m, beta, parity, order, (seeds,))[0]


def propagate(seeds: float | tuple[float, ...], mode: ModeSpec, alpha: float,
              beta: float, order: int) -> CoefficientSeries:
    """Fill a CoefficientSeries from its free low-order seeds.

    m = 0 takes a single seed (d_0 even / d_1 odd) and marches the three-term
    rows, so all rows with center |n| <= order-1 hold exactly.  m != 0 takes
    two seeds ((d_0, d_1) even / (d_1, d_2) odd) and marches the five-term
    rows, satisfying centers |n| <= order-2.  Negative-n entries follow from
    parity.  A beta on one of the march's poles k(k+1) is moved off it
    first (``_off_pole``); a non-finite beta raises ``ValueError``.
    Magnitudes beyond 1e100 trigger a rescale recorded in log_scale.
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


def _trig_coefficients(series: CoefficientSeries) -> tuple[np.ndarray, np.ndarray]:
    """(a_k, b_k) of a series by the storage rule, without its exp(log_scale)."""
    k = np.arange(series.order + 1)
    r = (k - (series.parity == "odd")) % 4  # c_k = i^r d_k
    c = np.array(series.d) * np.where(k == 0, 1.0, 2.0) * np.where(r < 2, 1.0, -1.0)
    return np.where(r % 2 == 0, c, 0.0), np.where(r % 2 == 1, -c, 0.0)


def _trig_sum(a: np.ndarray, b: np.ndarray, thetas, derivatives: int = 0) -> np.ndarray:
    """Rows sum_k a_k cos(k theta) + b_k sin(k theta) and its theta-derivatives.

    Elementwise products on a theta x harmonic cos/sin table of at most about
    _TABLE_SIZE entries per block, summed along the harmonic axis: memory
    stays flat at high order, and no BLAS call makes the result depend on
    the BLAS thread count.  Returns shape (derivatives+1,) + shape(thetas).
    """
    th = np.asarray(thetas, dtype=float)
    flat = th.reshape(-1)
    k = np.arange(len(a))
    out = np.empty((derivatives + 1, flat.size))
    step = max(1, _TABLE_SIZE // len(a))
    for start in range(0, flat.size, step):
        kt = np.multiply.outer(flat[start:start + step], k)
        cos, sin = np.cos(kt), np.sin(kt)
        ca, cb = a, b
        for j in range(derivatives + 1):
            out[j, start:start + step] = np.sum(ca * cos + cb * sin, axis=-1)
            ca, cb = k * cb, -k * ca
    return out.reshape((derivatives + 1,) + th.shape)


def reconstruct(series: CoefficientSeries, thetas: np.ndarray,
                derivatives: int = 0) -> np.ndarray:
    """Evaluate psi (and optionally theta-derivatives) on a grid.

    Returns an array of shape (derivatives+1, len(thetas)): rows are psi,
    psi', psi''...  Exact term-by-term differentiation of the trigonometric
    sum in the stored scale (see CoefficientSeries.log_scale); no BLAS call,
    so the result does not depend on the BLAS thread count.
    """
    return _trig_sum(*_trig_coefficients(series), np.ravel(thetas), derivatives)


def _residual_grid(order: int) -> np.ndarray:
    """The grid of ``residual``: max(256, 4 order) uniform points on [0, 2 pi)."""
    n = max(256, 4 * order)
    return np.arange(n) * (2.0 * math.pi / n)


def residual(series: CoefficientSeries, alpha: float, mode: ModeSpec,
             beta: float) -> float:
    """Max absolute value of the separated equation over ``_residual_grid``.

    Uses exact differentiation of the truncated series, so the residual
    measures truncation and eigenvalue error only, not differencing error.
    Evaluated in the series' stored scale (see CoefficientSeries.log_scale);
    divide by the reconstructed max |psi| for a scale-free figure.
    """
    return _residual_and_peak(series, alpha, mode, beta)[0]


def _residual_and_peak(series: CoefficientSeries, alpha: float, mode: ModeSpec,
                       beta: float) -> tuple[float, float]:
    """``residual`` and max |psi| over the same grid, from one reconstruction."""
    _check_alpha(alpha)
    if mode.m != series.m or mode.parity != series.parity:
        raise ValueError("mode does not match the series")
    th = _residual_grid(series.order)
    psi, dpsi, d2psi = reconstruct(series, th, derivatives=2)
    w = 1.0 + alpha * np.sin(th)
    lhs = (d2psi + alpha * np.cos(th) / w * dpsi
           - mode.m**2 * alpha**2 / w**2 * psi + beta * psi)
    return float(np.max(np.abs(lhs))), float(np.max(np.abs(psi)))

"""Eigenvalue extraction from the coefficient recursions.

Both eigenvalue routes truncate the series, d_N = 0 (and d_{N+1} = 0 where
five terms couple), and solve the square rows floor..N-1 that remain, built
by ``_stencil`` from the real rows of ``recursion`` with negative indices
folded by parity:

* m = 0: the three-term rows are affine in beta, so they form a tridiagonal
  pencil (A + beta B) d = 0 (Hill's method).  Its eigenvalues are the roots
  of the last numerator polynomial from ``coefficient_polynomials``, the
  paper's eq. (14), which ``roots_warm_started`` takes from each
  polynomial's companion matrix (plus the exact beta = 0 of the even
  sector's n = 0 row).

* any m: the five-term rows are singular exactly where the normalized 2x2
  determinant of (d_N, d_{N+1}) for two marched series crosses zero.
  Scanning in beta brackets the crossings and bisection refines them.

Every eigenfunction, in every sector, comes from one rule (``_series``): the
smallest right singular vector of the square stencil continued 8 orders
past N, cut to d_0..d_N and scaled to max |d| = 1.  That is the minimal
solution of the recursion (Gautschi, SIAM Rev. 9 (1967) 24), which forward
marching cannot give, as the dominant solution swamps it.

The marching denominators vanish on beta = k(k+1) (k >= 1 even, k >= 2
odd), where the determinant changes sign without a root.  The scan steps
over each pole, evaluating k(k+1) +/- POLE_GAP and never bracketing that
interval, so every root it finds is a state: none is screened or dropped,
and ``Eigenpair.converged`` says whether it has stopped moving with N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .recursion import (
    CoefficientSeries,
    ModeSpec,
    Parity,
    _check_alpha,
    _d_row_five,
    _d_row_three,
    _residual_and_peak,
    march_five_safe,
)

DEFAULT_SEEDS = ((1.0, 1.0), (1.0, -1.0))
REFINE_TOL = 1e-10
# half-width of the interval the scan steps over at each marching pole
POLE_GAP = 1e-6
# a root has converged once it moves by less than this from order N to N+2
CONVERGED_TOL = 1e-6

__all__ = [
    "BetaPolynomial",
    "Eigenpair",
    "EigenDiagnostics",
    "coefficient_polynomials",
    "roots_warm_started",
    "determinant",
    "determinant_scan",
    "find_eigenvalues",
    "DEFAULT_SEEDS",
    "CONVERGED_TOL",
]


@dataclass(frozen=True)
class BetaPolynomial:
    """Numerator of d_n as a real polynomial in beta (ascending coefficients)."""

    coefficients: tuple[float, ...]
    source_index: int
    parity: Parity

    @property
    def degree(self) -> int:
        k = len(self.coefficients) - 1
        while k > 0 and self.coefficients[k] == 0.0:
            k -= 1
        return k

    def eval(self, beta: float) -> float:
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * beta + c
        return acc


def coefficient_polynomials(alpha: float, parity: Parity, order: int) -> list[BetaPolynomial]:
    """Numerator polynomials of d_1 .. d_order for the m = 0 recursion.

    Denominators are cleared against the product of leading row multipliers
    prod_{k<n} [k(k+1) - beta], so evaluating the n-th polynomial and dividing
    by that product reproduces the marched d_n.  Degree grows by one per
    index: deg(q_n) = n - 1.
    """
    _check_alpha(alpha)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    # rows[n] = (tm, t0, tp) of _d_row_three as polynomials in beta; each is
    # affine, row(b) = row(0) + b (row(1) - row(0))
    rows = [[np.array([a, b - a]) for a, b in
             zip(_d_row_three(n, alpha, 0.0), _d_row_three(n, alpha, 1.0))]
            for n in range(order)]
    if parity == "even":
        q = [np.array([1.0]), np.array([1.0 / alpha])]
    else:
        q = [np.array([0.0]), np.array([1.0])]
    if order >= 2:
        tm, t0, _ = rows[1]
        q.append(-(np.convolve(tm, q[0]) + np.convolve(t0, q[1])))
    for n in range(2, order):
        tm, t0, _ = rows[n]
        lead = rows[n - 1][2]
        q.append(-(np.convolve(np.convolve(tm, lead), q[n - 1]) + np.convolve(t0, q[n])))
    return [
        BetaPolynomial(coefficients=tuple(float(c) for c in q[n]),
                       source_index=n, parity=parity)
        for n in range(1, order + 1)
    ]


def roots_warm_started(polys: Sequence[BetaPolynomial]) -> list[list[float]]:
    """Real roots of each polynomial, from its companion matrix (``np.roots``).

    One ascending list per polynomial, in the order given; a root counts as
    real when its imaginary part is exactly 0.  Entry [j][i] of the lists of
    ``coefficient_polynomials(alpha, parity, N)`` is lambda^{i+1}_{j+1}, the
    paper's eq. (14).
    """
    return [sorted(float(r.real) for r in np.roots(p.coefficients[::-1]) if r.imag == 0.0)
            for p in polys]


def determinant(alpha: float, mode: ModeSpec, beta: float, order: int,
                seeds=DEFAULT_SEEDS) -> float:
    """Normalized tail determinant det[(d_N, d_{N+1}) x (A, B)].

    Dividing by the product of column magnitudes makes the value scale-free
    in (-1, 1): rescaling either seed leaves it unchanged, and its zero set
    is independent of the seed basis.  If either column vanishes, 0.0 is
    returned.
    """
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    (a0, a1), (b0, b1) = seeds
    if a0 * b1 - a1 * b0 == 0.0:
        raise ValueError(f"seed matrix {seeds} is singular")
    da, _ = march_five_safe(alpha, mode.m, beta, mode.parity, order + 1, (a0, a1))
    db, _ = march_five_safe(alpha, mode.m, beta, mode.parity, order + 1, (b0, b1))
    m = np.array([[da[order], db[order]], [da[order + 1], db[order + 1]]])
    na = math.hypot(m[0, 0], m[1, 0])
    nb = math.hypot(m[0, 1], m[1, 1])
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float((m[0, 0] * m[1, 1] - m[1, 0] * m[0, 1]) / (na * nb))


@dataclass(frozen=True)
class EigenDiagnostics:
    residual: float
    residual_rel: float
    beta_by_order: dict[int, float] = field(hash=False)
    convergence_estimate: float | None


@dataclass(frozen=True)
class Eigenpair:
    beta: float
    mode: ModeSpec
    series: CoefficientSeries
    trivial: bool
    diagnostics: EigenDiagnostics

    @property
    def converged(self) -> bool:
        """The trivial state, or an N versus N+2 estimate below CONVERGED_TOL."""
        est = self.diagnostics.convergence_estimate
        return self.trivial or (est is not None and est < CONVERGED_TOL)


def _eigenpair(alpha: float, mode: ModeSpec, series: CoefficientSeries,
               beta: float, beta_n2: float | None, trivial: bool = False) -> Eigenpair:
    """The state at ``beta`` with its residual and its N versus N+2 estimate
    (None where the order N+2 solve found no root)."""
    res, psi_max = _residual_and_peak(series, alpha, mode, beta)
    beta_by_order = {series.order: beta}
    estimate = None
    if beta_n2 is not None:
        beta_by_order[series.order + 2] = beta_n2
        estimate = abs(beta - beta_n2) * (1.0 + 1e-9) + 1e-14
    diag = EigenDiagnostics(res, res / psi_max if psi_max > 0 else math.inf,
                            beta_by_order, estimate)
    return Eigenpair(beta, mode, series, trivial, diag)


def _bisect_determinant(alpha: float, mode: ModeSpec, order: int, lo: float,
                        hi: float, flo: float, fhi: float) -> float | None:
    """Refine a root of ``determinant`` in [lo, hi], given its values there."""
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        return None
    while hi - lo > REFINE_TOL:
        mid = 0.5 * (lo + hi)
        fm = determinant(alpha, mode, mid, order)
        if fm == 0.0:
            return mid
        if math.copysign(1.0, fm) == math.copysign(1.0, flo):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _trivial_eigenpair(alpha: float, order: int) -> Eigenpair:
    d = (1.0,) + (0.0,) * order
    series = CoefficientSeries(order=order, m=0, parity="even", d=d)
    return _eigenpair(alpha, ModeSpec(0, "even"), series, 0.0, 0.0, trivial=True)


def _stencil(row, parity: Parity, columns: int) -> np.ndarray:
    """Square rows floor..columns-1 of a recursion over d_floor..d_{columns-1}.

    floor is 0 (even) or 1 (odd, where d_0 = 0).  ``row(n)`` returns the
    coefficients of d_{n-h}..d_{n+h}; a negative index folds onto its
    mirror by parity, d_{-k} = +/- d_k, and a column at or past ``columns``
    is dropped, as the truncation sets it to zero.
    """
    floor = 0 if parity == "even" else 1
    sign = 1.0 if parity == "even" else -1.0
    s = np.zeros((columns - floor, columns - floor))
    for i, n in enumerate(range(floor, columns)):
        coeffs = row(n)
        h = len(coeffs) // 2
        for j, c in enumerate(coeffs):
            k = n + j - h
            if k < 0:
                k, c = -k, sign * c
            if floor <= k < columns:
                s[i, k - floor] += c
    return s


def _m0_pencil_eigvals(alpha: float, parity: Parity, order: int) -> np.ndarray:
    """Eigenvalues of the pencil A + beta B from rows floor..order-1, d_order = 0."""
    a = _stencil(lambda n: _d_row_three(n, alpha, 0.0), parity, order)
    b = _stencil(lambda n: _d_row_three(n, alpha, 1.0), parity, order) - a
    return np.linalg.eigvals(np.linalg.solve(b, -a))


def _series(alpha: float, mode: ModeSpec, beta: float, order: int) -> CoefficientSeries:
    """Eigenfunction coefficients at a root, for any sector.

    The smallest right singular vector of the square stencil continued 8
    orders past the truncation (rows floor..order+7 over d_floor..d_{order+7};
    three-term rows at m = 0, five-term otherwise), cut to d_0..d_order and
    scaled to max |d| = 1 with d_floor >= 0.
    """
    if mode.m == 0:
        s = _stencil(lambda n: _d_row_three(n, alpha, beta), mode.parity, order + 8)
    else:
        s = _stencil(lambda n: _d_row_five(n, alpha, mode.m, beta), mode.parity, order + 8)
    floor = 0 if mode.parity == "even" else 1
    v = np.linalg.svd(s)[2][-1][: order + 1 - floor]
    v = v / (math.copysign(1.0, v[0]) * np.max(np.abs(v)))
    vals = np.concatenate((np.zeros(floor), v))
    return CoefficientSeries(order=order, m=mode.m, parity=mode.parity,
                             d=tuple(float(x) for x in vals), log_scale=0.0)


def _poles(parity: Parity, top: int) -> list[int]:
    """Marching poles k(k+1), k = 1 (even) or 2 (odd) up to top."""
    return [k * (k + 1) for k in range(1 if parity == "even" else 2, top + 1)]


def _find_m0(alpha: float, mode: ModeSpec, order: int,
             beta_max: float) -> list[Eigenpair]:
    roots = np.sort(_m0_pencil_eigvals(alpha, mode.parity, order))
    if mode.parity == "even":
        # the n = 0 row carries an overall factor beta: its root is the
        # constant mode, which is added exactly
        roots = np.delete(roots, np.argmin(np.abs(roots)))
    roots_n2 = _m0_pencil_eigvals(alpha, mode.parity, order + 2)
    roots_n2 = roots_n2[roots_n2.imag == 0.0].real
    pairs = [_trivial_eigenpair(alpha, order)] if mode.parity == "even" else []
    for root in roots:
        beta = float(root.real)
        if beta < 0.0 or beta > beta_max:
            continue
        if root.imag != 0.0:
            raise ArithmeticError(
                f"non-real pencil root {complex(root):.9g} in m=0 {mode.parity} "
                f"at order {order}")
        b2 = float(roots_n2[np.argmin(np.abs(roots_n2 - beta))])
        pairs.append(_eigenpair(alpha, mode, _series(alpha, mode, beta, order), beta, b2))
    return pairs


def determinant_scan(alpha: float, mode: ModeSpec, order: int, beta_max: float,
                     scan_step: float = 0.02) -> tuple[list[Eigenpair], list[Eigenpair]]:
    """Bracket and refine every zero crossing of the normalized determinant.

    Works for any m (the m = 0 sectors also close under the five-term rows),
    which is how truncation columns of the reference eigenvalue tables are
    recomputed.  The grid runs from beta = 0 in steps of scan_step and steps
    over every marching pole k(k+1) of orders N and N+2: it evaluates
    k(k+1) +/- POLE_GAP and never brackets that interval, and the N+2 search
    window is clipped at the same poles.  Every root found is accepted, with
    its eigenfunction from ``_series``, and ``converged`` says whether it
    has converged.  Returns (accepted, []): nothing is rejected.
    """
    poles = _poles(mode.parity, order + 2)
    steps = [scan_step * k for k in range(int(math.floor(beta_max / scan_step)) + 1)]
    grid = sorted([b for b in steps if all(abs(b - p) > POLE_GAP for p in poles)]
                  + [b for p in poles for b in (p - POLE_GAP, p + POLE_GAP)
                     if b <= beta_max])
    vals = [determinant(alpha, mode, b, order) for b in grid]
    accepted: list[Eigenpair] = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0 or not (math.isfinite(vals[i]) and math.isfinite(vals[i + 1])):
            continue
        if math.copysign(1.0, vals[i]) == math.copysign(1.0, vals[i + 1]):
            continue
        if any(grid[i] < p < grid[i + 1] for p in poles):
            continue  # a sign change across a pole, not a root
        beta = _bisect_determinant(alpha, mode, order, grid[i], grid[i + 1],
                                   vals[i], vals[i + 1])
        if beta is None:
            continue
        lo2 = max([0.0, beta - 2 * scan_step] + [p + POLE_GAP for p in poles if p < beta])
        hi2 = min([beta + 2 * scan_step] + [p - POLE_GAP for p in poles if p > beta])
        b2 = _bisect_determinant(alpha, mode, order + 2, lo2, hi2,
                                 determinant(alpha, mode, lo2, order + 2),
                                 determinant(alpha, mode, hi2, order + 2))
        accepted.append(_eigenpair(alpha, mode, _series(alpha, mode, beta, order),
                                   beta, b2))
    return accepted, []


def find_eigenvalues(alpha: float, mode: ModeSpec, order: int = 10,
                     beta_max: float = 25.0) -> list[Eigenpair]:
    """All eigenvalues of one (m, parity) sector up to beta_max.

    m = 0 solves the truncated tridiagonal pencil of its three-term rows
    (one free seed, so tail-vanishing is a root condition on one
    polynomial, the pencil's characteristic polynomial); m != 0 scans the
    normalized determinant in steps of 0.02, stepping over its marching
    poles, and bisects each sign change to 1e-10.  Every eigenfunction is
    the smallest right singular vector of the sector's stencil continued 8
    orders past the truncation, cut to d_0..d_order and scaled to
    max |d| = 1 with d_floor >= 0.  Results are sorted ascending.  The
    exact constant mode at beta = 0 (m = 0, even) is included flagged
    ``trivial``.  No root is dropped: ``Eigenpair.converged`` is the
    verdict, from the order N versus N+2 estimate in
    ``diagnostics.convergence_estimate``.
    A non-real m = 0 pencil root in [0, beta_max] raises ``ArithmeticError``.
    """
    _check_alpha(alpha)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if beta_max <= 0:
        raise ValueError(f"beta_max must be positive, got {beta_max}")
    if mode.m == 0:
        return _find_m0(alpha, mode, order, beta_max)
    return determinant_scan(alpha, mode, order, beta_max)[0]

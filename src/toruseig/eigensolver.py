"""Eigenvalue extraction from the coefficient recursions.

Two routes, matching how the truncated series can be forced to terminate:

* m = 0: the three-term rows are affine in beta, so the truncation d_N = 0
  turns rows 0..N-1 into a tridiagonal pencil (A + beta B) d = 0 (Hill's
  method).  Its eigenvalues are the roots of the last numerator polynomial
  from ``coefficient_polynomials`` (plus the exact beta = 0 of the even
  sector's n = 0 row); the same stencil, extended past the truncation,
  gives each eigenfunction as a null vector.

* any m: two free seeds give two independent series A and B.  A valid
  eigenfunction needs some combination with a vanishing tail, which happens
  exactly where the normalized 2x2 determinant of (d_N, d_{N+1}) for the two
  series crosses zero.  Scanning in beta brackets the crossings; bisection
  refines them; the null vector recovers the mixing (A, B).

The marching denominators vanish on beta = k(k+1), k >= 1.  A crossing of
the normalized determinant at such a pole is an artifact of the truncation,
not an eigenvalue; candidates are screened by the equation residual of the
assembled eigenfunction, which separates genuine states (residual ~ 1e-3 or
better at order 10) from pole artifacts (residual ~ 1e+2) by several orders
of magnitude.
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
    _d_row_three,
    march_five_safe,
    reconstruct,
    residual,
)

DEFAULT_SEEDS = ((1.0, 1.0), (1.0, -1.0))
REFINE_TOL = 1e-10
DUPLICATE_TOL = 1e-9
# residual ceiling near a marching pole vs. the absolute runaway ceiling;
# genuine roots stay below ~11 even at order 2, pole artifacts at k(k+1)
# bisect to the pole within 1e-10 and carry residuals upward of 15
SPURIOUS_RESIDUAL_REL = 0.5
RUNAWAY_RESIDUAL_REL = 1e3
POLE_TOL = 1e-6

__all__ = [
    "BetaPolynomial",
    "Eigenpair",
    "EigenDiagnostics",
    "WarmRoot",
    "WarmStartResult",
    "coefficient_polynomials",
    "roots_warm_started",
    "determinant",
    "determinant_scan",
    "find_eigenvalues",
    "DEFAULT_SEEDS",
]


def _pole_distance(beta: float) -> float:
    """Distance to the nearest marching pole k(k+1), k >= 1."""
    best = math.inf
    k = 1
    while k * (k + 1) <= beta + 3.0:
        best = min(best, abs(beta - k * (k + 1)))
        k += 1
    return best


def _is_spurious(beta: float, residual_rel: float) -> bool:
    if residual_rel > RUNAWAY_RESIDUAL_REL:
        return True
    return _pole_distance(beta) < POLE_TOL and residual_rel > SPURIOUS_RESIDUAL_REL


@dataclass(frozen=True)
class BetaPolynomial:
    """Numerator of d_n as a real polynomial in beta (ascending coefficients)."""

    coefficients: tuple[float, ...]
    source_index: int
    parity: Parity
    m: int = 0

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

    def deriv_eval(self, beta: float) -> float:
        acc = 0.0
        for k in range(len(self.coefficients) - 1, 0, -1):
            acc = acc * beta + k * self.coefficients[k]
        return acc


def coefficient_polynomials(alpha: float, parity: Parity, order: int) -> list[BetaPolynomial]:
    """Numerator polynomials of d_1 .. d_order for the m = 0 recursion.

    Denominators are cleared against the product of leading row multipliers
    prod_{k<n} [k(k+1) - beta], so evaluating the n-th polynomial and dividing
    by that product reproduces the marched d_n.  Degree grows by one per
    index: deg(q_n) = n - 1.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
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


@dataclass(frozen=True)
class WarmRoot:
    beta: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class WarmStartResult:
    """Roots per polynomial order plus the trajectory each root traces."""

    orders: tuple[int, ...]
    roots_per_order: tuple[tuple[WarmRoot, ...], ...]
    # trajectories[i][j] is root i's value at orders[j], None before it appears
    trajectories: tuple[tuple[float | None, ...], ...]

    def final_roots(self, converged_only: bool = True) -> list[float]:
        if not self.roots_per_order:
            return []
        last = self.roots_per_order[-1]
        return [r.beta for r in last if r.converged or not converged_only]


def _newton(poly: BetaPolynomial, x0: float, max_iter: int = 60) -> tuple[float, bool, int]:
    x = x0
    for it in range(1, max_iter + 1):
        f = poly.eval(x)
        df = poly.deriv_eval(x)
        if df == 0.0:
            return x, False, it
        step = f / df
        x -= step
        if abs(step) <= 1e-13 * max(1.0, abs(x)):
            return x, True, it
    return x, False, max_iter


def _bisect_poly(poly: BetaPolynomial, lo: float, hi: float) -> float | None:
    flo, fhi = poly.eval(lo), poly.eval(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = poly.eval(mid)
        if fm == 0.0 or hi - lo < 1e-14 * max(1.0, abs(mid)):
            return mid
        if math.copysign(1.0, fm) == math.copysign(1.0, flo):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def roots_warm_started(polys: Sequence[BetaPolynomial]) -> WarmStartResult:
    """Track real nonnegative roots across orders by warm-started refinement.

    Each order refines the previous order's roots by Newton iteration (with a
    bisection fallback around the seed) and hunts one new root near the
    square of the previous index, where fresh roots of this family appear.
    Failures are flagged, never dropped; duplicates merge at 1e-9; every root
    list is sorted ascending.
    """
    polys = sorted(polys, key=lambda p: p.source_index)
    orders: list[int] = []
    per_order: list[tuple[WarmRoot, ...]] = []
    trajectories: list[list[float | None]] = []

    current: list[WarmRoot] = []
    track_of_root: list[int] = []  # index into trajectories, parallel to current
    for poly in polys:
        orders.append(poly.source_index)
        if poly.degree < 1:
            # degenerate guard: constant polynomial carries no roots
            per_order.append(tuple())
            for tr in trajectories:
                tr.append(None)
            continue
        refined: list[WarmRoot] = []
        refined_track: list[int] = []
        for root, track in zip(current, track_of_root):
            x, ok, its = _newton(poly, root.beta)
            if not ok or x < -1e-9:
                b = _bisect_poly(poly, max(0.0, root.beta - 1.0), root.beta + 1.0)
                if b is not None:
                    x, ok, its = b, True, its
            refined.append(WarmRoot(beta=x, converged=ok, iterations=its))
            refined_track.append(track)
        # one new root enters near (source_index - 1)^2
        seed = float((poly.source_index - 1) ** 2)
        x, ok, its = _newton(poly, seed)
        if not ok or x < -1e-9:
            b = _bisect_poly(poly, max(0.0, 0.5 * seed), 1.5 * seed + 2.0)
            if b is not None:
                x, ok, its = b, True, its
        is_new = all(abs(x - r.beta) > DUPLICATE_TOL for r in refined)
        if is_new:
            refined.append(WarmRoot(beta=x, converged=ok, iterations=its))
            trajectories.append([None] * (len(orders) - 1))
            refined_track.append(len(trajectories) - 1)
        # merge duplicates, sort ascending
        paired = sorted(zip(refined, refined_track), key=lambda rt: rt[0].beta)
        merged: list[WarmRoot] = []
        merged_track: list[int] = []
        for root, track in paired:
            if merged and abs(root.beta - merged[-1].beta) <= DUPLICATE_TOL:
                continue
            merged.append(root)
            merged_track.append(track)
        per_order.append(tuple(merged))
        seen = set()
        for root, track in zip(merged, merged_track):
            trajectories[track].append(root.beta)
            seen.add(track)
        for i, tr in enumerate(trajectories):
            if i not in seen and len(tr) < len(orders):
                tr.append(None)
        current, track_of_root = merged, merged_track

    return WarmStartResult(
        orders=tuple(orders),
        roots_per_order=tuple(per_order),
        trajectories=tuple(tuple(tr) for tr in trajectories),
    )


def _tail_matrix(alpha: float, mode: ModeSpec, beta: float, order: int, seeds):
    (sa, sb) = seeds
    da, la = march_five_safe(alpha, mode.m, beta, mode.parity, order + 1, tuple(sa))
    db, lb = march_five_safe(alpha, mode.m, beta, mode.parity, order + 1, tuple(sb))
    m = np.array([[da[order], db[order]], [da[order + 1], db[order + 1]]])
    return m, (da, la), (db, lb)


def determinant(alpha: float, mode: ModeSpec, beta: float, order: int,
                seeds=DEFAULT_SEEDS) -> float:
    """Normalized tail determinant det[(d_N, d_{N+1}) x (A, B)].

    Dividing by the product of column magnitudes makes the value scale-free
    in (-1, 1): rescaling either seed leaves it unchanged, and its zero set
    is independent of the seed basis.  Both columns vanishing signals a
    spurious beta; 0.0 is returned and the residual screen downstream
    rejects the candidate.
    """
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    (a0, a1), (b0, b1) = seeds
    if a0 * b1 - a1 * b0 == 0.0:
        raise ValueError(f"seed matrix {seeds} is singular")
    m, _, _ = _tail_matrix(alpha, mode, beta, order, seeds)
    na = math.hypot(m[0, 0], m[1, 0])
    nb = math.hypot(m[0, 1], m[1, 1])
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float((m[0, 0] * m[1, 1] - m[1, 0] * m[0, 1]) / (na * nb))


def _null_mixing(m: np.ndarray) -> tuple[float, float]:
    """Null vector of a near-singular 2x2, from its larger row."""
    p, q = float(m[0, 0]), float(m[0, 1])
    r, s = float(m[1, 0]), float(m[1, 1])
    if p * p + q * q >= r * r + s * s:
        v = (-q, p)
    else:
        v = (-s, r)
    n = math.hypot(*v)
    if n == 0.0:
        return (1.0, 0.0)
    return (v[0] / n, v[1] / n)


@dataclass(frozen=True)
class EigenDiagnostics:
    order: int
    residual: float
    residual_rel: float
    beta_by_order: dict[int, float] = field(hash=False)
    convergence_estimate: float | None
    spurious: bool


@dataclass(frozen=True)
class Eigenpair:
    beta: float
    mode: ModeSpec
    series: CoefficientSeries
    mixing: tuple[float, float] | None
    trivial: bool
    diagnostics: EigenDiagnostics


def _series_quality(series: CoefficientSeries, alpha: float, mode: ModeSpec,
                    beta: float) -> tuple[float, float]:
    grid = _residual_grid(series.order)
    res = residual(series, alpha, mode, beta, grid_size=grid.size)
    psi_max = float(np.max(np.abs(reconstruct(series, grid)[0])))
    rel = res / psi_max if psi_max > 0 else math.inf
    return res, rel


def _residual_grid(order: int) -> np.ndarray:
    n = max(256, 4 * order)
    return np.arange(n) * (2.0 * math.pi / n)


def _combined_series(alpha: float, mode: ModeSpec, beta: float, order: int,
                     seeds=DEFAULT_SEEDS):
    m, (da, la), (db, lb) = _tail_matrix(alpha, mode, beta, order, seeds)
    na = max(math.hypot(m[0, 0], m[1, 0]), 1e-300)
    nb = max(math.hypot(m[0, 1], m[1, 1]), 1e-300)
    mixing = _null_mixing(m / np.array([na, nb]))
    # undo the per-column normalization and any rescale exponent
    lmax = max(la, lb)
    wa = mixing[0] / na * math.exp(la - lmax)
    wb = mixing[1] / nb * math.exp(lb - lmax)
    d = [wa * x + wb * y for x, y in zip(da[: order + 1], db[: order + 1])]
    peak = max(abs(x) for x in d)
    if peak > 0:
        d = [x / peak for x in d]
    series = CoefficientSeries(order=order, m=mode.m, parity=mode.parity,
                               d=tuple(d), log_scale=0.0)
    return series, (float(mixing[0]), float(mixing[1]))


def _bisect_determinant(alpha: float, mode: ModeSpec, lo: float, hi: float,
                        order: int, seeds=DEFAULT_SEEDS) -> float | None:
    flo = determinant(alpha, mode, lo, order, seeds)
    fhi = determinant(alpha, mode, hi, order, seeds)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        return None
    while hi - lo > REFINE_TOL:
        mid = 0.5 * (lo + hi)
        fm = determinant(alpha, mode, mid, order, seeds)
        if fm == 0.0:
            return mid
        if math.copysign(1.0, fm) == math.copysign(1.0, flo):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _trivial_eigenpair(alpha: float, order: int) -> Eigenpair:
    mode = ModeSpec(0, "even")
    d = (1.0,) + (0.0,) * order
    series = CoefficientSeries(order=order, m=0, parity="even", d=d)
    res, rel = _series_quality(series, alpha, mode, 0.0)
    diag = EigenDiagnostics(order=order, residual=res, residual_rel=rel,
                            beta_by_order={order: 0.0, order + 2: 0.0},
                            convergence_estimate=0.0, spurious=False)
    return Eigenpair(beta=0.0, mode=mode, series=series, mixing=None,
                     trivial=True, diagnostics=diag)


def _m0_stencil(alpha: float, beta: float, parity: Parity, top: int) -> np.ndarray:
    """Three-term rows floor..top over the columns d_floor..d_{top+1}.

    floor is 0 (even) or 1 (odd, where d_0 = 0).  The even n = 0 row folds
    d_{-1} = d_1 into the d_1 column.
    """
    floor = 0 if parity == "even" else 1
    size = top - floor + 1
    s = np.zeros((size, size + 1))
    for i, n in enumerate(range(floor, top + 1)):
        tm, t0, tp = _d_row_three(n, alpha, beta)
        s[i, i] = t0
        s[i, i + 1] += tp
        if i > 0:
            s[i, i - 1] = tm
        elif parity == "even":
            s[i, i + 1] += tm
    return s


def _m0_pencil_eigvals(alpha: float, parity: Parity, order: int) -> np.ndarray:
    """Eigenvalues of the pencil A + beta B from rows floor..order-1, d_order = 0."""
    a = _m0_stencil(alpha, 0.0, parity, order - 1)[:, :-1]
    b = _m0_stencil(alpha, 1.0, parity, order - 1)[:, :-1] - a
    return np.linalg.eigvals(np.linalg.solve(b, -a))


def _m0_series(alpha: float, mode: ModeSpec, beta: float, order: int) -> CoefficientSeries:
    """Eigenfunction coefficients at an m = 0 root.

    Rows floor+1..order+8 with d_{order+9} = 0 and d_{order+8} = 1 form an
    upper-triangular system whose solution is the backward recurrence: the
    wanted minimal solution dominates downward, so it is recovered stably
    (forward marching amplifies rounding by ~2/alpha per step).  It is
    normalized to the low-order seed, as forward marching would be.
    """
    s = _m0_stencil(alpha, beta, mode.parity, order + 8)[1:, :-1]
    d = np.append(np.linalg.solve(s[:, :-1], -s[:, -1]), 1.0)
    head = d[0] if d[0] != 0.0 else d[np.argmax(np.abs(d))]
    floor = 0 if mode.parity == "even" else 1
    vals = np.concatenate((np.zeros(floor), d / head))[: order + 1]
    return CoefficientSeries(order=order, m=0, parity=mode.parity,
                             d=tuple(float(x) for x in vals), log_scale=0.0)


def _find_m0(alpha: float, mode: ModeSpec, order: int,
             beta_max: float) -> tuple[list[Eigenpair], list[Eigenpair]]:
    roots = np.sort(_m0_pencil_eigvals(alpha, mode.parity, order))
    if mode.parity == "even":
        # the n = 0 row carries an overall factor beta: its root is the
        # constant mode, which is added exactly
        roots = np.delete(roots, np.argmin(np.abs(roots)))
    roots_n2 = _m0_pencil_eigvals(alpha, mode.parity, order + 2)
    roots_n2 = roots_n2[roots_n2.imag == 0.0].real
    accepted: list[Eigenpair] = []
    rejected: list[Eigenpair] = []
    if mode.parity == "even":
        accepted.append(_trivial_eigenpair(alpha, order))
    for root in roots:
        beta = float(root.real)
        if beta < 0.0 or beta > beta_max:
            continue
        series = _m0_series(alpha, mode, beta, order)
        res, rel = _series_quality(series, alpha, mode, beta)
        b2 = float(roots_n2[np.argmin(np.abs(roots_n2 - beta))])
        estimate = abs(beta - b2) * (1.0 + 1e-9) + 1e-14
        # the pencil has no marching poles: only a non-real root is spurious
        spurious = root.imag != 0.0
        diag = EigenDiagnostics(order=order, residual=res, residual_rel=rel,
                                beta_by_order={order: beta, order + 2: b2},
                                convergence_estimate=estimate, spurious=spurious)
        pair = Eigenpair(beta=beta, mode=mode, series=series, mixing=None,
                         trivial=False, diagnostics=diag)
        (rejected if spurious else accepted).append(pair)
    return accepted, rejected


def determinant_scan(alpha: float, mode: ModeSpec, order: int, beta_max: float,
                     scan_step: float = 0.02) -> tuple[list[Eigenpair], list[Eigenpair]]:
    """Bracket and refine every zero crossing of the normalized determinant.

    Works for any m (the m = 0 sectors also close under the five-term rows),
    which is how truncation columns of the reference eigenvalue tables are
    recomputed.  Returns (accepted, rejected): candidates whose assembled
    eigenfunction fails the residual screen are pole artifacts of the
    truncated recursion, reported on the rejected list rather than dropped.
    """
    npts = int(math.floor(beta_max / scan_step))
    grid = [scan_step * k for k in range(1, npts + 1)]
    vals = [determinant(alpha, mode, b, order) for b in grid]
    accepted: list[Eigenpair] = []
    rejected: list[Eigenpair] = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0 or not (math.isfinite(vals[i]) and math.isfinite(vals[i + 1])):
            continue
        if math.copysign(1.0, vals[i]) == math.copysign(1.0, vals[i + 1]):
            continue
        beta = _bisect_determinant(alpha, mode, grid[i], grid[i + 1], order)
        if beta is None:
            continue
        series, mixing = _combined_series(alpha, mode, beta, order)
        res, rel = _series_quality(series, alpha, mode, beta)
        spurious = _is_spurious(beta, rel)
        beta_by_order = {order: beta}
        estimate = None
        if not spurious:
            lo2 = max(scan_step / 2, beta - 2 * scan_step)
            b2 = _bisect_determinant(alpha, mode, lo2, beta + 2 * scan_step, order + 2)
            if b2 is not None:
                beta_by_order[order + 2] = b2
                estimate = abs(beta - b2) * (1.0 + 1e-9) + 1e-14
        diag = EigenDiagnostics(order=order, residual=res, residual_rel=rel,
                                beta_by_order=beta_by_order,
                                convergence_estimate=estimate,
                                spurious=spurious)
        pair = Eigenpair(beta=beta, mode=mode, series=series, mixing=mixing,
                         trivial=False, diagnostics=diag)
        (rejected if spurious else accepted).append(pair)
    accepted.sort(key=lambda p: p.beta)
    return accepted, rejected


def find_eigenvalues(alpha: float, mode: ModeSpec, order: int = 10,
                     beta_max: float = 25.0, scan_step: float = 0.02,
                     return_rejected: bool = False):
    """All eigenvalues of one (m, parity) sector up to beta_max.

    m = 0 solves the truncated tridiagonal pencil of its three-term rows
    (one free seed, so tail-vanishing is a root condition on one
    polynomial, the pencil's characteristic polynomial); m != 0 scans the normalized determinant
    and bisects each sign change to 1e-10.  Results are sorted ascending.
    The exact constant mode at beta = 0 (m = 0, even) is included flagged
    ``trivial``.  Pole artifacts and failed refinements carry flags in their
    diagnostics; flagged-spurious candidates are dropped from the primary
    list (pass return_rejected=True to inspect them).
    """
    _check_alpha(alpha)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if beta_max <= 0:
        raise ValueError(f"beta_max must be positive, got {beta_max}")
    if scan_step <= 0:
        raise ValueError(f"scan_step must be positive, got {scan_step}")
    if mode.m == 0:
        accepted, rejected = _find_m0(alpha, mode, order, beta_max)
        accepted.sort(key=lambda p: p.beta)
    else:
        accepted, rejected = determinant_scan(alpha, mode, order, beta_max, scan_step)
    if return_rejected:
        return accepted, rejected
    return accepted

"""Eigenvalue extraction from the coefficient recursions.

Each sector builds one pencil A + beta B, once, with ``_stencil``: the
square system of its real rows from ``recursion`` (negative indices folded
by parity) continued 8 orders past the truncation order N, at beta = 0 and
beta = 1, as every row is affine in beta (Hill's method).  Truncating at
order k (d_k = 0, and d_{k+1} = 0 where five terms couple) only drops
columns, so every order is a leading block of that pencil:

* N: the m = 0 eigenvalues, from the three-term rows.  The numerator of
  d_k (``coefficient_polynomials``) vanishes exactly where the order-k
  block is singular, so its roots lambda^i_k, the paper's eq. (14), are
  that block's Ritz values (``_m0_ritz``: one Cholesky factor serves every
  k); ``roots_warm_started`` returns them for every k up to N.
* N+2: every state's order N+2 partner, its nearest real root.
* N+8: every eigenfunction (``_series``), the smallest right singular
  vector of A + beta B, cut to d_0..d_N: the minimal solution of the
  recursion (Gautschi, SIAM Rev. 9 (1967) 24), which forward marching
  cannot give, as the dominant solution swamps it.

For m != 0 (five-term rows) the order-N eigenvalues are the order-N
block's roots, and a scan chooses which are states: the rows are singular
exactly where the normalized 2x2 determinant of (d_N, d_{N+1}) for two
series, marched jointly from two seed pairs (one pass, each row built
once), crosses zero, and each crossing reports the real root nearest it.
The scan stops one step past the largest root.  The marching denominators
vanish on the poles beta = k(k+1) (k >= 1 even, k >= 2 odd;
``recursion._poles``), and the determinant changes sign across each one
without a root.  The scan undoes that flip, multiplying each value by -1
per pole below it, which gives the sign of the numerator with the
denominators cleared, as in eq. (14): it changes only at roots, so a
bracket may hold a pole and no state next to one is lost.  A step within
POLE_GAP of a pole is evaluated POLE_GAP below it: on the pole itself the
march's own (1 + beta) 1e-12 step off it leaves the sign to rounding.
``Eigenpair.converged`` says whether a root has stopped moving with N.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .recursion import (
    CoefficientSeries,
    ModeSpec,
    Parity,
    _check_alpha,
    _d_row_five,
    _d_row_three,
    _march_five,
    _poles,
    _residual_and_peak,
)

DEFAULT_SEEDS = ((1.0, 1.0), (1.0, -1.0))
# a scan step within this of a marching pole is evaluated this far below it
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
    index: deg(q_n) = n - 1.  Raises ``OverflowError``, naming n, once a
    coefficient of q_n is not finite (from n of about 75 at alpha = 0.1).
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
        with np.errstate(over="ignore", invalid="ignore"):
            q.append(-(np.convolve(np.convolve(tm, lead), q[n - 1]) + np.convolve(t0, q[n])))
        if not np.isfinite(q[n + 1]).all():
            raise OverflowError(f"the numerator of d_{n + 1} has a coefficient past "
                                f"float range (alpha {alpha}, {parity})")
    return [
        BetaPolynomial(coefficients=tuple(float(c) for c in q[n]),
                       source_index=n, parity=parity)
        for n in range(1, order + 1)
    ]


def roots_warm_started(alpha: float, parity: Parity, order: int) -> list[list[float]]:
    """The roots lambda^i_k of the numerators of d_1 .. d_order, the paper's
    eq. (14), for the m = 0 recursion.

    Entry k - 1 holds the k - 1 eigenvalues, ascending, of the order-k
    leading block of the sector's three-term pencil, which is singular
    exactly where the numerator of d_k vanishes; the exact beta = 0 of the
    even n = 0 row is left out.  One Cholesky factor gives every k
    (``_m0_ritz``), so the roots are real and interlace (Cauchy).
    """
    _check_alpha(alpha)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    c = _m0_ritz(_pencil(lambda n, b: _d_row_three(n, alpha, b), parity, order), parity)
    return [np.linalg.eigvalsh(c[:k - 1, :k - 1]).tolist() for k in range(1, order + 1)]


def determinant(alpha: float, mode: ModeSpec, beta: float, order: int,
                seeds=DEFAULT_SEEDS) -> float:
    """Normalized tail determinant det[(d_N, d_{N+1}) x (A, B)].

    Columns A and B are the series from the two seed pairs, marched to
    d_{N+1} in one joint pass, so each five-term row is built once.
    Dividing by the product of column magnitudes makes the value scale-free
    in (-1, 1): rescaling either seed leaves it unchanged, and its zero set
    is independent of the seed basis.  If either column vanishes, 0.0 is
    returned.  A non-finite beta raises ``ValueError``.
    """
    _check_alpha(alpha)
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    (a0, a1), (b0, b1) = seeds
    if a0 * b1 - a1 * b0 == 0.0:
        raise ValueError(f"seed matrix {seeds} is singular")
    (da, _), (db, _) = _march_five(alpha, mode.m, beta, mode.parity, order + 1, seeds)
    a_n, a_n1, b_n, b_n1 = da[order], da[order + 1], db[order], db[order + 1]
    na = math.hypot(a_n, a_n1)
    nb = math.hypot(b_n, b_n1)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return (a_n * b_n1 - a_n1 * b_n) / (na * nb)


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
               beta: float, roots_n2: np.ndarray, trivial: bool = False) -> Eigenpair:
    """The state at ``beta`` with its residual and its N versus N+2 estimate,
    against the nearest real one of the order N+2 roots (None if none is real)."""
    res, psi_max = _residual_and_peak(series, alpha, mode, beta)
    beta_by_order = {series.order: beta}
    estimate = None
    real = roots_n2[roots_n2.imag == 0.0].real
    if real.size:
        beta_n2 = float(real[np.argmin(np.abs(real - beta))])
        beta_by_order[series.order + 2] = beta_n2
        estimate = abs(beta - beta_n2) * (1.0 + 1e-9) + 1e-14
    diag = EigenDiagnostics(res, res / psi_max if psi_max > 0 else math.inf,
                            beta_by_order, estimate)
    return Eigenpair(beta, mode, series, trivial, diag)


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


def _pencil(row, parity: Parity, order: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) with A + beta B the stencil of ``row(n, beta)``, which is
    affine in beta, continued 8 orders past ``order``; the system at order k
    is the leading block [:k - floor, :k - floor] of both."""
    a = _stencil(lambda n: row(n, 0.0), parity, order + 8)
    return a, _stencil(lambda n: row(n, 1.0), parity, order + 8) - a


def _block_roots(pencil, parity: Parity, order: int) -> np.ndarray:
    """Eigenvalues of the pencil's leading block at ``order`` (d_order = 0)."""
    k = order - (0 if parity == "even" else 1)
    a, b = (x[:k, :k] for x in pencil)
    return np.linalg.eigvals(np.linalg.solve(b, -a))


def _m0_ritz(pencil, parity: Parity) -> np.ndarray:
    """C = -L^-1 A L^-T, B = L L^T, for the m = 0 pencil with its folded even
    row 0 halved, which makes it symmetric-definite (B is diagonally
    dominant, 2/alpha > 2).  L's leading blocks factor B's, so the order-k
    roots are ``eigvalsh(C[:k - 1, :k - 1])``.  C's even row and column 0
    are zero, as A's are (the constant mode), and are dropped.
    """
    a, b = pencil[0], pencil[1].copy()
    if parity == "even":
        b[0] *= 0.5  # A's row 0 is zero
    low = np.linalg.cholesky(b)
    c = -np.linalg.solve(low, np.linalg.solve(low, a).T)
    return c[1:, 1:] if parity == "even" else c


def _series(pencil, mode: ModeSpec, beta: float, order: int) -> CoefficientSeries:
    """Eigenfunction coefficients at a root, for any sector.

    The smallest right singular vector of A + beta B over the whole block
    (rows floor..order+7 over d_floor..d_{order+7}), cut to d_0..d_order and
    scaled to max |d| = 1 with d_floor >= 0.
    """
    a, b = pencil
    floor = 0 if mode.parity == "even" else 1
    v = np.linalg.svd(a + beta * b)[2][-1][: order + 1 - floor]
    v = v / (math.copysign(1.0, v[0]) * np.max(np.abs(v)))
    vals = np.concatenate((np.zeros(floor), v))
    return CoefficientSeries(order=order, m=mode.m, parity=mode.parity,
                             d=tuple(float(x) for x in vals), log_scale=0.0)


def _check_sector(alpha: float, order: int, beta_max: float) -> None:
    _check_alpha(alpha)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not 0.0 < beta_max < math.inf:
        raise ValueError(f"beta_max must be positive and finite, got {beta_max}")


def _find_m0(alpha: float, mode: ModeSpec, order: int,
             beta_max: float) -> list[Eigenpair]:
    pencil = _pencil(lambda n, b: _d_row_three(n, alpha, b), mode.parity, order)
    c = _m0_ritz(pencil, mode.parity)
    roots_n2 = np.linalg.eigvalsh(c[:order + 1, :order + 1])
    pairs = []
    if mode.parity == "even":
        # the constant mode, added exactly
        series = CoefficientSeries(order=order, m=0, parity="even", d=(1.0,) + (0.0,) * order)
        pairs.append(_eigenpair(alpha, mode, series, 0.0, np.zeros(1), trivial=True))
    for beta in np.linalg.eigvalsh(c[:order - 1, :order - 1]).tolist():
        if beta > beta_max:
            break
        pairs.append(_eigenpair(alpha, mode, _series(pencil, mode, beta, order),
                                beta, roots_n2))
    return pairs


def determinant_scan(alpha: float, mode: ModeSpec, order: int, beta_max: float,
                     scan_step: float = 0.02) -> tuple[list[Eigenpair], list[Eigenpair]]:
    """The order-N roots at the zero crossings of the normalized determinant.

    Works for any m (the m = 0 sectors also close under the five-term rows),
    which is how truncation columns of the reference eigenvalue tables are
    recomputed.  The roots are the eigenvalues of the order-N block of the
    sector's five-term pencil; the scan only chooses which are states.  Its
    grid is the multiples of scan_step from beta = 0 to beta_max or one
    step past the largest real part of a root, beyond which no root can
    be bracketed; a step within POLE_GAP of a marching pole k(k+1) of
    order N moves to k(k+1) - POLE_GAP.  Each value is signed by (-1) per
    pole below it, which undoes the march's sign flip at each pole, so a
    bracket may contain a pole.  Each sign change reports the real root
    nearest its bracket, with its order N+2 partner and eigenfunction from
    the same pencil; one with no real root within scan_step of its bracket
    raises ``ArithmeticError``, and one whose nearest root lies past
    beta_max is skipped.  Returns (accepted, []).  Rejects alpha, order
    and beta_max as ``find_eigenvalues`` does.
    """
    _check_sector(alpha, order, beta_max)
    pencil = _pencil(lambda n, b: _d_row_five(n, alpha, mode.m, b), mode.parity, order)
    roots = _block_roots(pencil, mode.parity, order)
    real = roots[roots.imag == 0.0].real
    roots_n2 = _block_roots(pencil, mode.parity, order + 2)
    poles = _poles(mode.parity, order)
    top = min(beta_max, float(np.max(roots.real, initial=0.0)) + scan_step)
    grid = []
    for b in (scan_step * k for k in range(int(math.floor(top / scan_step)) + 1)):
        j = bisect.bisect_left(poles, b - POLE_GAP)
        grid.append(poles[j] - POLE_GAP if j < len(poles) and poles[j] - b <= POLE_GAP else b)
    # the sign of eq. (14)'s numerator: the march divides once by each pole below b
    vals = [determinant(alpha, mode, b, order) * (-1) ** bisect.bisect_left(poles, b)
            for b in grid]
    accepted: list[Eigenpair] = []
    for i in range(len(grid) - 1):
        lo, hi = grid[i], grid[i + 1]
        if vals[i] == 0.0 or not (math.isfinite(vals[i]) and math.isfinite(vals[i + 1])):
            continue
        if math.copysign(1.0, vals[i]) == math.copysign(1.0, vals[i + 1]):
            continue
        dist = np.abs(real - 0.5 * (lo + hi))
        if not dist.size or dist.min() > 0.5 * (hi - lo) + scan_step:
            raise ArithmeticError(f"no real order-{order} root within {scan_step} of the "
                                  f"sign change in [{lo}, {hi}] (alpha {alpha}, "
                                  f"m {mode.m}, {mode.parity})")
        beta = float(real[np.argmin(dist)])
        if beta > beta_max:
            continue  # the last bracket's root lies just past beta_max
        accepted.append(_eigenpair(alpha, mode, _series(pencil, mode, beta, order),
                                   beta, roots_n2))
    return accepted, []


def find_eigenvalues(alpha: float, mode: ModeSpec, order: int = 10,
                     beta_max: float = 25.0) -> list[Eigenpair]:
    """All eigenvalues of one (m, parity) sector up to beta_max.

    One pencil A + beta B per sector, of three-term rows at m = 0 and
    five-term rows otherwise.  m = 0 takes the eigenvalues of its order-N
    block, real and positive from one Cholesky factor (``_m0_ritz``); m != 0
    scans the normalized determinant at order N in steps of 0.02, with the
    sign flip at each marching pole undone, and takes the real root of its
    order-N block nearest each sign change (``determinant_scan``), up to
    beta_max.  Each state's order N+2 value is the nearest real root of the
    N+2 block, and its eigenfunction the smallest right singular vector of
    the whole block, scaled to max |d| = 1 with d_floor >= 0.  Results are
    sorted ascending.  The exact constant mode at beta = 0 (m = 0, even) is
    included flagged ``trivial``.  No root is screened out:
    ``Eigenpair.converged`` is the verdict, from the order N versus N+2
    estimate in ``diagnostics.convergence_estimate``.  But an m != 0 root
    the scan does not bracket is missed without notice, as happens below
    alpha of about 3e-5.  A non-finite beta_max raises ``ValueError``.
    """
    _check_sector(alpha, order, beta_max)
    if mode.m == 0:
        return _find_m0(alpha, mode, order, beta_max)
    return determinant_scan(alpha, mode, order, beta_max)[0]

"""Independent verification solvers for the separated poloidal equation.

Two methods that share no machinery with the Fourier recursion:

* Classical fixed-step fourth-order Runge-Kutta shooting.  Parity pins the
  launch at the inner equator theta = -pi/2 (a fixed point of the
  theta -> pi - theta reflection): even states launch with psi = 1,
  psi' = 0, odd with psi = 0, psi' = 1.  Integrating forward to pi/2 and
  backward to -3pi/2 reaches the other fixed point from both sides; an
  eigenvalue makes psi' (even) or psi (odd) vanish there on both paths.

  The equation is linear, y' = A(theta) y with y = (psi, psi') and
  A = [[0, 1], [q - beta, -p]], p = alpha cos / w, q = m^2 alpha^2 / w^2,
  so one RK4 step is exactly y <- M_k y for a 2x2 step matrix M_k.  A path
  builds all of its step matrices at once as numpy arrays and multiplies
  them in a pairwise tree; one kernel does this for a single path or for a
  batch of equally long paths, one per row.  An eigenvalue is found by
  Illinois regula falsi on the forward defect (the beta-free p and q at
  the step nodes of its forward and backward path are cached), bisecting
  whenever the secant point leaves the bracket; the search starts on a
  narrow window about the bracket's midpoint, as callers centre the
  bracket on an estimate, and widens to the bracket's ends only when the
  defect keeps its sign there.  The forward/backward consistency check
  runs once, at the root.  Sampling folds every target onto the half loop
  ahead of the launch and sweeps it once, batching legs by step count.

* A flux-form central finite difference of the self-adjoint form

      -d/dtheta[(1 + alpha sin) psi'] + m^2 alpha^2/(1 + alpha sin) psi
          = beta (1 + alpha sin) psi

  on a uniform periodic grid with a node at pi/2.  The operator commutes
  with the reflection theta -> pi - theta, which maps the grid onto
  itself, so the periodic matrix splits into an even and an odd sector,
  each a symmetric tridiagonal matrix on the half loop pi/2..3pi/2 (a
  diagonal similarity by the square root of the weight makes it
  symmetric, so eigenvalues are guaranteed real).  Only the
  lowest k eigenvalues of a sector are computed: the Sturm count (the
  LDL^T inertia of the shifted matrix) brackets each one, and Laguerre's
  iteration converges on it, in O(n k) work and O(n) memory with no dense
  matrix.  A sector is positive semidefinite, so its search starts at 0
  (less a rounding-level margin) rather than at the Gershgorin bound that
  a general symmetric tridiagonal matrix needs.  A call answers for one
  sector: it is paired with the same sector of the half grid, whose nodes
  are every other node of the grid, and Richardson-extrapolated, which
  removes the leading h^2 error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from math import pi
from typing import Sequence

import numpy as np

from .geometry import SpectralPoint
from .recursion import Parity, _check_alpha, _check_parity

FD_GRID_CAP = 2048

__all__ = [
    "OracleConfig",
    "ShootingState",
    "OracleError",
    "BracketError",
    "rk_mismatch",
    "rk_find_eigenvalue",
    "rk_sample",
    "fd_spectrum",
]


class OracleError(RuntimeError):
    pass


class BracketError(OracleError):
    pass


@dataclass(frozen=True)
class OracleConfig:
    """Shared oracle knobs; defaults favor determinism over speed."""

    rk_step_count: int = 4096       # fixed RK4 steps per half-loop (pi interval)
    matching_tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if self.rk_step_count < 100:
            raise ValueError(f"rk_step_count must be >= 100, got {self.rk_step_count}")
        if not (self.matching_tolerance > 0):
            raise ValueError("matching_tolerance must be positive")


@dataclass(frozen=True)
class ShootingState:
    theta: float
    psi: float
    dpsi: float


@lru_cache(maxsize=2)
def _path_coefficients(alpha: float, m: int, theta0: float, theta_end: float,
                       steps: int) -> tuple[np.ndarray, np.ndarray]:
    """_coefficients of one path, read-only and cached: the forward and the
    backward path of a root search."""
    p, q = _coefficients(alpha, m, theta0, theta_end, steps)
    p.setflags(write=False)
    q.setflags(write=False)
    return p, q


def _coefficients(alpha: float, m: int, theta0, theta_end, steps: int):
    """p and q at the 2 steps + 1 RK4 nodes theta0 + j h/2 of each path; a
    column of ends gives one path per row."""
    t = theta0 + (0.5 * (theta_end - theta0) / steps) * np.arange(2 * steps + 1)
    w = 1.0 + alpha * np.sin(t)
    p = alpha * np.cos(t) / w
    q = (m * m * alpha * alpha) / (w * w)
    return p, q


def _a_times(c, d, x):
    """A @ X for A = [[0, 1], [c, d]]; matrices are (x00, x01, x10, x11)."""
    return x[2], x[3], c * x[0] + d * x[2], c * x[1] + d * x[3]


def _eye_plus(s, k):
    """I + s K."""
    return 1.0 + s * k[0], s * k[1], s * k[2], 1.0 + s * k[3]


def _matmul(x, y):
    """X @ Y, elementwise over stacks."""
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def _step_product(c, d, h):
    """The product of the RK4 step matrices along the last axis, for
    c = q - beta and d = -p at the nodes of each path and its step h."""
    ca, da = c[..., :-1:2], d[..., :-1:2]      # step start
    cb, db = c[..., 1::2], d[..., 1::2]        # midpoint
    cc, dc = c[..., 2::2], d[..., 2::2]        # step end
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = (0.0, 1.0, ca, da)
        k2 = _a_times(cb, db, _eye_plus(0.5 * h, k1))
        k3 = _a_times(cb, db, _eye_plus(0.5 * h, k2))
        k4 = _a_times(cc, dc, _eye_plus(h, k3))
        step = _eye_plus(h / 6.0, tuple(a + 2.0 * (b + e) + f
                                        for a, b, e, f in zip(k1, k2, k3, k4)))
        # pairwise tree: each level multiplies every later matrix onto its
        # predecessor; an odd one out waits, still last, for the next level
        while step[0].shape[-1] > 1:
            size = step[0].shape[-1]
            odd = size % 2
            pair = _matmul(tuple(x[..., 1::2] for x in step),
                           tuple(x[..., :size - odd:2] for x in step))
            step = pair if not odd else tuple(
                np.concatenate((a, x[..., -1:]), axis=-1) for a, x in zip(pair, step))
    return tuple(x[..., 0] for x in step)


def _advance(state: ShootingState, mat, beta: float, steps: int,
             theta_end: float) -> ShootingState:
    """The state carried to theta_end by a path's step-matrix product."""
    mat = [float(x) for x in mat]
    psi = mat[0] * state.psi + mat[1] * state.dpsi
    dpsi = mat[2] * state.psi + mat[3] * state.dpsi
    if not (math.isfinite(psi) and math.isfinite(dpsi)):
        raise OracleError(
            f"integration diverged at beta={beta}, steps={steps}, theta={theta_end}"
        )
    return ShootingState(theta=theta_end, psi=psi, dpsi=dpsi)


def _integrate(alpha: float, m: int, beta: float, state: ShootingState,
               theta_end: float, steps: int) -> ShootingState:
    """Fixed-step RK4 from state.theta to theta_end, as one matrix product."""
    p, q = _path_coefficients(alpha, m, state.theta, theta_end, steps)
    mat = _step_product(q - beta, -p, (theta_end - state.theta) / steps)
    return _advance(state, mat, beta, steps, theta_end)


def _launch(parity: Parity) -> ShootingState:
    if parity == "even":
        return ShootingState(theta=-pi / 2, psi=1.0, dpsi=0.0)
    return ShootingState(theta=-pi / 2, psi=0.0, dpsi=1.0)


def rk_mismatch(alpha: float, m: int, beta: float, parity: Parity,
                config: OracleConfig = OracleConfig()) -> float:
    """Signed matching defect at theta = pi/2.

    Even parity returns psi'(pi/2) of the forward path, odd returns
    psi(pi/2); the backward path to -3pi/2 evaluates the same condition at
    the same physical point and must agree (the reflection about -pi/2 maps
    one path onto the other), which is checked here.
    """
    _check_alpha(alpha)
    _check_parity(parity)
    fwd = _integrate(alpha, m, beta, _launch(parity), pi / 2, config.rk_step_count)
    bwd = _integrate(alpha, m, beta, _launch(parity), -3 * pi / 2, config.rk_step_count)
    # the reflection about -pi/2 maps the backward path onto the forward one,
    # preserving psi for the even launch and flipping it for the odd launch
    if parity == "even":
        mf, mb = fwd.dpsi, -bwd.dpsi
    else:
        mf, mb = fwd.psi, -bwd.psi
    scale = max(1.0, abs(fwd.psi), abs(fwd.dpsi))
    if abs(mf - mb) > 1e-6 * scale:
        raise OracleError(
            f"forward/backward matching inconsistent at beta={beta}: "
            f"{mf} vs {mb} (steps={config.rk_step_count})"
        )
    return mf


def rk_find_eigenvalue(alpha: float, m: int, parity: Parity,
                       bracket: tuple[float, float],
                       config: OracleConfig = OracleConfig()) -> SpectralPoint:
    """Root of the mismatch within the bracket.

    Brackets are centred on an estimate of the root, so the search first
    tries a window of sqrt(matching_tolerance) * max(1, |mid|) either side
    of the bracket's midpoint (cut to the bracket), and falls back to the
    bracket's ends if the defect does not change sign on that window.
    Illinois regula falsi on the forward defect, with a bisection step
    whenever the secant point leaves the open bracket, runs until the
    bracket is narrower than ``matching_tolerance``; ``rk_mismatch`` then
    checks the forward and backward paths against each other at the root.
    """
    _check_alpha(alpha)
    _check_parity(parity)
    lo, hi = bracket
    if not lo < hi:
        raise ValueError(f"bad bracket {bracket}")

    def defect(beta: float) -> float:
        end = _integrate(alpha, m, beta, _launch(parity), pi / 2, config.rk_step_count)
        return end.dpsi if parity == "even" else end.psi

    mid = 0.5 * (lo + hi)
    half = math.sqrt(config.matching_tolerance) * max(1.0, abs(mid))
    for a, b in ((max(lo, mid - half), min(hi, mid + half)), (lo, hi)):
        fa, fb = defect(a), defect(b)
        if fa == 0.0 or fb == 0.0:
            beta = a if fa == 0.0 else b
            break
        if math.copysign(1.0, fa) != math.copysign(1.0, fb):
            beta = _illinois(defect, a, b, fa, fb, config.matching_tolerance)
            break
    else:
        raise BracketError(
            f"mismatch does not change sign on {bracket} (m={m}, {parity})"
        )
    rk_mismatch(alpha, m, beta, parity, config)
    return SpectralPoint(beta=beta)


def _illinois(f, lo: float, hi: float, flo: float, fhi: float, tol: float) -> float:
    """Regula falsi on a sign-changing bracket, Illinois variant: an end
    kept twice in a row has its value halved, so both ends close in."""
    kept = 0    # +1 after lo moved, -1 after hi moved
    while hi - lo > tol:
        x = hi - fhi * (hi - lo) / (fhi - flo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if fx == 0.0:
            return x
        if math.copysign(1.0, fx) == math.copysign(1.0, flo):
            lo, flo = x, fx
            if kept == 1:
                fhi *= 0.5
            kept = 1
        else:
            hi, fhi = x, fx
            if kept == -1:
                flo *= 0.5
            kept = -1
    return 0.5 * (lo + hi)


def rk_sample(alpha: float, m: int, beta: float, parity: Parity,
              thetas: Sequence[float],
              config: OracleConfig = OracleConfig()) -> list[tuple[float, float]]:
    """Trajectory values psi(theta), normalized by the launch condition.

    Every target is read off the half loop [-pi/2, pi/2] ahead of the
    launch, so no leg reaches the barrier at 3pi/2: one inside as given,
    one outside [-3pi/2, pi/2] reduced into it by whole periods, and one
    left of -pi/2 from its mirror -pi - theta times +1 (even) or -1 (odd).
    w and q are even and p odd about -pi/2, so the mirror holds for the
    parity launch at every beta and values on [-3pi/2, pi/2] are its
    trajectory; other targets rely on periodicity, exact at an eigenvalue.

    One outward sweep visits the distinct folded targets at the configured
    step density.  Its legs span at most one half loop, so those that share
    a step count form one batch, and only the 2x2 products are chained.
    """
    _check_alpha(alpha)
    _check_parity(parity)
    launch, sign = _launch(parity), 1.0 if parity == "even" else -1.0
    folded = []     # (point on the half loop, factor) per target
    for theta in map(float, thetas):
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta}")
        if not -3 * pi / 2 <= theta <= pi / 2:
            theta = (theta + 3 * pi / 2) % (2 * pi) - 3 * pi / 2
        mirror = theta < -pi / 2
        folded.append((min(-pi - theta if mirror else theta, pi / 2), sign if mirror else 1.0))
    ends = sorted({u for u, _ in folded if u > launch.theta})
    legs = [(start, end, max(2, int(round(config.rk_step_count * (end - start) / pi))))
            for start, end in zip([launch.theta] + ends, ends)]
    products = {}
    by_steps: dict[int, list[tuple[float, float]]] = {}
    for start, end, steps in legs:
        by_steps.setdefault(steps, []).append((start, end))
    for steps, group in by_steps.items():
        start, end = (np.array(x)[:, None] for x in zip(*group))
        p, q = _coefficients(alpha, m, start, end, steps)
        mats = _step_product(q - beta, -p, (end - start) / steps)
        products.update(zip(group, zip(*mats)))
    psi, state = {launch.theta: launch.psi}, launch
    for start, end, steps in legs:
        state = _advance(state, products[start, end], beta, steps, end)
        psi[end] = state.psi
    return [(float(t), factor * psi[u]) for t, (u, factor) in zip(thetas, folded)]


def fd_spectrum(alpha: float, m: int, grid_size: int = 1024,
                k_lowest: int = 8, *, parity: Parity) -> list[SpectralPoint]:
    """Lowest eigenvalues of one mirror sector of the periodic flux-form
    discretization.

    Pairs the ``parity`` sector of the grid with the same sector of its
    half, Richardson-extrapolates the pair (the discretization is second
    order, so the combination cancels the leading error term), and reports
    the correction magnitude as the per-eigenvalue error estimate.  The
    sector is solved for its lowest ``k_lowest`` eigenvalues only, by
    Sturm counts and Laguerre steps on its tridiagonal matrix: O(n k_lowest)
    work and no dense matrix.  Near the half grid's cutoff the extrapolated
    values stop rising, so the sector ends before its first descent and
    the result is ascending; a ``k_lowest`` past that end raises
    ``ValueError`` naming the largest valid value.  A descent inside the
    computed values gives the same end as a descent in the whole sector.
    """
    n = grid_size
    if n < 64 or n % 2:
        raise ValueError(f"grid_size must be even and >= 64, got {n}")
    if n > FD_GRID_CAP:
        raise ValueError(f"grid_size is capped at {FD_GRID_CAP}")
    if not 1 <= k_lowest <= n // 2:
        raise ValueError(f"k_lowest must be in [1, {n // 2}], got {k_lowest}")
    _check_parity(parity)
    _check_alpha(alpha)
    full = _fd_raw(alpha, m, n, parity, k_lowest)
    half = _fd_raw(alpha, m, n // 2, parity, k_lowest)
    k = min(full.size, half.size)
    corr = (full[:k] - half[:k]) / 3.0
    beta = full[:k] + corr
    # 64 points, alpha 0.9, m 3, even: ..., 222.2, 234.4, 218.1, 158.1
    descents = np.flatnonzero(np.diff(beta) < 0.0)
    k = int(descents[0]) + 1 if descents.size else k
    if k < k_lowest:
        raise ValueError(
            f"k_lowest={k_lowest} exceeds the {k} {parity} values that "
            f"extrapolate in order from grids {n} and {n // 2}; "
            f"use k_lowest <= {k}"
        )
    return [SpectralPoint(beta=max(0.0, b), error_estimate=abs(c))
            for b, c in zip(beta[:k_lowest].tolist(), corr[:k_lowest].tolist())]


def _fd_raw(alpha: float, m: int, n: int, parity: Parity, k: int) -> np.ndarray:
    """The lowest k eigenvalues, ascending, of one mirror sector of the
    grid of n points (all of them if the sector has fewer).

    Every grid has nodes pi/2 + j h, so theta -> pi - theta carries it onto
    itself, and the grid of n/2 points is every other node of the grid of
    n.  The sector lives on the nodes of the half loop pi/2..3pi/2.  pi/2
    is a node, and so is 3pi/2 when n is even.  A node end is a fixed
    point: the even sector keeps it with half its mass and diagonal, the
    odd sector (which vanishes there) drops it.  For odd n, 3pi/2 lies half
    a step past the last node, whose mirror neighbour is then the node
    itself, so its coupling returns to the diagonal with the sector's sign.
    """
    h = 2.0 * pi / n
    theta = (np.arange(n // 2 + 1) + n / 4) * h
    diag, off, mass = _fd_rows(alpha, m, theta, h)
    if n % 2:
        diag[-1] += (1.0 if parity == "even" else -1.0) * off[-1]
    if parity == "even":
        node_ends = [0] if n % 2 else [0, -1]
        diag[node_ends] *= 0.5
        mass[node_ends] *= 0.5
    else:
        keep = slice(1, len(theta) - 1 + n % 2)
        diag, off, mass = diag[keep], off[keep], mass[keep]
    s = 1.0 / np.sqrt(mass)
    # a flux-form stiffness, a non-negative m^2 alpha^2 / w and a positive
    # mass: the sector is positive semidefinite
    return _lowest_eigenvalues(diag * s * s, off[:-1] * s[:-1] * s[1:], k,
                               semidefinite=True)


def _fd_rows(alpha: float, m: int, theta: np.ndarray, h: float):
    """Diagonal, coupling to the next node, and weight."""
    w = 1.0 + alpha * np.sin(theta)
    wp = 1.0 + alpha * np.sin(theta + h / 2)   # weight at j+1/2 faces
    wm = 1.0 + alpha * np.sin(theta - h / 2)
    diag = (wp + wm) / h**2 + m * m * alpha * alpha / w
    return diag, -wp / h**2, w


def _lowest_eigenvalues(diag: np.ndarray, sub: np.ndarray, k: int, *,
                        semidefinite: bool = False) -> np.ndarray:
    """The min(k, n) lowest eigenvalues, ascending, of the symmetric
    tridiagonal n x n matrix T with diagonal diag and subdiagonal sub.

    The LDL^T factorization of T - x has as many negative pivots as T has
    eigenvalues below x (Sylvester's inertia; the Sturm count of Barth,
    Martin & Wilkinson), so every factorization tightens the bracket of
    every wanted eigenvalue.  The search starts from the Gershgorin
    interval, or, for a ``semidefinite`` T, from -tol (the rounding-level
    tolerance below) up to the first of 1, 2, 4, ... with at least k
    eigenvalues below it, which saves the passes that would only walk down
    from the Gershgorin bounds to the low end of the spectrum.  Each
    eigenvalue is bisected until it is alone in its bracket, then found
    by Laguerre's iteration, which for a polynomial with only real roots
    moves monotonically towards the next root on the chosen side and
    converges cubically.  A Laguerre step that leaves the bracket or does
    not halve the previous one is replaced by a bisection, so the search
    always ends.  Each factorization is one O(n) pass; nothing is n x n.
    """
    n, k = len(diag), min(k, len(diag))
    radius = np.zeros(n)
    radius[1:] += np.abs(sub)
    radius[:-1] += np.abs(sub)
    lower, upper = float(np.min(diag - radius)), float(np.max(diag + radius))
    # solve for T / 2^e, whose eigenvalues lie in [-1, 1]: the scaling is
    # exact, and a square that underflows is then far below the tolerance
    scale = math.ldexp(1.0, math.frexp(max(abs(lower), abs(upper)))[1])
    lower, upper = lower / scale, upper / scale
    tol = 4.0 * sys.float_info.epsilon * max(abs(lower), abs(upper))
    squares = [0.0] + ((sub / scale) ** 2).tolist()
    rows = list(zip((diag / scale).tolist(), squares))
    # lo[j]: largest shift seen with at most j eigenvalues below it, and
    # hi[j] the smallest with more; lo[k] tells when the last one is alone
    lo = np.full(k + 1, -tol if semidefinite else lower - tol)
    hi = np.full(k, upper + tol)
    x = 1.0 / scale
    while semidefinite and x < upper:
        below = _inertia(rows, x)[0]
        np.maximum(lo[below:], x, out=lo[below:])
        np.minimum(hi[:below], x, out=hi[:below])
        if below >= k:
            break
        x *= 2.0
    values = np.empty(k)
    for j in range(k):
        x, last = 0.5 * float(lo[j] + hi[j]), math.inf
        while True:
            below, g, h = _inertia(rows, x)
            np.maximum(lo[below:], x, out=lo[below:])
            np.minimum(hi[j:below], x, out=hi[j:below])
            a, b = float(lo[j]), float(hi[j])
            mid = 0.5 * (a + b)
            if b - a <= tol or not a < mid < b:
                x = mid
                break
            step = math.nan
            if (lo[j + 1] >= b and below in (j, j + 1)
                    and math.isfinite(g) and math.isfinite(h)):
                # Laguerre's step from x towards the eigenvalue alone in (a, b)
                root = math.sqrt(max(0.0, (n - 1) * (n * h - g * g)))
                towards = root - g if below == j else -root - g
                step = n / towards if towards else math.nan
            # the step is also small right next to the neighbour on the
            # other side; only there does g = sum 1/(x - l) share its sign
            if abs(step) <= tol and g * step < 0.0:
                x += step
                break
            if a < x + step < b and abs(step) < 0.5 * last:
                x, last = x + step, abs(step)
            else:
                x, last = mid, math.inf
        values[j] = x
    return values * scale


def _inertia(rows: list[tuple[float, float]], x: float) -> tuple[int, float, float]:
    """Negative pivots of T - x, and the first two moments sum 1/(x - l) and
    sum 1/(x - l)^2 over the eigenvalues l of T.

    rows holds (T_ii, T_i,i-1^2), the first square 0, for entries of T at
    most 1 in magnitude.  Along the pivots d_i = T_ii - x - T_i,i-1^2 / d_i-1
    runs the recurrence of r_i = d_i'/d_i
    and f_i = d_i''/d_i (derivatives in x); since det(T - x) is the product
    of the pivots, the moments are sum r_i and sum r_i^2 - f_i.  A zero
    pivot becomes the smallest normal float, negated, as in LAPACK's
    bisection: small enough not to move the count, large enough that the
    next T_i,i-1^2 / d_i-1 is finite.  The moments are then NaN.
    """
    below = 0
    d, r, f, g, h = 1.0, 0.0, 0.0, 0.0, 0.0
    for a, b2 in rows:
        t = b2 / d
        f = t * (f - 2.0 * r * r)
        r = t * r - 1.0
        d = a - x - t
        if d == 0.0:
            # the moments have a pole here; NaN sends the caller to bisection
            d, g = -sys.float_info.min, math.nan
        if d < 0.0:
            below += 1
        r /= d
        f /= d
        g += r
        h += r * r - f
    return below, g, h

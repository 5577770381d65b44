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
  builds all of its step matrices at once as numpy arrays (the beta-free
  p and q at the step nodes are cached per path) and multiplies them in a
  pairwise tree.  An eigenvalue is found by Illinois regula falsi on the
  forward defect, bisecting whenever the secant point leaves the bracket;
  the forward/backward consistency check runs once, at the root.

* A flux-form central finite difference of the self-adjoint form

      -d/dtheta[(1 + alpha sin) psi'] + m^2 alpha^2/(1 + alpha sin) psi
          = beta (1 + alpha sin) psi

  on a uniform periodic grid.  The operator commutes with the reflection
  theta -> pi - theta, which maps the grid onto itself (an odd grid is
  placed with a node at pi/2), so the periodic matrix splits into an even
  and an odd sector, each a symmetric tridiagonal matrix on the half loop
  pi/2..3pi/2 (a diagonal similarity by the square root of the weight
  makes it symmetric, so eigenvalues are guaranteed real).  Each sector is
  paired with the same sector of a half-resolution run and
  Richardson-extrapolated, which removes the leading h^2 error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import pi
from typing import Sequence

import numpy as np

from .geometry import SpectralPoint
from .recursion import Parity, _check_parity

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


@lru_cache(maxsize=8)
def _path_coefficients(alpha: float, m: int, theta0: float, theta_end: float,
                       steps: int) -> tuple[np.ndarray, np.ndarray]:
    """p and q at the 2 steps + 1 RK4 nodes theta0 + j h/2 (read-only)."""
    t = theta0 + (0.5 * (theta_end - theta0) / steps) * np.arange(2 * steps + 1)
    w = 1.0 + alpha * np.sin(t)
    p = alpha * np.cos(t) / w
    q = (m * m * alpha * alpha) / (w * w)
    p.setflags(write=False)
    q.setflags(write=False)
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


def _integrate(alpha: float, m: int, beta: float, state: ShootingState,
               theta_end: float, steps: int) -> ShootingState:
    """Fixed-step RK4 from state.theta to theta_end, as one matrix product."""
    h = (theta_end - state.theta) / steps
    p, q = _path_coefficients(alpha, m, state.theta, theta_end, steps)
    c, d = q - beta, -p
    ca, da = c[:-1:2], d[:-1:2]      # step start
    cb, db = c[1::2], d[1::2]        # midpoint
    cc, dc = c[2::2], d[2::2]        # step end
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = (0.0, 1.0, ca, da)
        k2 = _a_times(cb, db, _eye_plus(0.5 * h, k1))
        k3 = _a_times(cb, db, _eye_plus(0.5 * h, k2))
        k4 = _a_times(cc, dc, _eye_plus(h, k3))
        step = _eye_plus(h / 6.0, tuple(a + 2.0 * (b + e) + f
                                        for a, b, e, f in zip(k1, k2, k3, k4)))
        # pairwise tree: each level multiplies every later matrix onto its
        # predecessor; an odd one out waits, still last, for the next level
        while len(step[0]) > 1:
            odd = len(step[0]) % 2
            pair = _matmul(tuple(x[1::2] for x in step),
                           tuple(x[:len(x) - odd:2] for x in step))
            step = pair if not odd else tuple(
                np.append(a, x[-1]) for a, x in zip(pair, step))
        mat = [float(x[0]) for x in step]
        psi = mat[0] * state.psi + mat[1] * state.dpsi
        dpsi = mat[2] * state.psi + mat[3] * state.dpsi
    if not (math.isfinite(psi) and math.isfinite(dpsi)):
        raise OracleError(
            f"integration diverged at beta={beta}, steps={steps}, theta={theta_end}"
        )
    return ShootingState(theta=theta_end, psi=psi, dpsi=dpsi)


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

    Illinois regula falsi on the forward defect, with a bisection step
    whenever the secant point leaves the open bracket, until the bracket is
    narrower than ``matching_tolerance``; ``rk_mismatch`` then checks the
    forward and backward paths against each other at the root.
    """
    _check_parity(parity)
    lo, hi = bracket
    if not lo < hi:
        raise ValueError(f"bad bracket {bracket}")

    def defect(beta: float) -> float:
        end = _integrate(alpha, m, beta, _launch(parity), pi / 2, config.rk_step_count)
        return end.dpsi if parity == "even" else end.psi

    flo, fhi = defect(lo), defect(hi)
    if flo == 0.0 or fhi == 0.0:
        beta = lo if flo == 0.0 else hi
    elif math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise BracketError(
            f"mismatch does not change sign on {bracket} (m={m}, {parity})"
        )
    else:
        beta = _illinois(defect, lo, hi, flo, fhi, config.matching_tolerance)
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

    Points left of -pi/2 ride the backward branch.  Each branch visits its
    targets in one sweep outward from the launch, with step counts scaled
    to the length of each leg so resolution matches the configured
    per-half-loop density.
    """
    launch = _launch(parity)
    values = [launch.psi] * len(thetas)
    for outward in (1.0, -1.0):
        state = launch
        targets = [i for i, t in enumerate(thetas) if outward * (t - launch.theta) > 0]
        for i in sorted(targets, key=lambda i: outward * thetas[i]):
            span = abs(thetas[i] - state.theta)
            if span > 0.0:
                steps = max(2, int(round(config.rk_step_count * span / pi)))
                state = _integrate(alpha, m, beta, state, thetas[i], steps)
            values[i] = state.psi
    return [(float(t), v) for t, v in zip(thetas, values)]


def fd_spectrum(alpha: float, m: int, grid_size: int = 1024,
                k_lowest: int = 8, parity: Parity | None = None) -> list[SpectralPoint]:
    """Lowest eigenvalues from the periodic flux-form discretization.

    Pairs each mirror sector of the grid with the same sector of its half,
    Richardson-extrapolates each pair (the discretization is second order,
    so the combination cancels the leading error term), and reports the
    correction magnitude as the per-eigenvalue error estimate.  With
    ``parity`` the result is that sector only; without, both sectors merged
    in ascending order of the full-grid value.
    """
    n = grid_size
    if n < 64 or n % 2:
        raise ValueError(f"grid_size must be even and >= 64, got {n}")
    if n > FD_GRID_CAP:
        raise ValueError(f"grid_size is capped at {FD_GRID_CAP}")
    if not 1 <= k_lowest <= n // 2:
        raise ValueError(f"k_lowest must be in [1, {n // 2}], got {k_lowest}")
    if parity is not None:
        _check_parity(parity)
    # merge by the full-grid value: pairs near the half grid's cutoff
    # extrapolate below lower states (64 points, alpha 0.9, m 3: 116.9 last)
    pairs = sorted((float(bf), float(bh))
                   for p in (("even", "odd") if parity is None else (parity,))
                   for bf, bh in zip(_fd_raw(alpha, m, n, p), _fd_raw(alpha, m, n // 2, p)))
    if len(pairs) < k_lowest:
        raise ValueError(
            f"k_lowest={k_lowest} exceeds the {len(pairs)} {parity} states "
            f"of the half grid {n // 2}"
        )
    out = []
    for bf, bh in pairs[:k_lowest]:
        corr = (bf - bh) / 3.0
        out.append(SpectralPoint(beta=max(0.0, bf + corr), error_estimate=abs(corr)))
    return out


def _fd_raw(alpha: float, m: int, n: int, parity: Parity) -> np.ndarray:
    """Ascending eigenvalues of one mirror sector of the grid of n points.

    An even grid has nodes j h, an odd grid pi/2 + j h, so theta -> pi - theta
    carries either onto itself.  The sector lives on the nodes of the half
    loop pi/2..3pi/2, and each of its two ends is a node or half a step off.
    A node end is a fixed point: the even sector keeps it with half its mass
    and diagonal, the odd sector (which vanishes there) drops it.  At a
    half-step end the end node's mirror neighbour is the end node itself, so
    its coupling returns to the diagonal with the sector's sign.  Both ends
    are nodes when n % 4 == 0, neither when n % 4 == 2, and only pi/2 when n
    is odd.
    """
    h = 2.0 * pi / n
    if n % 2:
        theta = pi / 2 + np.arange(n // 2 + 1) * h
        node_ends = (True, False)
    else:
        quarter, rem = divmod(n, 4)
        first = quarter if rem == 0 else quarter + 1
        theta = np.arange(first, first + n // 2 + 1 - rem // 2) * h
        node_ends = (rem == 0, rem == 0)
    diag, off, mass, wm = _fd_rows(alpha, m, theta, h)
    sign = 1.0 if parity == "even" else -1.0
    for end, node, mirror in ((0, node_ends[0], -wm[0] / h**2),
                              (-1, node_ends[1], off[-1])):
        if not node:
            diag[end] += sign * mirror
        elif parity == "even":
            diag[end] *= 0.5
            mass[end] *= 0.5
    if parity == "odd":
        keep = slice(int(node_ends[0]), len(theta) - int(node_ends[1]))
        diag, off, mass = diag[keep], off[keep], mass[keep]
    s = 1.0 / np.sqrt(mass)
    return _eigvalsh(_lower_tridiagonal(diag * s * s, off[:-1] * s[:-1] * s[1:]), n, m)


def _fd_rows(alpha: float, m: int, theta: np.ndarray, h: float):
    """Diagonal, coupling to the next node, weight and left-face weight."""
    w = 1.0 + alpha * np.sin(theta)
    wp = 1.0 + alpha * np.sin(theta + h / 2)   # weight at j+1/2 faces
    wm = 1.0 + alpha * np.sin(theta - h / 2)
    diag = (wp + wm) / h**2 + m * m * alpha * alpha / w
    return diag, -wp / h**2, w, wm


def _lower_tridiagonal(diag: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """Dense matrix holding diag and the subdiagonal sub, upper triangle zero."""
    k = len(diag)
    sym = np.zeros((k, k))
    sym.flat[::k + 1] = diag
    sym.flat[k::k + 1] = sub
    return sym


def _eigvalsh(sym: np.ndarray, n: int, m: int) -> np.ndarray:
    """Eigenvalues of the symmetric matrix held in the lower triangle of sym."""
    try:
        return np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise OracleError(
            f"eigensolve failed to converge (grid={n}, m={m}): {exc}"
        ) from exc

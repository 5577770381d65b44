import math
import warnings

import numpy as np
import pytest

from toruseig import oracles
from toruseig.oracles import (
    BracketError,
    OracleConfig,
    OracleError,
    ShootingState,
    fd_spectrum,
    rk_find_eigenvalue,
    rk_mismatch,
    rk_sample,
)
from toruseig.wavefunction import compare_scaled

ALPHA = 0.5
FAST = OracleConfig(rk_step_count=1024)

# differential-equation reference column (even sector, alpha = 0.5)
DE_VALUES = {
    (0, (1.0, 1.3)): 1.122286,
    (1, (4.3, 4.6)): 4.476693,
    (5, (15.0, 15.3)): 15.164615,
}


class TestRkMismatch:
    def test_zero_mode_is_exact(self):
        assert rk_mismatch(ALPHA, 0, 0.0, "even", FAST) == pytest.approx(0.0, abs=1e-12)

    def test_small_at_reference_eigenvalue(self):
        # the printed value is rounded at ~1e-6, so the defect is tiny but nonzero
        m = rk_mismatch(ALPHA, 0, 1.122286, "even")
        assert abs(m) < 1e-5

    def test_m1_reference_with_default_steps(self):
        m = rk_mismatch(ALPHA, 1, 0.249368, "even", OracleConfig(rk_step_count=4096))
        assert abs(m) < 1e-6

    def test_sign_change_brackets_the_eigenvalue(self):
        lo = rk_mismatch(ALPHA, 0, 1.0, "even", FAST)
        hi = rk_mismatch(ALPHA, 0, 1.3, "even", FAST)
        assert lo * hi < 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(rk_step_count=10)


class TestRkFindEigenvalue:
    @pytest.mark.parametrize("m,bracket", list(DE_VALUES))
    def test_reference_column(self, m, bracket):
        beta = rk_find_eigenvalue(ALPHA, m, "even", bracket).beta
        assert beta == pytest.approx(DE_VALUES[(m, bracket)], abs=5e-6)

    def test_odd_sector(self):
        beta = rk_find_eigenvalue(ALPHA, 0, "odd", (0.9, 1.05), FAST).beta
        assert beta == pytest.approx(0.976731, abs=5e-6)

    def test_bracket_failure_is_explicit(self):
        with pytest.raises(BracketError):
            rk_find_eigenvalue(ALPHA, 0, "even", (2.0, 2.5), FAST)

    def test_step_halving_error_reduction(self):
        # fourth-order integrator: halving the step cuts the eigenvalue
        # error ~16x; assert the weaker 8x on the ground state.  The
        # refinement tolerance must sit below the discretization error
        # being measured, hence the tight matching_tolerance.
        def solve(steps):
            cfg = OracleConfig(rk_step_count=steps, matching_tolerance=1e-14)
            return rk_find_eigenvalue(ALPHA, 0, "even", (1.0, 1.3), cfg).beta

        ref = solve(16384)
        errs = {steps: abs(solve(steps) - ref) for steps in (512, 1024, 2048)}
        assert errs[512] >= 8 * errs[1024]
        assert errs[1024] >= 8 * errs[2048]


class TestRkSample:
    def test_odd_parity_node_is_exact(self):
        samples = rk_sample(ALPHA, 0, 0.976731, "odd", [-math.pi / 2], FAST)
        assert samples[0][1] == 0.0

    def test_de_row_reproduction(self):
        # psi(theta) of the second even m=1 state against the reference row
        thetas = [-math.pi / 3, -math.pi / 4, 0.0, math.pi / 6, math.pi / 2]
        reference = [0.908780, 0.796192, 0.270874, -0.105471, -0.479273]
        beta = rk_find_eigenvalue(ALPHA, 1, "even", (1.5, 1.8)).beta
        samples = rk_sample(ALPHA, 1, beta, "even", thetas)
        result = compare_scaled(samples, list(zip(thetas, reference)))
        assert result.max_abs_deviation < 5e-4

    def test_reflection_symmetry_about_outer_equator(self):
        # at an eigenvalue, psi(pi/2 - t) = +/- psi(pi/2 + t); the backward
        # branch reaches pi/2 + t as -3pi/2 + t
        for parity, bracket, sign in (("even", (1.0, 1.3), 1.0),
                                      ("odd", (0.9, 1.05), -1.0)):
            beta = rk_find_eigenvalue(ALPHA, 0, parity, bracket, FAST).beta
            ts = [0.3, 0.9, 1.4]
            left = rk_sample(ALPHA, 0, beta, parity,
                             [math.pi / 2 - t for t in ts], FAST)
            right = rk_sample(ALPHA, 0, beta, parity,
                              [-3 * math.pi / 2 + t for t in ts], FAST)
            peak = max(abs(v) for _, v in left)
            for (_, vl), (_, vr) in zip(left, right):
                assert vl == pytest.approx(sign * vr, abs=1e-5 * peak)

    def test_divergence_reports_context(self):
        # a huge negative-beta-like configuration cannot arise through the
        # public API; force divergence with an absurd eigenvalue.  The
        # overflow on the way must not leak out as a numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OracleError, match=r"beta=100000000\.0, steps=128, theta="):
                rk_mismatch(ALPHA, 0, 1e8, "even", OracleConfig(rk_step_count=128))

    def test_sweep_matches_integration_from_launch(self):
        # one sweep per branch, in any input order, against an independent
        # integration from -pi/2 to each point at the same step density
        thetas = [2.0, -2.5, 0.3, -math.pi / 2, 4.0, -4.5, 0.3, -1.0]
        samples = rk_sample(ALPHA, 1, 1.663, "even", thetas, FAST)
        assert [t for t, _ in samples] == thetas
        launch = ShootingState(theta=-math.pi / 2, psi=1.0, dpsi=0.0)
        for theta, value in samples:
            steps = max(2, round(1024 * abs(theta + math.pi / 2) / math.pi))
            ref = (launch.psi if theta == -math.pi / 2 else
                   oracles._integrate(ALPHA, 1, 1.663, launch, theta, steps).psi)
            assert value == pytest.approx(ref, rel=1e-8, abs=1e-10)


def _scalar_rk4(alpha, m, beta, state, theta_end, steps):
    """Classical RK4 at the nodes theta0 + k h, one step at a time."""
    def slope(t, u0, u1):
        w = 1.0 + alpha * math.sin(t)
        return u1, -alpha * math.cos(t) / w * u1 + (m * m * alpha * alpha / (w * w) - beta) * u0

    t0, y0, y1 = state.theta, state.psi, state.dpsi
    h = (theta_end - t0) / steps
    for k in range(steps):
        t = t0 + k * h
        k1 = slope(t, y0, y1)
        k2 = slope(t + h / 2, y0 + h / 2 * k1[0], y1 + h / 2 * k1[1])
        k3 = slope(t + h / 2, y0 + h / 2 * k2[0], y1 + h / 2 * k2[1])
        k4 = slope(t + h, y0 + h * k3[0], y1 + h * k3[1])
        y0 += h * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0]) / 6.0
        y1 += h * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1]) / 6.0
    return y0, y1


class TestStepMatrixKernel:
    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("alpha", [0.1, 0.9])
    @pytest.mark.parametrize("m", [0, 5])
    def test_matches_scalar_loop(self, parity, alpha, m):
        launch = oracles._launch(parity)
        for beta, theta_end, steps in ((1.3, math.pi / 2, 1024),
                                       (7.7, -3 * math.pi / 2, 1000),
                                       (0.4, 2.0, 333)):
            psi, dpsi = _scalar_rk4(alpha, m, beta, launch, theta_end, steps)
            end = oracles._integrate(alpha, m, beta, launch, theta_end, steps)
            scale = max(abs(psi), abs(dpsi))
            assert abs(end.psi - psi) <= 1e-12 * scale
            assert abs(end.dpsi - dpsi) <= 1e-12 * scale
            assert end.theta == theta_end

    def test_root_search_integration_budget(self, monkeypatch):
        # at most 16 half-loop integrations per root, the final forward /
        # backward check included
        calls = []
        inner = oracles._integrate

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(oracles, "_integrate", counting)
        for m, parity, bracket in ((0, "even", (1.0, 1.3)), (0, "odd", (0.9, 1.05)),
                                   (1, "even", (0.1, 0.4)), (5, "even", (15.0, 15.3))):
            calls.clear()
            beta = rk_find_eigenvalue(ALPHA, m, parity, bracket).beta
            assert bracket[0] < beta < bracket[1]
            assert 3 <= len(calls) <= 16


class TestFdSpectrum:
    def test_trivial_mode(self):
        points = fd_spectrum(ALPHA, 0, grid_size=1024, k_lowest=1)
        assert abs(points[0].beta) < 1e-10

    def test_ground_state_within_discretization_error(self):
        points = fd_spectrum(ALPHA, 0, grid_size=1024, k_lowest=3)
        assert points[2].beta == pytest.approx(1.12229, abs=1e-4)

    def test_flat_ring_limit(self):
        points = fd_spectrum(1e-3, 0, grid_size=1024, k_lowest=5)
        betas = [p.beta for p in points]
        assert betas[0] == pytest.approx(0.0, abs=1e-6)
        assert betas[1:5] == pytest.approx([1.0, 1.0, 4.0, 4.0], abs=1e-2)

    def test_error_estimates_attached(self):
        points = fd_spectrum(ALPHA, 1, grid_size=256, k_lowest=4)
        assert all(p.error_estimate is not None for p in points)

    def test_grid_doubling_convergence(self):
        # extrapolated values gain at least 3x per doubling
        runs = {n: fd_spectrum(ALPHA, 0, grid_size=n, k_lowest=3)[2].beta
                for n in (256, 512, 1024)}
        d1 = abs(runs[512] - runs[256])
        d2 = abs(runs[1024] - runs[512])
        assert d1 >= 3 * d2

    def test_grid_validation(self):
        for bad in (63, 130          + 1, 4096):
            with pytest.raises(ValueError):
                fd_spectrum(ALPHA, 0, grid_size=bad)
        with pytest.raises(ValueError):
            fd_spectrum(ALPHA, 0, grid_size=256, k_lowest=0)


def _dense_periodic(alpha, m, n, offset=0.0):
    """Lowest-first spectrum of the whole periodic n x n matrix on offset + j h."""
    h = 2.0 * math.pi / n
    theta = offset + np.arange(n) * h
    w = 1.0 + alpha * np.sin(theta)
    wp = 1.0 + alpha * np.sin(theta + h / 2)
    wm = 1.0 + alpha * np.sin(theta - h / 2)
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, idx] = (wp + wm) / h**2 + m * m * alpha * alpha / w
    a[idx, (idx + 1) % n] = -wp / h**2
    a[idx, (idx - 1) % n] = -wm / h**2
    s = 1.0 / np.sqrt(w)
    sym = (a * s).T * s
    return np.linalg.eigvalsh(0.5 * (sym + sym.T))


class TestFdParitySectors:
    @pytest.mark.parametrize("n", [64, 65, 129, 130, 1024])
    @pytest.mark.parametrize("alpha", [1e-3, 0.5, 0.9])
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_sectors_partition_dense_spectrum(self, n, alpha, m):
        # an odd grid is mirror-symmetric when placed with a node at pi/2
        sectors = [oracles._fd_raw(alpha, m, n, p) for p in ("even", "odd")]
        assert sum(len(s) for s in sectors) == n
        merged = np.sort(np.concatenate(sectors))
        dense = _dense_periodic(alpha, m, n, offset=(n % 2) * math.pi / 2)
        assert np.max(np.abs(merged - dense)) <= 1e-9

    @pytest.mark.parametrize("n", [64, 66, 130, 1024])
    def test_merged_spectrum_matches_dense_richardson(self, n):
        # an odd half grid (65, 33) is solved with a node at pi/2; the dense
        # reference keeps it at 0, which the coarse 33 moves well inside the
        # extrapolation's error estimate
        for alpha, m in ((0.3, 0), (0.5, 1), (0.9, 3), (0.9, 0)):
            full, half = _dense_periodic(alpha, m, n), _dense_periodic(alpha, m, n // 2)
            ref = [max(0.0, f + (f - h) / 3.0) for f, h in zip(full[:12], half[:12])]
            got = fd_spectrum(alpha, m, grid_size=n, k_lowest=12)
            for point, r in zip(got, ref):
                tol = max(1e-9, 1e-4 * point.error_estimate) if n == 66 else 1e-9
                assert point.beta == pytest.approx(r, abs=tol)

    @pytest.mark.parametrize("n", [256, 258])
    def test_parity_labels_match_fourier(self, n):
        # m = 0 at alpha = 0.5: even 0, 1.122286, ...; odd 0.976731, ...
        even = [p.beta for p in fd_spectrum(ALPHA, 0, grid_size=n, k_lowest=3, parity="even")]
        odd = [p.beta for p in fd_spectrum(ALPHA, 0, grid_size=n, k_lowest=2, parity="odd")]
        assert even[0] == pytest.approx(0.0, abs=1e-9)
        assert even[1] == pytest.approx(1.122286, abs=1e-3)
        assert odd[0] == pytest.approx(0.976731, abs=1e-3)
        merged = [p.beta for p in fd_spectrum(ALPHA, 0, grid_size=n, k_lowest=5)]
        assert sorted(even + odd) == pytest.approx(merged, abs=1e-12)

    def test_parity_beyond_sector_is_rejected(self):
        with pytest.raises(ValueError):
            fd_spectrum(ALPHA, 0, grid_size=64, k_lowest=32, parity="odd")
        with pytest.raises(ValueError):
            fd_spectrum(ALPHA, 0, grid_size=64, k_lowest=2, parity="up")

    def test_k_lowest_past_first_descent_is_rejected(self):
        # 64 points, alpha 0.9, m 3: the even sector's extrapolated values
        # descend from index 14 on (234.4 -> 218.1), the odd from 13
        with pytest.raises(ValueError, match=r"k_lowest <= 14\b"):
            fd_spectrum(0.9, 3, grid_size=64, k_lowest=17, parity="even")
        even = [p.beta for p in fd_spectrum(0.9, 3, grid_size=64, k_lowest=14, parity="even")]
        assert even == sorted(even)
        with pytest.raises(ValueError, match=r"k_lowest <= 27\b"):
            fd_spectrum(0.9, 3, grid_size=64, k_lowest=28)
        merged = [p.beta for p in fd_spectrum(0.9, 3, grid_size=64, k_lowest=27)]
        assert merged == sorted(merged)
        # the sectors of a flat ring are nearly degenerate: the merge follows
        # the extrapolated values, not the full-grid ones
        flat = [p.beta for p in fd_spectrum(1e-3, 0, grid_size=64, k_lowest=32)]
        assert flat == sorted(flat)

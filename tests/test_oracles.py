import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    @pytest.mark.parametrize("alpha", (1.5, -0.2))
    def test_alpha_validation(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            rk_mismatch(alpha, 1, 0.25, "even", FAST)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(rk_step_count=10)

    def test_step_count_is_capped(self):
        # only the rejection is exercised: a count past the cap is never run
        assert OracleConfig(rk_step_count=oracles.RK_STEP_CAP).rk_step_count == oracles.RK_STEP_CAP
        for steps in (oracles.RK_STEP_CAP + 2, 1_000_000_000):
            with pytest.raises(ValueError, match="rk_step_count must be <="):
                OracleConfig(rk_step_count=steps)

    def test_forward_backward_disagreement_is_named(self, monkeypatch):
        # a backward path that does not mirror the forward one is reported
        # with the beta and the step count, not returned as a defect
        inner = oracles._integrate

        def perturbed(alpha, m, beta, state, theta_end, steps):
            end = inner(alpha, m, beta, state, theta_end, steps)
            if theta_end < state.theta:
                end = ShootingState(end.theta, end.psi + 0.1, end.dpsi + 0.1)
            return end

        monkeypatch.setattr(oracles, "_integrate", perturbed)
        for parity in ("even", "odd"):
            with pytest.raises(OracleError, match=r"beta=1\.2345\b.*\(steps=1024\)"):
                rk_mismatch(ALPHA, 1, 1.2345, parity, FAST)


class TestRkFindEigenvalue:
    @pytest.mark.parametrize("m,bracket", list(DE_VALUES))
    def test_reference_column(self, m, bracket):
        beta = rk_find_eigenvalue(ALPHA, m, "even", bracket).beta
        assert beta == pytest.approx(DE_VALUES[(m, bracket)], abs=5e-6)

    def test_odd_sector(self):
        beta = rk_find_eigenvalue(ALPHA, 0, "odd", (0.9, 1.05), FAST).beta
        assert beta == pytest.approx(0.976731, abs=5e-6)

    @pytest.mark.parametrize("alpha", (1.5, -0.2))
    def test_alpha_validation(self, alpha):
        # names alpha, where an unchecked search reports a BracketError
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            rk_find_eigenvalue(alpha, 1, "even", (0.2, 0.3), FAST)

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
    @pytest.mark.parametrize("alpha", (1.5, -0.2))
    def test_alpha_validation(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            rk_sample(alpha, 1, 0.25, "even", [0.1, 0.2], FAST)

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

    def test_divergence_reports_context(self):
        # a huge negative-beta-like configuration cannot arise through the
        # public API; force divergence with an absurd eigenvalue.  The
        # overflow on the way must not leak out as a numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OracleError, match=r"beta=100000000\.0, steps=128, theta="):
                rk_mismatch(ALPHA, 0, 1e8, "even", OracleConfig(rk_step_count=128))

    def test_parity_validation(self):
        with pytest.raises(ValueError, match="parity must be 'even' or 'odd', got 'evn'"):
            rk_sample(ALPHA, 1, 1.663, "evn", [0.1, 0.2], FAST)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_is_named(self, theta):
        with pytest.raises(ValueError, match=f"theta must be finite, got {theta}"):
            rk_sample(ALPHA, 1, 1.663, "even", [0.3, theta], FAST)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_sweep_matches_integration_from_launch(self, parity):
        # beta = 1.663 is no eigenvalue, yet every target in [-3pi/2, pi/2],
        # in any input order, is the initial-value trajectory: targets right
        # of -pi/2 against one forward integration from the launch each, and
        # those left of it (read off their mirror) against a backward one
        thetas = [1.2, -2.5, 0.3, -math.pi / 2, math.pi / 2, -4.5, 0.3, -1.0,
                  -3 * math.pi / 2, -1.7]
        samples = rk_sample(ALPHA, 1, 1.663, parity, thetas, FAST)
        assert [t for t, _ in samples] == thetas
        launch = oracles._launch(parity)
        for theta, value in samples:
            steps = max(2, round(1024 * abs(theta + math.pi / 2) / math.pi))
            ref = (launch.psi if theta == -math.pi / 2 else
                   oracles._integrate(ALPHA, 1, 1.663, launch, theta, steps).psi)
            assert value == pytest.approx(ref, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("m", [0, 3])
    @pytest.mark.parametrize("alpha", [0.1, 0.9])
    def test_batched_legs_equal_the_leg_by_leg_chain(self, parity, m, alpha):
        # targets on the launch's half loop, with repeats and in any order,
        # against one _integrate call per leg of the outward chain
        for thetas in ([math.pi * j / 12 - math.pi / 2 for j in range(13)],
                       [1.2, 0.3, -math.pi / 2, math.pi / 2, 0.3, -1.0, 1e-3]):
            samples = rk_sample(alpha, m, 2.3, parity, thetas, FAST)
            state = oracles._launch(parity)
            expected = {state.theta: state.psi}
            for theta in sorted(set(thetas) - {state.theta}):
                steps = max(2, int(round(1024 * (theta - state.theta) / math.pi)))
                state = oracles._integrate(alpha, m, 2.3, state, theta, steps)
                expected[theta] = state.psi
            for theta, value in samples:
                assert value == expected[theta]

    @pytest.mark.parametrize("thetas", [[2.0 * math.pi * j / 24 for j in range(24)],
                                        np.linspace(-4.5, 7.0, 47).tolist()])
    def test_legs_stay_on_the_launch_half_loop(self, monkeypatch, thetas):
        # compare's samples and a mix of both sides of the barrier: no leg
        # leaves [-pi/2, pi/2], and the legs take one half loop's steps
        # (plus the rounding of each leg's count up to 2 more)
        legs = []
        inner = oracles._coefficients

        def recording(alpha, m, start, end, steps):
            legs.extend((s, e, steps) for s, e in zip(start.ravel(), end.ravel()))
            return inner(alpha, m, start, end, steps)

        monkeypatch.setattr(oracles, "_coefficients", recording)
        for parity in ("even", "odd"):
            legs.clear()
            rk_sample(0.9, 3, 11.1, parity, thetas, FAST)
            assert legs
            assert all(-math.pi / 2 <= s < e <= math.pi / 2 for s, e, _ in legs)
            assert sum(steps for _, _, steps in legs) <= 1024 + 2 * len(legs)


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
        # backward check included, and at most 8 from a centred bracket
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
            # a bracket centred on the root: the search starts at its
            # midpoint, and 8 integrations suffice
            calls.clear()
            centred = rk_find_eigenvalue(ALPHA, m, parity, (beta - 0.1, beta + 0.1)).beta
            assert abs(centred - beta) <= 1e-10
            assert 3 <= len(calls) <= 8


class TestFdSpectrum:
    def test_trivial_mode(self):
        points = fd_spectrum(ALPHA, 0, grid_size=1024, k_lowest=1, parity="even")
        assert abs(points[0].beta) < 1e-10

    def test_ground_state_within_discretization_error(self):
        points = fd_spectrum(ALPHA, 0, grid_size=1024, k_lowest=2, parity="even")
        assert points[1].beta == pytest.approx(1.12229, abs=1e-4)

    def test_flat_ring_limit(self):
        even = [p.beta for p in fd_spectrum(1e-3, 0, grid_size=1024, k_lowest=3,
                                            parity="even")]
        odd = [p.beta for p in fd_spectrum(1e-3, 0, grid_size=1024, k_lowest=2,
                                           parity="odd")]
        assert even[0] == pytest.approx(0.0, abs=1e-6)
        assert even[1:] == pytest.approx([1.0, 4.0], abs=1e-2)
        assert odd == pytest.approx([1.0, 4.0], abs=1e-2)

    def test_error_estimates_attached(self):
        for parity in ("even", "odd"):
            points = fd_spectrum(ALPHA, 1, grid_size=256, k_lowest=4, parity=parity)
            assert all(p.error_estimate is not None for p in points)

    def test_grid_doubling_convergence(self):
        # extrapolated values gain at least 3x per doubling
        runs = {n: fd_spectrum(ALPHA, 0, grid_size=n, k_lowest=2, parity="even")[1].beta
                for n in (256, 512, 1024)}
        d1 = abs(runs[512] - runs[256])
        d2 = abs(runs[1024] - runs[512])
        assert d1 >= 3 * d2

    def test_grid_validation(self):
        for bad in (63, 130          + 1, 4096):
            with pytest.raises(ValueError):
                fd_spectrum(ALPHA, 0, grid_size=bad, parity="even")
        with pytest.raises(ValueError):
            fd_spectrum(ALPHA, 0, grid_size=256, k_lowest=0, parity="even")

    def test_parity_is_required(self):
        # every call answers for one sector; both are two calls away
        with pytest.raises(TypeError):
            fd_spectrum(ALPHA, 0, grid_size=64)
        with pytest.raises(TypeError):
            fd_spectrum(ALPHA, 0, 64, 2, "even")

    @pytest.mark.parametrize("alpha", [math.nan, 1.0, 1.5])
    def test_alpha_validation(self, alpha):
        # outside (0, 1) the weight 1 + alpha sin vanishes or turns negative,
        # and a NaN would never end the Sturm bisection
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            fd_spectrum(alpha, 0, grid_size=64, parity="even")

    def test_inertia_pass_budget_per_sector(self, monkeypatch):
        # the sectors are positive semidefinite, so the Sturm search starts
        # at the spectrum's floor instead of the Gershgorin bound, which
        # took 15-23 passes for k = 1 and 25-34 for k = 3
        calls = []
        inner = oracles._inertia

        def counting(*args):
            calls.append(args[1])
            return inner(*args)

        monkeypatch.setattr(oracles, "_inertia", counting)
        for alpha in (0.1, 0.5, 0.9):
            for m in (0, 1, 3, 6):
                for n in (1024, 1026):
                    for parity in ("even", "odd"):
                        for k, budget in ((1, 10), (3, 24)):
                            calls.clear()
                            oracles._fd_raw(alpha, m, n, parity, k)
                            assert len(calls) <= budget

    def test_semidefinite_start_keeps_the_constant_mode(self):
        # the m = 0 even sector's constant mode reads slightly below 0
        # (-5.3e-11 at 1026 points): the floor sits below it, and the
        # values match a search from the Gershgorin interval
        for n in (1024, 1026, 2048):
            got = oracles._fd_raw(0.5, 0, n, "even", 3)
            assert abs(got[0]) < 1e-10
            assert got[1] == pytest.approx(1.1223, abs=1e-3)
            mirror = _sector_matrix(0.5, 0, n, "even")
            general = oracles._lowest_eigenvalues(*mirror, 3)
            assert np.max(np.abs(got - general)) <= 1e-9

    def test_memory_is_linear_in_the_grid(self):
        # one dense n/2 x n/2 sector alone would take 8 MB at this grid
        tracemalloc.start()
        try:
            fd_spectrum(0.5, 1, grid_size=2048, k_lowest=4, parity="odd")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _sector_matrix(alpha, m, n, parity):
    """(diag, sub) of the symmetric sector matrix that _fd_raw solves."""
    captured = {}

    def capture(diag, sub, k, **_):
        captured["matrix"] = diag, sub
        return np.zeros(0)

    inner = oracles._lowest_eigenvalues
    oracles._lowest_eigenvalues = capture
    try:
        oracles._fd_raw(alpha, m, n, parity, 1)
    finally:
        oracles._lowest_eigenvalues = inner
    return captured["matrix"]


def _dense_periodic(alpha, m, n, offset=0.0):
    """Lowest-first spectrum of the whole periodic n x n matrix on offset + j h."""
    return np.linalg.eigvalsh(_periodic_matrix(alpha, m, n, offset))


def _dense_sector(alpha, m, n, parity):
    """Lowest-first spectrum of one mirror sector of the periodic matrix.

    theta -> pi - theta maps node j of pi/2 + j h to node -j; the sector is
    the matrix restricted to the vectors that the reflection keeps (even)
    or negates (odd).
    """
    sym = _periodic_matrix(alpha, m, n, offset=math.pi / 2)
    mirror = -np.arange(n) % n
    sign = 1.0 if parity == "even" else -1.0
    basis = np.eye(n) + sign * np.eye(n)[mirror]
    keep = [j for j in range(n) if j <= mirror[j] and np.any(basis[j])]
    q = basis[keep] / np.linalg.norm(basis[keep], axis=1)[:, None]
    return np.linalg.eigvalsh(q @ sym @ q.T)


def _periodic_matrix(alpha, m, n, offset):
    """The symmetrized periodic n x n matrix on offset + j h."""
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
    return 0.5 * (sym + sym.T)


class TestFdParitySectors:
    @pytest.mark.parametrize("n", [64, 65, 129, 130, 1024])
    @pytest.mark.parametrize("alpha", [1e-3, 0.5, 0.9])
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_sectors_partition_dense_spectrum(self, n, alpha, m):
        # every grid is placed with a node at pi/2, so it is mirror-symmetric
        sectors = [oracles._fd_raw(alpha, m, n, p, n) for p in ("even", "odd")]
        assert sum(len(s) for s in sectors) == n
        merged = np.sort(np.concatenate(sectors))
        dense = _dense_periodic(alpha, m, n, offset=math.pi / 2)
        assert np.max(np.abs(merged - dense)) <= 1e-9

    @pytest.mark.parametrize("n", [64, 66, 130, 1024])
    def test_merged_spectrum_matches_dense_richardson(self, n):
        # the two sector calls merged against the whole periodic grid and
        # its half, both with a node at pi/2 as the library places them
        for alpha, m in ((0.3, 0), (0.5, 1), (0.9, 3), (0.9, 0)):
            full, half = (_dense_periodic(alpha, m, g, offset=math.pi / 2)
                          for g in (n, n // 2))
            ref = [max(0.0, f + (f - h) / 3.0) for f, h in zip(full[:12], half[:12])]
            got = sorted(p.beta for parity in ("even", "odd")
                         for p in fd_spectrum(alpha, m, grid_size=n, k_lowest=12,
                                              parity=parity))[:12]
            assert got == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("n", [64, 66, 130, 1026])
    def test_half_grid_is_every_other_node(self, monkeypatch, n):
        # the grid and its half share the node at pi/2, so Richardson pairs
        # nested grids for every n
        grids = {}
        inner = oracles._fd_rows

        def recording(alpha, m, theta, h):
            grids[round(2.0 * math.pi / h)] = theta.copy()
            return inner(alpha, m, theta, h)

        monkeypatch.setattr(oracles, "_fd_rows", recording)
        oracles._fd_raw(0.5, 1, n, "even", 1)
        oracles._fd_raw(0.5, 1, n // 2, "even", 1)
        full, half = grids[n], grids[n // 2]
        for theta in (full, half):
            assert theta[0] == pytest.approx(math.pi / 2, abs=1e-15)
        assert half == pytest.approx(full[::2], rel=0, abs=1e-14)

    @pytest.mark.parametrize("n", [256, 258])
    def test_parity_labels_match_fourier(self, n):
        # m = 0 at alpha = 0.5: even 0, 1.122286, ...; odd 0.976731, ...
        even = [p.beta for p in fd_spectrum(ALPHA, 0, grid_size=n, k_lowest=3, parity="even")]
        odd = [p.beta for p in fd_spectrum(ALPHA, 0, grid_size=n, k_lowest=2, parity="odd")]
        assert even[0] == pytest.approx(0.0, abs=1e-9)
        assert even[1] == pytest.approx(1.122286, abs=1e-3)
        assert odd[0] == pytest.approx(0.976731, abs=1e-3)

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
        with pytest.raises(ValueError, match=r"k_lowest <= 13\b"):
            fd_spectrum(0.9, 3, grid_size=64, k_lowest=14, parity="odd")
        odd = [p.beta for p in fd_spectrum(0.9, 3, grid_size=64, k_lowest=13, parity="odd")]
        assert odd == sorted(odd)

    def test_k_lowest_before_first_descent_matches_dense(self):
        # 13 values end before the even sector's descent at index 14, so the
        # solve never reaches it; they are still the dense sectors' values
        full, half = (_dense_sector(0.9, 3, n, "even")[:13] for n in (64, 32))
        ref = full + (full - half) / 3.0
        got = [p.beta for p in fd_spectrum(0.9, 3, grid_size=64, k_lowest=13, parity="even")]
        assert got == pytest.approx(ref.tolist(), abs=1e-9)


@st.composite
def _tridiagonals(draw):
    """(diag, sub) around a centre, with entries of integers or floats in
    [-3, 3] times a spread.  Integer entries give exact zero subdiagonals
    (a split matrix, repeated blocks, multiple eigenvalues) and shifts that
    land on zero pivots; a spread of 1e-12 gives a tight cluster."""
    n = draw(st.integers(1, 40))
    entry = st.one_of(st.integers(-3, 3).map(float), st.floats(-3.0, 3.0))
    diag = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    sub = np.array(draw(st.lists(entry, min_size=n - 1, max_size=n - 1)))
    spread = draw(st.sampled_from([1e-6, 1.0, 1e6, 1e-12]))
    centre = 1.0 if spread == 1e-12 else 0.0
    return centre + spread * diag, spread * sub


class TestLowestEigenvalues:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_tridiagonals(), st.data())
    def test_matches_dense(self, matrix, data):
        diag, sub = matrix
        k = data.draw(st.integers(1, len(diag)))
        dense = np.linalg.eigvalsh(np.diag(diag) + np.diag(sub, -1) + np.diag(sub, 1))
        got = oracles._lowest_eigenvalues(diag, sub, k)
        norm = np.max(np.abs(diag)) + 2.0 * np.max(np.abs(sub), initial=0.0)
        assert got.shape == (k,)
        assert np.max(np.abs(got - dense[:k])) <= 32 * np.finfo(float).eps * norm

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_tridiagonals(), st.booleans(), st.data())
    def test_semidefinite_start_matches_dense(self, matrix, singular, data):
        # a diagonal that dominates its row is positive semidefinite; equal
        # to the row's off-diagonal sum it is singular, like an FD sector's
        # constant mode
        _, sub = matrix
        radius = np.zeros(len(sub) + 1)
        radius[1:] += np.abs(sub)
        radius[:-1] += np.abs(sub)
        diag = radius if singular else radius + np.abs(matrix[0])
        k = data.draw(st.integers(1, len(diag)))
        dense = np.linalg.eigvalsh(np.diag(diag) + np.diag(sub, -1) + np.diag(sub, 1))
        got = oracles._lowest_eigenvalues(diag, sub, k, semidefinite=True)
        norm = np.max(np.abs(diag)) + 2.0 * np.max(np.abs(sub), initial=0.0)
        assert got.shape == (k,)
        assert np.max(np.abs(got - dense[:k])) <= 32 * np.finfo(float).eps * norm

    def test_zero_pivot(self):
        # the first shift is the midpoint 0 of the Gershgorin interval
        # [-1, 1], where the first pivot vanishes and the moments are NaN
        below, g, _ = oracles._inertia([(0.0, 0.0), (0.0, 1.0)], 0.0)
        assert below == 1 and math.isnan(g)
        got = oracles._lowest_eigenvalues(np.zeros(2), np.ones(1), 2)
        assert got.tolist() == pytest.approx([-1.0, 1.0], abs=1e-15)

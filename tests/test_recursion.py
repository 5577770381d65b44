import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from toruseig.recursion import (
    RESCALE_THRESHOLD,
    CoefficientSeries,
    ModeSpec,
    _d_row_five,
    _d_row_three,
    propagate,
    reconstruct,
    residual,
)

ALPHA = 0.5
# converged even-sector m=0 ground state at alpha = 0.5
BETA_10 = 1.1222882712


def stored(d, parity, k) -> float:
    """d_k of a stored series: d_{-k} = d_k (even) or -d_k (odd), 0 past the order."""
    if abs(k) >= len(d):
        return 0.0
    return d[abs(k)] if k >= 0 or parity == "even" else -d[-k]


def complex_coefficient(series, n) -> complex:
    """c_n from the storage rule: i^n d_n (even) or i^(n-1) d_n (odd)."""
    shift = 0 if series.parity == "even" else 1
    return 1j ** (n - shift) * stored(series.d, series.parity, n)


def row_terms(row, series, n) -> list[float]:
    """Terms of row n applied to the series; the folded d_{-k} make rows n = 0, 1 whole."""
    half = len(row) // 2
    return [a * stored(series.d, series.parity, n + j - half) for j, a in enumerate(row)]


def relative_dot(row, series, n) -> float:
    terms = row_terms(row, series, n)
    scale = sum(map(abs, terms))
    return abs(sum(terms)) / scale if scale > 0 else abs(sum(terms))


class TestThreeTermRow:
    def test_center_row_multipliers(self):
        # at n = 0 the three multipliers reduce to (-beta, 2 beta/alpha, -beta)
        beta = 1.7
        tm, t0, tp = _d_row_three(0, ALPHA, beta)
        assert tp == pytest.approx(-beta)
        assert t0 == pytest.approx(2 / ALPHA * beta)
        assert tm == pytest.approx(-beta)

    def test_constant_series_is_zero_mode(self):
        series = propagate(1.0, ModeSpec(0, "even"), ALPHA, 0.0, 8)
        for n in range(0, 7):
            assert abs(sum(row_terms(_d_row_three(n, ALPHA, 0.0), series, n))) < 1e-14

    def test_flat_ring_limit_forces_integer_squares(self):
        # as alpha -> 0 the diagonal term dominates: rows demand beta -> n^2
        tm, t0, tp = _d_row_three(2, 1e-6, 4.0)
        assert abs(t0) < 1e-4 * max(abs(tm), abs(tp))

    def test_rows_annihilate_propagated_series(self):
        for parity in ("even", "odd"):
            series = propagate(1.0, ModeSpec(0, parity), ALPHA, 1.3, 12)
            for n in range(0, 11):
                assert relative_dot(_d_row_three(n, ALPHA, 1.3), series, n) < 1e-12

    @settings(max_examples=25, derandomize=True)
    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.05, max_value=20.0))
    def test_row_consistency_over_parameter_space(self, alpha, beta):
        # on the marching poles beta = k(k+1) propagate solves a nudged
        # problem instead (documented), so the exact-row identity is only
        # claimed away from that measure-zero set
        assume(min(abs(beta - k * (k + 1)) for k in range(1, 6)) > 1e-6)
        series = propagate(1.0, ModeSpec(0, "even"), alpha, beta, 8)
        for n in range(0, 7):
            assert relative_dot(_d_row_three(n, alpha, beta), series, n) < 1e-12

    def test_alpha_validation(self):
        # the stencil is private; its entry points reject alpha outside (0, 1)
        with pytest.raises(ValueError):
            propagate(1.0, ModeSpec(0, "even"), 1.5, 1.0, 4)


class TestFiveTermRow:
    def test_constant_series_is_zero_mode(self):
        # zero mode only exists for m = 0; here just check the stencil shape
        row = _d_row_five(0, ALPHA, 1, 0.0)
        assert len(row) == 5
        assert row[-1] != 0

    def test_m0_reduction_annihilates_three_term_series(self):
        # a three-term solution solves every five-term row: the five-term
        # relation is the weight-multiplied image of the three-term one
        series = propagate(1.0, ModeSpec(0, "even"), ALPHA, 1.3, 14)
        for n in range(0, 12):
            assert relative_dot(_d_row_five(n, ALPHA, 0, 1.3), series, n) < 1e-12

    def test_rows_annihilate_propagated_series(self):
        # includes the parity-folded rows at n = 0, 1 that fix the low seeds
        for m, parity in ((1, "even"), (1, "odd"), (5, "even")):
            series = propagate((1.0, 0.7), ModeSpec(m, parity), ALPHA, 0.9, 14)
            for n in range(0, 12):
                assert relative_dot(_d_row_five(n, ALPHA, m, 0.9), series, n) < 1e-12

    def test_tail_decays_at_eigenvalue(self):
        # at a converged eigenvalue the truncation is self-consistent
        from toruseig.eigensolver import _combined_series

        series, _ = _combined_series(ALPHA, ModeSpec(1, "even"), 0.2493680570, 10)
        assert abs(series.d[10]) / series.max_abs() < 1e-4


PROJECTION_ORDER = 12


class TestProjection:
    # the rows must be the Fourier projection of the equation itself: for
    # any stored d, row n applied to d equals the n-th FFT coefficient of
    # w^2 E[psi] (five-term) or (2/alpha) w E[psi] (three-term, m = 0),
    # divided by i^n (even) or i^(n-1) (odd), with w = 1 + alpha sin(theta)

    @pytest.mark.parametrize("parity", ("even", "odd"))
    @pytest.mark.parametrize("m", range(7))
    @settings(max_examples=8, derandomize=True, deadline=None)
    @given(alpha=st.floats(min_value=0.05, max_value=0.95),
           beta=st.floats(min_value=0.0, max_value=30.0),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_rows_are_projections_of_the_equation(self, parity, m, alpha, beta, seed):
        d = np.random.default_rng(seed).standard_normal(PROJECTION_ORDER + 1)
        if parity == "odd":
            d[0] = 0.0
        series = CoefficientSeries(order=PROJECTION_ORDER, m=m, parity=parity,
                                   d=tuple(d))
        size = 4 * PROJECTION_ORDER + 16
        th = np.arange(size) * (2.0 * math.pi / size)
        psi, dpsi, d2psi = reconstruct(series, th, derivatives=2)
        w = 1.0 + alpha * np.sin(th)
        families = [(lambda n: _d_row_five(n, alpha, m, beta),
                     w * w * (d2psi + beta * psi) + alpha * np.cos(th) * w * dpsi
                     - m * m * alpha * alpha * psi)]
        if m == 0:
            families.append((lambda n: _d_row_three(n, alpha, beta),
                             2.0 / alpha * (w * (d2psi + beta * psi)
                                            + alpha * np.cos(th) * dpsi)))
        shift = 0 if parity == "even" else 1
        for row, equation in families:
            projected = np.fft.fft(equation) / size
            span = range(-PROJECTION_ORDER - 2, PROJECTION_ORDER + 3)
            want = np.array([projected[n % size] / 1j ** (n - shift) for n in span])
            got = np.array([sum(row_terms(row(n), series, n)) for n in span])
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


class TestParity:
    @settings(max_examples=40, derandomize=True)
    @given(
        st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=3, max_size=8),
        st.sampled_from(["even", "odd"]),
    )
    def test_reflection_roundtrip(self, values, parity):
        if parity == "odd":
            values = [0.0] + values[1:]
        series = CoefficientSeries(order=len(values) - 1, m=0, parity=parity,
                                   d=tuple(values))
        sign = 1.0 if parity == "even" else -1.0
        th = np.linspace(-math.pi, math.pi, 37)
        psi = reconstruct(series, th)[0]
        reflected = reconstruct(series, math.pi - th)[0]
        assert np.allclose(reflected, sign * psi, rtol=0, atol=1e-13)

    def test_odd_requires_zero_head(self):
        with pytest.raises(ValueError):
            CoefficientSeries(order=2, m=0, parity="odd", d=(1.0, 0.5, 0.2))

    def test_type_validation(self):
        with pytest.raises(ValueError):
            ModeSpec(-1, "even")
        with pytest.raises(ValueError):
            ModeSpec(0, "sideways")
        with pytest.raises(ValueError):
            CoefficientSeries(order=3, m=0, parity="even", d=(1.0, 0.0))
        with pytest.raises(ValueError):
            propagate(1.0, ModeSpec(0, "even"), ALPHA, 1.0, 0)

    def test_odd_parity_c_minus_one_equals_c_one(self):
        # an odd state has c_{-n} = (-1)^(n+1) c_n; read both off an FFT of
        # the reconstruction and check the storage rule gives the same c_1
        series = propagate(1.0, ModeSpec(0, "odd"), ALPHA, 0.9767, 8)
        coeffs = np.fft.fft(reconstruct(series, np.arange(64) * 2 * math.pi / 64)[0]) / 64
        assert coeffs[-1] == pytest.approx(coeffs[1], abs=1e-15)
        assert coeffs[1] == pytest.approx(complex_coefficient(series, 1), abs=1e-15)
        assert complex_coefficient(series, -1) == complex_coefficient(series, 1)

    def test_reality_of_reconstruction(self):
        for parity, seeds, m in (("even", 1.0, 0), ("odd", 1.0, 0),
                                 ("even", (1.0, 0.3), 2), ("odd", (0.5, -0.2), 3)):
            series = propagate(seeds, ModeSpec(m, parity), ALPHA, 1.7, 10)
            thetas = np.arange(64) * 2 * math.pi / 64
            direct = np.zeros(64, dtype=complex)
            for n in range(-series.order, series.order + 1):
                direct += complex_coefficient(series, n) * np.exp(1j * n * thetas)
            peak = np.max(np.abs(direct))
            assert np.max(np.abs(direct.imag)) < 1e-12 * peak
            # and the real reconstruction agrees with the complex sum
            psi = reconstruct(series, thetas)[0]
            assert np.max(np.abs(psi - direct.real)) < 1e-12 * peak


class TestPropagate:
    def test_trivial_constant_mode(self):
        series = propagate(1.0, ModeSpec(0, "even"), ALPHA, 0.0, 10)
        assert series.d[0] == 1.0
        assert all(x == 0.0 for x in series.d[1:])

    def test_even_seed_ratio(self):
        # the n = 0 row pins d_1/d_0 = 1/alpha independently of beta
        for beta in (0.5, 1.1222882712, 7.3):
            series = propagate(1.0, ModeSpec(0, "even"), ALPHA, beta, 6)
            assert series.d[1] == pytest.approx(1.0 / ALPHA, abs=1e-15)

    def test_tail_negligible_at_eigenvalue(self):
        series = propagate(1.0, ModeSpec(0, "even"), ALPHA, BETA_10, 10)
        assert abs(series.d[10]) / series.max_abs() < 1e-4

    def test_seed_count_validation(self):
        with pytest.raises(ValueError):
            propagate((1.0, 2.0), ModeSpec(0, "even"), ALPHA, 1.0, 6)
        with pytest.raises(ValueError):
            propagate(1.0, ModeSpec(2, "even"), ALPHA, 1.0, 6)

    def test_rescale_guard_tracks_exponent(self):
        # far off any eigenvalue the series grows ~ x_+^n; a long march
        # overflows the window and must rescale instead of reaching inf
        series = propagate(1.0, ModeSpec(0, "even"), ALPHA, 0.77, 500)
        assert all(math.isfinite(x) for x in series.d)
        assert series.max_abs() <= RESCALE_THRESHOLD
        assert series.log_scale > 0

    def test_pole_nudge_keeps_march_finite(self):
        # beta = 2 sits on the first marching pole k(k+1)
        series = propagate((1.0, 1.0), ModeSpec(1, "even"), ALPHA, 2.0, 10)
        assert all(math.isfinite(x) for x in series.d)


class TestResidual:
    def test_constant_mode_is_exact(self):
        series = propagate(1.0, ModeSpec(0, "even"), ALPHA, 0.0, 10)
        assert residual(series, ALPHA, ModeSpec(0, "even"), 0.0) == 0.0

    def test_small_at_converged_eigenvalue(self):
        series = propagate(1.0, ModeSpec(0, "even"), ALPHA, BETA_10, 10)
        res = residual(series, ALPHA, ModeSpec(0, "even"), BETA_10)
        peak = float(np.max(np.abs(reconstruct(series, np.linspace(0, 2 * math.pi, 256))[0])))
        assert res / peak < 1e-3

    def test_orders_of_magnitude_larger_off_eigenvalue(self):
        mode = ModeSpec(0, "even")
        on = propagate(1.0, mode, ALPHA, BETA_10, 10)
        off = propagate(1.0, mode, ALPHA, 2.5, 10)
        r_on = residual(on, ALPHA, mode, BETA_10) / on.max_abs()
        r_off = residual(off, ALPHA, mode, 2.5) / off.max_abs()
        assert r_off > 1e3 * r_on

    def test_grid_precondition(self):
        series = propagate(1.0, ModeSpec(0, "even"), ALPHA, 1.0, 10)
        with pytest.raises(ValueError):
            residual(series, ALPHA, ModeSpec(0, "even"), 1.0, grid_size=16)

    def test_mode_mismatch_rejected(self):
        series = propagate(1.0, ModeSpec(0, "even"), ALPHA, 1.0, 10)
        with pytest.raises(ValueError):
            residual(series, ALPHA, ModeSpec(1, "even"), 1.0)

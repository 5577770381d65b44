import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toruseig.eigensolver import find_eigenvalues
from toruseig.recursion import CoefficientSeries, ModeSpec
from toruseig.wavefunction import (
    Eigenfunction,
    compare_scaled,
    evaluate,
    from_series,
    normalize,
    overlap,
    weighted_norm_sq_from_coefficients,
)

ALPHA = 0.5


@pytest.fixture(scope="module")
def m0_states():
    return find_eigenvalues(ALPHA, ModeSpec(0, "even"), order=12, beta_max=10.0)


@pytest.fixture(scope="module")
def psi10(m0_states):
    pair = [p for p in m0_states if not p.trivial][0]
    return from_series(pair.series, pair.beta, pair.mode, lambda_index=1)


class TestFromSeries:
    def test_constant_series(self):
        series = CoefficientSeries(order=4, m=0, parity="even",
                                   d=(1.0, 0.0, 0.0, 0.0, 0.0))
        psi = from_series(series, 0.0, ModeSpec(0, "even"))
        assert psi.a[0] == 1.0
        assert all(x == 0.0 for x in psi.a[1:]) and all(x == 0.0 for x in psi.b)

    def test_single_harmonic_maps_to_sine(self):
        # c_1 = -c_{-1} = i t is the even-parity structure of a pure sin(theta)
        t = 0.7
        series = CoefficientSeries(order=2, m=0, parity="even", d=(0.0, t, 0.0))
        psi = from_series(series, 0.0, ModeSpec(0, "even"))
        assert psi.b[1] == pytest.approx(-2 * t)
        assert psi.a[0] == 0.0 and psi.a[2] == 0.0
        th = np.linspace(0, 2 * math.pi, 17)
        assert np.allclose(evaluate(psi, th), -2 * t * np.sin(th), atol=1e-14)

    def test_ground_state_coefficient_ratios(self, psi10):
        # published shape: .1853 - .7413 sin(theta) + .0608 cos(2 theta),
        # printed with the cos(2 theta) sign flipped relative to the equation
        b1_over_a0 = psi10.b[1] / psi10.a[0]
        a2_over_a0 = psi10.a[2] / psi10.a[0]
        assert b1_over_a0 == pytest.approx(-0.7413 / 0.1853, rel=1e-2)
        assert abs(a2_over_a0) == pytest.approx(0.0608 / 0.1853, rel=1e-2)
        assert a2_over_a0 < 0

    def test_mode_mismatch_rejected(self):
        series = CoefficientSeries(order=2, m=0, parity="even", d=(1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            from_series(series, 0.0, ModeSpec(1, "even"))

    def test_reconstruction_matches_complex_sum(self, m0_states):
        pair = [p for p in m0_states if not p.trivial][1]
        psi = from_series(pair.series, pair.beta, pair.mode)
        th = np.arange(256) * 2 * math.pi / 256
        # storage rule of an even series: c_n = i^n d_n, with d_{-n} = d_n
        d = pair.series.d
        direct = np.zeros(256, dtype=complex)
        for n in range(-pair.series.order, pair.series.order + 1):
            direct += 1j ** n * d[abs(n)] * np.exp(1j * n * th)
        assert np.max(np.abs(evaluate(psi, th) - direct.real)) < 1e-12 * np.max(np.abs(direct))


class TestEvaluate:
    def test_deterministic_scalar_and_array(self, psi10):
        th = np.array([0.1, 0.2])
        arr = evaluate(psi10, th)
        assert arr[0] == evaluate(psi10, 0.1)

    def test_table_row_with_point_fit(self):
        # second even m=1 state sampled at the published thetas, scale fixed
        # at theta = -pi/3
        pairs = find_eigenvalues(ALPHA, ModeSpec(1, "even"), order=10, beta_max=2.0)
        pair = pairs[1]
        psi = from_series(pair.series, pair.beta, pair.mode)
        scale = 0.908836 / evaluate(psi, -math.pi / 3)
        assert scale * evaluate(psi, 0.0) == pytest.approx(0.270886, abs=5e-4)
        assert scale * evaluate(psi, math.pi / 2) == pytest.approx(-0.479280, abs=5e-4)

    def test_odd_parity_node(self):
        pairs = find_eigenvalues(ALPHA, ModeSpec(0, "odd"), order=10, beta_max=2.0)
        psi = from_series(pairs[0].series, pairs[0].beta, pairs[0].mode)
        assert abs(evaluate(psi, -math.pi / 2)) < 1e-12 * max(map(abs, psi.a + psi.b))


class TestNormalize:
    def test_constant_function(self):
        series = CoefficientSeries(order=2, m=0, parity="even", d=(1.0, 0.0, 0.0))
        psi = normalize(from_series(series, 0.0, ModeSpec(0, "even")), ALPHA)
        assert psi.a[0] == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)
        assert psi.normalization == "unit-weighted"

    def test_idempotent(self, psi10):
        once = normalize(psi10, ALPHA)
        twice = normalize(once, ALPHA)
        assert once.a == pytest.approx(twice.a, abs=1e-14)
        assert once.b == pytest.approx(twice.b, abs=1e-14)

    def test_unit_norm_and_orthogonality(self, m0_states):
        nontrivial = [p for p in m0_states if not p.trivial]
        psis = [normalize(from_series(p.series, p.beta, p.mode), ALPHA)
                for p in nontrivial[:3]]
        assert overlap(psis[0], psis[0], ALPHA) == pytest.approx(1.0, abs=1e-10)
        assert abs(overlap(psis[0], psis[1], ALPHA)) < 1e-6
        assert abs(overlap(psis[0], psis[2], ALPHA)) < 1e-6

    def test_sign_convention(self, psi10):
        psi = normalize(psi10, ALPHA)
        assert psi.a[0] > 0
        flipped = Eigenfunction(mode=psi.mode, beta=psi.beta,
                                a=tuple(-x for x in psi.a),
                                b=tuple(-x for x in psi.b))
        assert normalize(flipped, ALPHA).a[0] > 0

    def test_zero_function_rejected(self):
        psi = Eigenfunction(mode=ModeSpec(0, "even"), beta=0.0,
                            a=(0.0, 0.0), b=(0.0, 0.0))
        with pytest.raises(ValueError):
            normalize(psi, ALPHA)


class TestOverlap:
    def test_positive_definite(self, psi10):
        assert overlap(psi10, psi10, ALPHA) > 0

    def test_cross_parity_vanishes(self):
        even = find_eigenvalues(ALPHA, ModeSpec(0, "even"), order=10, beta_max=2.0)
        odd = find_eigenvalues(ALPHA, ModeSpec(0, "odd"), order=10, beta_max=2.0)
        pe = normalize(from_series(even[1].series, even[1].beta, even[1].mode), ALPHA)
        po = normalize(from_series(odd[0].series, odd[0].beta, odd[0].mode), ALPHA)
        assert abs(overlap(pe, po, ALPHA)) < 1e-12

    def test_same_m_eigenstates_orthogonal(self):
        pairs = find_eigenvalues(ALPHA, ModeSpec(1, "even"), order=10, beta_max=5.0)
        psis = [normalize(from_series(p.series, p.beta, p.mode), ALPHA)
                for p in pairs[:2]]
        assert abs(overlap(psis[0], psis[1], ALPHA)) < 1e-6

    def test_mismatched_m_rejected(self, psi10):
        other = Eigenfunction(mode=ModeSpec(1, "even"), beta=1.0,
                              a=(1.0, 0.0), b=(0.0, 0.0))
        with pytest.raises(ValueError):
            overlap(psi10, other, ALPHA)

    def test_parseval_identity(self, m0_states):
        for p in m0_states[:3]:
            psi = from_series(p.series, p.beta, p.mode)
            quad = overlap(psi, psi, ALPHA)
            closed = weighted_norm_sq_from_coefficients(psi, ALPHA)
            assert closed == pytest.approx(quad, abs=1e-10 * max(1.0, quad))


class TestParityPatterns:
    @pytest.mark.parametrize("m,parity,beta_max", [
        (0, "even", 10.0), (0, "odd", 10.0), (1, "even", 5.0), (1, "odd", 5.0),
    ])
    def test_forbidden_coefficients_vanish(self, m, parity, beta_max):
        pairs = find_eigenvalues(ALPHA, ModeSpec(m, parity), order=10,
                                 beta_max=beta_max)
        for p in pairs:
            psi = from_series(p.series, p.beta, p.mode)
            peak = max(max(map(abs, psi.a)), max(map(abs, psi.b)))
            assert psi.parity_violation() <= 1e-10 * peak


class TestFourierVsShootingPaths:
    def test_all_reference_states_agree_pointwise(self):
        # every tabulated state: the series eigenfunction and the integrated
        # trajectory are the same curve up to one scale factor
        from toruseig.oracles import OracleConfig, rk_find_eigenvalue, rk_sample

        cfg = OracleConfig(rk_step_count=1024)
        thetas = [2 * math.pi * j / 24 for j in range(24)]
        cases = [(0, 10.5, 3), (1, 5.5, 3), (5, 16.5, 3)]
        for m, beta_max, count in cases:
            pairs = find_eigenvalues(ALPHA, ModeSpec(m, "even"), order=10,
                                     beta_max=beta_max)
            nontrivial = [p for p in pairs if not p.trivial][:count]
            assert len(nontrivial) == count
            for p in nontrivial:
                beta_rk = rk_find_eigenvalue(
                    ALPHA, m, "even", (p.beta - 0.1, p.beta + 0.1), cfg).beta
                psi = from_series(p.series, p.beta, p.mode)
                fs = [(t, evaluate(psi, t)) for t in thetas]
                rk = rk_sample(ALPHA, m, beta_rk, "even", thetas, cfg)
                result = compare_scaled(fs, rk)
                peak = max(abs(v) for _, v in rk)
                assert result.max_abs_deviation < 1e-3 * peak


class TestCompareScaled:
    def test_identity(self):
        samples = [(0.0, 1.0), (1.0, -2.0), (2.0, 0.5)]
        result = compare_scaled(samples, samples)
        assert result.scale == pytest.approx(1.0)
        assert result.max_abs_deviation == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=40, derandomize=True)
    @given(st.floats(min_value=-100.0, max_value=100.0).filter(lambda s: abs(s) > 1e-3))
    def test_recovers_pure_scale(self, s):
        base = [(0.0, 1.0), (1.0, 0.3), (2.0, -0.8)]
        scaled = [(t, s * v) for t, v in base]
        result = compare_scaled(base, scaled)
        assert result.scale == pytest.approx(s, rel=1e-12)
        assert result.max_abs_deviation <= 1e-9 * abs(s)

    def test_degenerate_input_rejected(self):
        zeros = [(0.0, 0.0), (1.0, 0.0)]
        with pytest.raises(ValueError):
            compare_scaled(zeros, [(0.0, 1.0), (1.0, 1.0)])

    def test_mismatched_grids_rejected(self):
        with pytest.raises(ValueError):
            compare_scaled([(0.0, 1.0), (1.0, 1.0)], [(0.0, 1.0), (1.1, 1.0)])

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            compare_scaled([(0.0, 1.0)], [(0.0, 1.0)])

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from toruseig import recursion
from toruseig.recursion import (
    RESCALE_THRESHOLD,
    CoefficientSeries,
    ModeSpec,
    _d_row_five,
    _d_row_three,
    _march_five,
    march_five_safe,
    march_three_safe,
    propagate,
    reconstruct,
    residual,
)
from toruseig.wavefunction import evaluate, from_series

ALPHA = 0.5
# converged even-sector m=0 ground state at alpha = 0.5
BETA_10 = 1.1222882712

# march_three_safe(alpha, beta, parity, order) -> (d, log_scale), bit for bit:
# poles 2, 6 and 12 inside and outside each march's rows, and off-pole betas
PINNED_THREE = [
    (0.5, 2.0, "even", 2,
     [1.0, 2.0, 2000118265308.4785],
     0.0),
    (0.5, 6.0, "even", 2,
     [1.0, 2.0, 8.5],
     0.0),
    (0.5, 2.0, "odd", 3,
     [0.0, 1.0, 1333412176871.6523, 2666824353741.3047],
     0.0),
    (0.5, 12.0, "odd", 3,
     [0.0, 1.0, 4.4, 21.8],
     0.0),
    (0.3, 6.0, "even", 3,
     [1.0, 3.3333333333333335, 26.277777777768932, 48149976983090.42],
     0.0),
    (0.7, 12.0, "even", 4,
     [1.0, 1.4285714285714286, 3.289795918367076, 10.151603498536517,
      5175244675009.711],
     0.0),
    (0.9, 2.0, "odd", 4,
     [0.0, 1.0, 740784542706.4736, 823093936339.9089, 984054528335.0154],
     0.0),
    (0.9, 12.0, "odd", 20,
     [0.0, 1.0, 2.4444444444441555, 5.576131687239463, 1731432245683.462,
      1923813606311.8318, 2318076641678.029, 2966736976973.7275, 3963395630574.3784,
      5457599283177.246, 7679848105803.958, 10981063457397.355, 15893603988710.23,
      23224973762504.43, 34201507741761.625, 50688742218322.54, 75529705192122.06,
      113064812951092.92, 169931804081439.38, 256297967137908.7, 387760372131861.9],
     0.0),
    (0.5, 1.1222882712, "even", 20,
     [1.0, 2.0, 0.16404258582353837, 0.027235237089542015, 0.00533687076665951,
      0.0011306794796933273, 0.0002508594481558088, 5.739504236951052e-05,
      1.3433741013163536e-05, 3.2312413036170005e-06, 9.030815597570256e-07,
      6.428608602491682e-07, 1.60404165875782e-06, 5.3757964218404836e-06,
      1.8584242769986894e-05, 6.469937339678567e-05, 0.00022629635963192126,
      0.0007946624830114034, 0.0028003484541828326, 0.009899167379376074,
      0.03509148739383398],
     0.0),
    (1e-06, 7.3, "odd", 20,
     [0.0, 8.258297452824819e-101, 1.9632933567092963e-94, 9.96748934944383e-88,
      7.210524210236506e-82, 9.878985925832155e-76, 1.540599567287959e-69,
      2.548426949922375e-63, 4.3642465631103196e-57, 7.649235861771036e-51,
      1.3633583627869025e-44, 2.4612136364228673e-38, 4.4882115551116275e-32,
      8.252031198165517e-26, 1.5275940981603096e-19, 2.84417371803432e-13,
      5.321672698031085e-07, 1.0, 1886173.4181448247, 3569471894390.897,
      6.77500514647569e+18],
     230.449875945624),
]
# march_five_safe(alpha, m, beta, parity, order, (1.0, 0.7)) -> (d, log_scale)
PINNED_FIVE = [
    (0.5, 1, 2.0, "even", 2,
     [1.0, 0.7, -2533483136051.9395],
     0.0),
    (0.5, 1, 6.0, "even", 2,
     [1.0, 0.7, -5.300000000000001],
     0.0),
    (0.5, 2, 2.0, "odd", 2,
     [0.0, 1.0, 0.7],
     0.0),
    (0.5, 2, 6.0, "odd", 3,
     [0.0, 1.0, 0.7, -7314563536408.094],
     0.0),
    (0.5, 3, 2.0, "odd", 3,
     [0.0, 1.0, 0.7, -3.6],
     0.0),
    (0.3, 1, 12.0, "even", 3,
     [1.0, 0.7, -16.933333333333334, -372.537037037037],
     0.0),
    (0.7, 4, 12.0, "even", 4,
     [1.0, 0.7, 1.702040816322912, 19.04130223512404, 37707781736461.45],
     0.0),
    (0.7, 4, 2.0, "odd", 4,
     [0.0, 1.0, 0.7, -12.959183673469386, -46.917434402332354],
     0.0),
    (0.9, 0, 6.0, "odd", 4,
     [0.0, 1.0, 0.7, -2765537139535.5283, -3072819043919.3247],
     0.0),
    (0.99, 5, 12.0, "odd", 20,
     [0.0, 1.0, 0.7, 11.760194537941956, 22477315468641.89, 22704359059002.145,
      -101737443006601.86, -405090356340891.8, -649229537612025.9, -96035010089094.72,
      2332842667481381.5, 7175048968565552.0, 1.2743426880735774e+16,
      1.3181474267227904e+16, -2338847927862394.5, -4.712819718281308e+16,
      -1.289783003457494e+17, -2.3566623131508938e+17, -3.160136342824671e+17,
      -2.633629476254386e+17, 8.590231277652906e+16],
     0.0),
    (0.551591, 7, 2.0, "even", 20,
     [1.0, 0.7, 30157572573198.46, 54673793758620.68, -464383213291345.5,
      -3126003624154456.5, -9713210319695298.0, -1.3406609107426646e+16,
      3.902282527391528e+16, 3.723764420970974e+17, 1.7313856879673715e+18,
      6.189760075395401e+18, 1.8522713340328722e+19, 4.6481099009132356e+19,
      8.905900697174642e+19, 6.326739182384906e+19, -5.237657679790795e+20,
      -3.8482189793395564e+21, -1.8312248987712756e+22, -7.380041125799946e+22,
      -2.704949223376961e+23],
     0.0),
    (0.5, 1, 0.249368057, "even", 20,
     [1.0, 0.7, 0.9412894585803866, 1.1537475510355568, 0.5840702288224143,
      -4.432483974885152, -29.166818022610002, -133.651106290194, -546.619263743601,
      -2123.7693490613574, -8030.259277037876, -29889.380661795796,
      -110184.05077387826, -403707.5295107703, -1473327.9880649415,
      -5363105.521729325, -19490092.673136365, -70755591.642152, -256709906.62025478,
      -931085956.5484577, -3376716472.0548053],
     0.0),
    (1e-06, 2, 7.3, "odd", 20,
     [0.0, 2.6590189593394057e-101, 1.861313271537584e-101, -5.15440352005664e-88,
      -8.773447572591417e-83, 9.084334206252088e-77, 3.778165177383002e-70,
      9.339432105320563e-64, 2.039695817924455e-57, 4.237807587352135e-51,
      8.59035222096384e-45, 1.717809038327662e-38, 3.407678359541559e-32,
      6.726796877853556e-26, 1.3237990697046343e-19, 2.6001378480598234e-13,
      5.100955585885575e-07, 1.0, 1959681.748630985, 3839785767000.1816,
      7.523724724550595e+18],
     231.5831371499114),
]



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

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(alpha=st.floats(min_value=0.01, max_value=0.99),
           m=st.integers(min_value=0, max_value=6),
           parity=st.sampled_from(("even", "odd")),
           order=st.integers(min_value=3, max_value=40),
           beta=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=30.0)))
    def test_rows_annihilate_propagated_series(self, alpha, m, parity, order, beta):
        # every row the march solves, the parity-folded rows n = 0, 1 that
        # fix the low coefficients included, holds to rounding
        assume(all(abs(beta - k * (k + 1)) >= 1e-6 for k in range(1, order + 2)))
        d, log_scale = march_five_safe(alpha, m, beta, parity, order, (1.0, 0.7))
        series = CoefficientSeries(order=order, m=m, parity=parity, d=tuple(d),
                                   log_scale=log_scale)
        for n in range(order - 1):
            assert relative_dot(_d_row_five(n, alpha, m, beta), series, n) < 1e-12

    @pytest.mark.parametrize("parity", ("even", "odd"))
    def test_joint_march_is_one_march_per_column(self, parity):
        # at alpha 0.1 and order 120 every column rescales, each on its own
        seeds = ((1.0, 1.0), (1.0, -1.0), (0.3, 2.0))
        joint = _march_five(0.1, 3, 7.3, parity, 120, seeds)
        assert joint == [march_five_safe(0.1, 3, 7.3, parity, 120, s) for s in seeds]
        assert len({log_scale for _, log_scale in joint}) == 3
        assert all(log_scale > 0.0 for _, log_scale in joint)

    def test_tail_decays_at_eigenvalue(self):
        # at a converged eigenvalue the truncation is self-consistent: the
        # minimal solution has decayed by d_N
        from toruseig.eigensolver import _pencil, _series

        pencil = _pencil(lambda n, b: _d_row_five(n, ALPHA, 1, b), "even", 10)
        series = _series(pencil, ModeSpec(1, "even"), 0.2493680570, 10)
        assert abs(series.d[10]) / series.max_abs() < 1e-6
        assert abs(series.d[9]) / series.max_abs() < 1e-4


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

    def test_mode_spec_takes_any_integer_type(self):
        # numpy integers are stored as int, so JSON rendering sees an int
        mode = ModeSpec(np.int64(2), "even")
        assert mode.m == 2 and type(mode.m) is int
        assert type(ModeSpec(np.uint8(3), "odd").m) is int
        for bad in (2.0, np.float64(2.0), "2", -1, np.int64(-1)):
            with pytest.raises(ValueError, match="m must be a nonnegative integer, got"):
                ModeSpec(bad, "even")

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


class TestTrigonometricSum:
    @settings(max_examples=60, derandomize=True)
    @given(st.integers(0, 40), st.sampled_from(["even", "odd"]), st.integers(0, 2**32 - 1))
    def test_rows_match_complex_derivatives(self, order, parity, seed):
        # row j of reconstruct is sum_n (i n)^j c_n e^{i n theta}, with c_n
        # from the storage rule; d spans ten decades
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(order + 1) * 10.0 ** rng.uniform(-5, 5, order + 1)
        if parity == "odd":
            d[0] = 0.0
        series = CoefficientSeries(order=order, m=0, parity=parity, d=tuple(d))
        thetas = np.concatenate([np.linspace(-math.pi, math.pi, 29),
                                 rng.uniform(-10, 10, 8)])
        rows = reconstruct(series, thetas, derivatives=2)
        n = np.arange(-order, order + 1)
        c = np.array([complex_coefficient(series, k) for k in n])
        waves = np.exp(1j * np.outer(thetas, n))
        for j in range(3):
            weights = (1j * n) ** j if j else np.ones(n.size)
            direct = waves @ (weights * c)
            scale = np.sum(np.abs(weights * c))
            assert np.max(np.abs(direct.imag)) <= 1e-12 * scale
            assert np.max(np.abs(rows[j] - direct.real)) <= 1e-12 * scale
        psi = from_series(series, 0.0, ModeSpec(0, parity))
        assert np.array_equal(evaluate(psi, thetas), rows[0])


class TestMarch:
    @pytest.mark.parametrize("alpha,beta,parity,order,d,log_scale", PINNED_THREE)
    def test_three_term_values_are_pinned(self, alpha, beta, parity, order, d, log_scale):
        # a beta on a pole k(k+1), 1 <= k <= order - 1, marches at
        # beta + (1 + beta) 1e-12; any other beta marches as given
        assert repr(march_three_safe(alpha, beta, parity, order)) == repr((d, log_scale))

    @pytest.mark.parametrize("alpha,m,beta,parity,order,d,log_scale", PINNED_FIVE)
    def test_five_term_values_are_pinned(self, alpha, m, beta, parity, order, d, log_scale):
        # the poles here are k = floor + 1 .. order - 1 (floor 0 even, 1 odd)
        result = march_five_safe(alpha, m, beta, parity, order, (1.0, 0.7))
        assert repr(result) == repr((d, log_scale))

    @pytest.mark.parametrize("beta", (math.inf, -math.inf, math.nan))
    def test_beta_validation(self, beta):
        calls = (lambda: march_three_safe(ALPHA, beta, "even", 6),
                 lambda: march_five_safe(ALPHA, 1, beta, "odd", 6, (1.0, 0.7)),
                 lambda: propagate(1.0, ModeSpec(0, "odd"), ALPHA, beta, 6),
                 lambda: propagate((1.0, 0.7), ModeSpec(2, "even"), ALPHA, beta, 6))
        for call in calls:
            with pytest.raises(ValueError, match="beta must be finite"):
                call()

    @pytest.mark.parametrize("march,where", (
        (lambda: march_three_safe(1e-300, 7.3, "even", 10), "d_2 (alpha 1e-300, beta 7.3)"),
        (lambda: march_five_safe(1e-160, 1, 7.3, "even", 10, (1.0, 0.7)),
         "d_2 (alpha 1e-160, beta 7.3)"),
        # row 56 overflows to +inf and -inf in its terms: d_58 is NaN, not inf
        (lambda: march_five_safe(0.5, 1, 1.412373664491162e275, "even", 80, (1.0, 0.7)),
         "d_58 (alpha 0.5, beta 1.412373664491162e+275)")),
        ids=("three", "five", "five_nan"))
    def test_overflow_names_alpha_and_beta(self, march, where):
        # past float range from below the 1e100 rescale threshold in one row
        with pytest.raises(ArithmeticError, match=re.escape("march overflowed at " + where)):
            march()


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

    def test_default_grid_above_order_64(self):
        # the grid grows with the order (4 points per harmonic past 256)
        series = propagate(1.0, ModeSpec(0, "even"), ALPHA, 1.0, 80)
        res = residual(series, ALPHA, ModeSpec(0, "even"), 1.0)
        assert math.isfinite(res) and res > 0.0

    def test_mode_mismatch_rejected(self):
        series = propagate(1.0, ModeSpec(0, "even"), ALPHA, 1.0, 10)
        with pytest.raises(ValueError):
            residual(series, ALPHA, ModeSpec(1, "even"), 1.0)

    def test_peak_comes_from_the_same_reconstruction(self, monkeypatch):
        # the eigensolver's residual and max |psi| on the residual's grid,
        # bit for bit, from one reconstruction instead of two
        mode = ModeSpec(0, "even")
        series = propagate(1.0, mode, ALPHA, BETA_10, 20)
        grid = recursion._residual_grid(series.order)
        expected = (residual(series, ALPHA, mode, BETA_10),
                    float(np.max(np.abs(reconstruct(series, grid)[0]))))
        calls = []
        monkeypatch.setattr(recursion, "reconstruct",
                            lambda *a, **kw: calls.append(a) or reconstruct(*a, **kw))
        assert recursion._residual_and_peak(series, ALPHA, mode, BETA_10) == expected
        assert len(calls) == 1

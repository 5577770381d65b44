import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from toruseig import eigensolver, recursion
from toruseig.eigensolver import (
    DEFAULT_SEEDS,
    POLE_GAP,
    coefficient_polynomials,
    determinant,
    determinant_scan,
    find_eigenvalues,
    roots_warm_started,
)
from toruseig.oracles import fd_spectrum
from toruseig.recursion import (
    ModeSpec,
    _d_row_five,
    _d_row_three,
    march_five_safe,
    march_three_safe,
)

ALPHA = 0.5

# reference table values (eigenvalue columns, even sector, alpha = 0.5)
TABLE_M0_N10 = [1.122288, 4.051724, 9.041071]
TABLE_M1_N10 = [0.249368, 1.663015, 4.476692]
TABLE_M5_N10 = [3.705427, 8.853639, 15.164616]


def two_march_determinant(alpha, mode, beta, order):
    """The normalized determinant from one single-seed march per column."""
    (a_n, a_n1), (b_n, b_n1) = (
        march_five_safe(alpha, mode.m, beta, mode.parity, order + 1, s)[0][order:]
        for s in DEFAULT_SEEDS)
    na, nb = math.hypot(a_n, a_n1), math.hypot(b_n, b_n1)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return (a_n * b_n1 - a_n1 * b_n) / (na * nb)


def d_changes_sign(alpha, parity, order, beta):
    """Whether the marched d_order changes sign across beta +/- 1e-9 max(1, beta)."""
    h = 1e-9 * max(1.0, beta)
    lo, hi = (march_three_safe(alpha, b, parity, order)[0][order] for b in (beta - h, beta + h))
    return lo * hi < 0.0


def signed_determinant(alpha, mode, beta, order):
    """``determinant`` with its sign flipped once per marching pole below beta:
    the sign of the numerator, which changes only at roots."""
    flips = sum(p < beta for p in eigensolver._poles(mode.parity, order))
    return determinant(alpha, mode, beta, order) * (-1) ** flips


def bisect_determinant(alpha, mode, order, lo, hi, tol=1e-12):
    """A root of ``signed_determinant`` in [lo, hi], where it changes sign,
    halved to tol."""
    flo = signed_determinant(alpha, mode, lo, order)
    assert flo * signed_determinant(alpha, mode, hi, order) < 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = signed_determinant(alpha, mode, mid, order)
        if fmid == 0.0:
            return mid
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def comprehension_grid(parity, order, top, scan_step):
    """The scan grid, each step checked against every pole: the multiples of
    scan_step up to top, with one within POLE_GAP of a pole p moved to
    p - POLE_GAP."""
    poles = eigensolver._poles(parity, order)
    steps = [scan_step * k for k in range(int(math.floor(top / scan_step)) + 1)]
    return [next((p - POLE_GAP for p in poles if abs(b - p) <= POLE_GAP), b) for b in steps]


def real_block_roots(alpha, mode, order, beta_max):
    """The real roots up to beta_max of the order-N block of the five-term
    pencil, ascending."""
    pencil = eigensolver._pencil(lambda n, b: _d_row_five(n, alpha, mode.m, b),
                                 mode.parity, order)
    roots = eigensolver._block_roots(pencil, mode.parity, order)
    return sorted(float(r.real) for r in roots if r.imag == 0.0 and r.real <= beta_max)


# determinant(alpha, ModeSpec(m, parity), beta, order), bit for bit
PINNED_DETERMINANTS = [
    (0.5, 1, "even", 2.0, 10, 1.7543751854565962e-13),
    (0.5, 1, "even", 6.0, 10, 8.351500019927546e-14),
    (0.5, 2, "odd", 6.0, 10, 4.489588620621141e-14),
    (0.5, 1, "odd", 2.0, 3, 0.15185341405478064),
    (0.5, 0, "odd", 12.0, 4, 8.717875557994005e-14),
    (0.3, 0, "even", 0.0, 10, 0.0),
    (0.5, 0, "even", 1.1222882712, 10, 1.7837086659669544e-12),
    (0.5, 1, "even", 0.249368057, 10, 1.9899357898943065e-11),
    (0.1, 3, "even", 7.3, 2, -0.0008117948115183573),
    (0.9, 4, "odd", 13.7, 2, -0.07231624926408055),
    (0.7, 6, "even", 25.0, 3, 0.006667032403752028),
    (0.9, 1, "odd", 1.3, 3, -0.6190214086254945),
    (0.05, 5, "odd", 123.4, 20, -7.438578918909034e-07),
    (0.99, 2, "even", 30.0, 40, 6.470088690683059e-13),
    (0.551591, 7, "odd", 1999.5, 80, 2.1692480547544968e-09),
]


class _TooManyCalls(Exception):
    pass


class TestCoefficientPolynomials:
    def test_degree_grows_by_one(self):
        polys = coefficient_polynomials(ALPHA, "even", 12)
        for p in polys:
            assert p.degree == p.source_index - 1

    def test_odd_sector_degrees(self):
        polys = coefficient_polynomials(ALPHA, "odd", 8)
        for p in polys:
            assert p.degree == p.source_index - 1

    @pytest.mark.parametrize("parity,beta", [("even", 1.37), ("even", 5.9),
                                             ("odd", 0.61), ("odd", 3.3)])
    def test_matches_marched_coefficients(self, parity, beta):
        # q_n / prod of leading multipliers reproduces the marched d_n
        polys = coefficient_polynomials(ALPHA, parity, 9)
        d, log_scale = march_three_safe(ALPHA, beta, parity, 9)
        assert log_scale == 0.0
        denom = 1.0
        for n in range(1, 10):
            if n >= 2:
                k = n - 1
                denom *= k * (k + 1) - beta
            expected = polys[n - 1].eval(beta) / denom
            assert expected == pytest.approx(d[n], rel=1e-10, abs=1e-12)

    def test_even_n10_roots_cover_reference_values(self):
        roots = roots_warm_started(ALPHA, "even", 10)[-1]
        for ref in TABLE_M0_N10:
            assert min(abs(r - ref) for r in roots) < 5e-6

    def test_low_order_root_set_is_small(self):
        # the order-3 numerator has degree 2: two roots, no third state yet
        roots = roots_warm_started(ALPHA, "even", 3)[-1]
        assert len(roots) == 2
        assert roots == pytest.approx([1.123791, 4.106978], abs=5e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            coefficient_polynomials(1.2, "even", 5)
        with pytest.raises(ValueError):
            coefficient_polynomials(ALPHA, "even", 0)

    def test_overflow_raises(self):
        # the coefficients pass float range at d_75 (alpha 0.1); no NaN
        # polynomial and no RuntimeWarning
        with pytest.raises(OverflowError, match="d_75"):
            coefficient_polynomials(0.1, "even", 80)


class TestRootsWarmStarted:
    def test_degree_zero_guard(self):
        assert roots_warm_started(ALPHA, "even", 1) == [[]]

    def test_ground_state_trajectory(self):
        roots = roots_warm_started(ALPHA, "even", 10)
        assert roots[2][0] == pytest.approx(1.1237908, abs=5e-6)
        assert roots[4][0] == pytest.approx(1.1222961, abs=5e-6)
        assert roots[9][0] == pytest.approx(1.1222883, abs=5e-6)

    def test_rows_sorted_ascending(self):
        for betas in roots_warm_started(ALPHA, "odd", 10):
            assert betas == sorted(betas)

    def test_newest_root_tracks_square_of_previous_index(self):
        final = roots_warm_started(ALPHA, "even", 12)[-1]
        assert final[-1] == pytest.approx(121.41, abs=5e-3)  # near (12 - 1)^2

    @pytest.mark.parametrize("alpha", (0.1, 0.5, 0.9, 0.99))
    @pytest.mark.parametrize("parity", ("even", "odd"))
    def test_eq14_roots_to_order_120(self, alpha, parity):
        # entry k holds the k - 1 real roots of the d_k numerator, ascending;
        # the marched d_k changes sign across each, and each root does not
        # rise with k (the paper's warm start)
        roots = roots_warm_started(alpha, parity, 120)
        assert len(roots) == 120
        for k, lams in enumerate(roots, start=1):
            assert len(lams) == k - 1
            assert all(type(x) is float for x in lams)
            assert lams == sorted(lams)
        for k in (20, 60, 120):
            for lam in roots[k - 1]:
                assert d_changes_sign(alpha, parity, k, lam)
        # Cauchy interlacing: lambda^i_{k+1} <= lambda^i_k <= lambda^{i+1}_{k+1}
        for prev, cur in zip(roots, roots[1:]):
            for lam_prev, lam in zip(prev, cur):
                assert lam <= lam_prev * (1.0 + 2e-12)
            for lam_prev, lam_next in zip(prev, cur[1:]):
                assert lam_prev <= lam_next

    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(alpha=st.floats(min_value=-12.0, max_value=math.log10(0.99))
           .map(lambda e: 10.0 ** e),
           parity=st.sampled_from(("even", "odd")))
    # an unsymmetric eigensolve, eigvals(solve(B, -A)), breaks both bounds here
    @example(alpha=0.615369610380671, parity="even")
    @example(alpha=0.615369610380671, parity="odd")
    def test_roots_are_ritz_values(self, alpha, parity):
        # each order adds a basis vector to a symmetric-definite problem, so
        # the i-th root never rises with the order and stays above its
        # order-200 value, to rounding; every root is positive
        roots = roots_warm_started(alpha, parity, 200)
        for order in range(4, 61):
            for i, beta in enumerate(roots[order - 1]):
                assert beta > 0.0
                assert roots[order + 1][i] <= beta * (1.0 + 1e-12)
                assert roots[-1][i] <= beta * (1.0 + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            roots_warm_started(1.2, "even", 5)
        with pytest.raises(ValueError):
            roots_warm_started(ALPHA, "even", 0)


class TestDeterminant:
    def test_zero_at_reference_eigenvalue(self):
        val = determinant(ALPHA, ModeSpec(1, "even"), 0.249368, 10)
        assert abs(val) < 1e-5

    def test_bounded_away_between_eigenvalues(self):
        val = determinant(ALPHA, ModeSpec(1, "even"), 0.9, 10)
        assert abs(val) > 1e-3

    def test_values_lie_in_unit_interval(self):
        for beta in np.linspace(0.05, 5.0, 37):
            v = determinant(ALPHA, ModeSpec(1, "odd"), float(beta), 10)
            assert -1.0 <= v <= 1.0

    @settings(max_examples=30, derandomize=True)
    @given(st.floats(min_value=1e-6, max_value=1e6),
           st.floats(min_value=1e-6, max_value=1e6))
    def test_seed_scale_invariance(self, sa, sb):
        base = determinant(ALPHA, ModeSpec(1, "even"), 1.4, 8)
        scaled = determinant(
            ALPHA, ModeSpec(1, "even"), 1.4, 8,
            seeds=((sa, sa), (sb, -sb)),
        )
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_m0_crosscheck_against_polynomial_route(self):
        # converged truncation: eq. (14)'s root and the determinant's zero
        # must agree to 1e-9
        poly_root = min(roots_warm_started(ALPHA, "even", 16)[-1])
        det_root = bisect_determinant(ALPHA, ModeSpec(0, "even"), 16, 1.0, 1.3)
        assert abs(poly_root - det_root) < 1e-9

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(alpha=st.floats(min_value=0.01, max_value=0.99),
           m=st.integers(min_value=1, max_value=9),
           parity=st.sampled_from(["even", "odd"]),
           order=st.one_of(st.integers(min_value=2, max_value=40),
                           st.integers(min_value=80, max_value=400)),
           beta=st.one_of(st.floats(min_value=0.0, max_value=60.0),
                          st.integers(min_value=1, max_value=20).map(lambda k: k * (k + 1.0))))
    @example(alpha=0.1, m=3, parity="even", order=120, beta=7.3)   # both columns rescale
    @example(alpha=0.3, m=2, parity="odd", order=200, beta=14.1)
    @example(alpha=0.5, m=1, parity="even", order=10, beta=6.0)    # on a pole: both step off
    @example(alpha=0.7, m=4, parity="odd", order=200, beta=12.0)
    def test_joint_march_equals_two_single_marches(self, alpha, m, parity, order, beta):
        mode = ModeSpec(m, parity)
        assert determinant(alpha, mode, beta, order) == two_march_determinant(
            alpha, mode, beta, order)

    @pytest.mark.parametrize("order", (2, 3, 10, 40))
    @pytest.mark.parametrize("parity", ("even", "odd"))
    def test_each_row_is_built_once(self, order, parity, monkeypatch):
        rows = []
        row = recursion._d_row_five
        monkeypatch.setattr(recursion, "_d_row_five",
                            lambda *a: rows.append(a[0]) or row(*a))
        determinant(ALPHA, ModeSpec(2, parity), 3.3, order)
        assert len(rows) <= order + 1
        assert len(rows) == len(set(rows))

    def test_order_validation(self):
        with pytest.raises(ValueError):
            determinant(ALPHA, ModeSpec(1, "even"), 1.0, 1)

    def test_singular_seeds_rejected(self):
        with pytest.raises(ValueError):
            determinant(ALPHA, ModeSpec(1, "even"), 1.0, 8,
                        seeds=((1.0, 1.0), (2.0, 2.0)))

    @pytest.mark.parametrize("alpha", (1.5, -0.2, 0.0))
    def test_alpha_validation(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            determinant(alpha, ModeSpec(1, "even"), 0.3, 10)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(alpha=st.floats(min_value=-140.0, max_value=-1.0).map(lambda e: 10.0 ** e),
           m=st.integers(min_value=0, max_value=7),
           parity=st.sampled_from(["even", "odd"]),
           order=st.integers(min_value=2, max_value=80),
           beta=st.one_of(st.floats(min_value=0.0, max_value=2000.0),
                          st.integers(min_value=1, max_value=44).map(lambda k: k * (k + 1.0))))
    @example(alpha=1e-62, m=0, parity="even", order=2, beta=0.37)  # d_3 ~ 8.5e185
    @example(alpha=1.4e-140, m=3, parity="odd", order=40, beta=810.54)
    def test_finite_at_small_alpha(self, alpha, m, parity, order, beta):
        # every row, the folded rows 0 and 1 included, rescales past 1e100,
        # so no product of the 2x2 overflows; below alpha ~ 1e-29 the value
        # is finite but not accurate (both columns near the dominant solution)
        value = determinant(alpha, ModeSpec(m, parity), beta, order)
        assert isinstance(value, float) and -1.0 <= value <= 1.0

    @pytest.mark.parametrize("beta", (math.inf, -math.inf, math.nan))
    def test_beta_validation(self, beta):
        with pytest.raises(ValueError, match="beta must be finite"):
            determinant(ALPHA, ModeSpec(1, "even"), beta, 10)

    @pytest.mark.parametrize("alpha", (1e-170, 3e-162, 5e-324))
    def test_underflowing_alpha_is_named(self, alpha):
        # alpha^2/4 underflows to 0, and with it every five-term divisor:
        # an ArithmeticError naming alpha, not a bare ZeroDivisionError
        for call in (lambda: determinant(alpha, ModeSpec(1, "even"), 7.3, 10),
                     lambda: march_five_safe(alpha, 1, 7.3, "odd", 10, (1.0, 0.7))):
            with pytest.raises(ArithmeticError, match=f"alpha {alpha} is too small"):
                call()

    @pytest.mark.parametrize("alpha,m,parity,beta,order,value", PINNED_DETERMINANTS)
    def test_values_are_pinned(self, alpha, m, parity, beta, order, value):
        # exact floats, poles (2, 6, 12) and orders 2 and 3 included: the
        # march's parity-folded rows 0 and 1 must not move a single bit
        assert repr(determinant(alpha, ModeSpec(m, parity), beta, order)) == repr(value)


class TestFindEigenvalues:
    def test_m0_even_reference_states(self):
        pairs = find_eigenvalues(ALPHA, ModeSpec(0, "even"), order=10, beta_max=10)
        assert pairs[0].trivial and pairs[0].beta == 0.0
        betas = [p.beta for p in pairs if not p.trivial]
        assert betas == pytest.approx(TABLE_M0_N10, abs=5e-6)

    def test_m1_even_reference_states(self):
        pairs = find_eigenvalues(ALPHA, ModeSpec(1, "even"), order=10, beta_max=5)
        assert [p.beta for p in pairs] == pytest.approx(TABLE_M1_N10, abs=5e-6)

    def test_m5_sorted_and_artifact_free(self):
        pairs = find_eigenvalues(ALPHA, ModeSpec(5, "even"), order=10, beta_max=16)
        betas = [p.beta for p in pairs]
        assert betas == sorted(betas)
        assert betas == pytest.approx(TABLE_M5_N10, abs=5e-6)
        # the scan undoes the determinant's sign flip at the marching poles
        # 2, 6 and 12, so no flip is reported as a state there
        for b in betas:
            assert min(abs(b - k * (k + 1)) for k in range(1, 5)) > POLE_GAP

    def test_convergence_estimate_bounds_next_order(self):
        # the order-12 value must lie within the reported estimate
        pairs = find_eigenvalues(ALPHA, ModeSpec(1, "even"), order=10, beta_max=5)
        for p in pairs:
            est = p.diagnostics.convergence_estimate
            b12 = p.diagnostics.beta_by_order.get(12)
            assert est is not None and b12 is not None
            assert abs(p.beta - b12) <= est

    def test_order_convergence_tightens(self):
        # |beta(10) - beta(12)| < |beta(5) - beta(10)| for every table state
        for m, window in ((0, (1.0, 1.3)), (1, (4.3, 4.6)), (5, (15.0, 15.3))):
            mode = ModeSpec(m, "even")
            betas = {}
            for order in (5, 10, 12):
                acc, _ = determinant_scan(ALPHA, mode, order,
                                          beta_max=window[1] + 0.5, scan_step=0.02)
                close = [p.beta for p in acc if window[0] <= p.beta <= window[1]]
                assert close, (m, order)
                betas[order] = close[0]
            assert abs(betas[10] - betas[12]) < abs(betas[5] - betas[10])

    def test_flat_ring_limit(self):
        betas = []
        for parity in ("even", "odd"):
            pairs = find_eigenvalues(1e-3, ModeSpec(0, parity), order=10,
                                     beta_max=6.0)
            betas += [p.beta for p in pairs if not p.trivial]
        betas.sort()
        assert betas[:4] == pytest.approx([1.0, 1.0, 4.0, 4.0], abs=1e-5)

    def test_alternate_geometry_matches_fd_oracle(self):
        # nothing is tuned to the reference aspect ratio: at alpha = 0.3 the
        # m = 2 spectrum must still track the independent discretization,
        # state by state in each sector
        alpha = 0.3
        found = 0
        for parity in ("even", "odd"):
            pairs = find_eigenvalues(alpha, ModeSpec(2, parity), order=12,
                                     beta_max=10.0)
            fd = [s.beta for s in fd_spectrum(alpha, 2, grid_size=1024,
                                              k_lowest=len(pairs), parity=parity)]
            for p, f in zip(pairs, fd):
                assert abs(p.beta - f) < 1e-6
            found += len(pairs)
        assert found >= 6

    def test_completeness_matches_fd_oracle(self):
        for parity in ("even", "odd"):
            pairs = find_eigenvalues(ALPHA, ModeSpec(0, parity), order=12,
                                     beta_max=10.0)
            mine = [p.beta for p in pairs if not p.trivial]
            fd = [s.beta for s in fd_spectrum(ALPHA, 0, grid_size=1024, k_lowest=12,
                                              parity=parity)
                  if 1e-6 < s.beta <= 10.0]
            assert len(mine) == len(fd)

    def test_validation(self):
        with pytest.raises(ValueError):
            find_eigenvalues(ALPHA, ModeSpec(0, "even"), beta_max=-1.0)
        for m in (0, 1):
            with pytest.raises(ValueError, match="finite"):
                find_eigenvalues(ALPHA, ModeSpec(m, "even"), beta_max=math.inf)

    @pytest.mark.parametrize("m,parity,beta_max", [
        (0, "even", 10.5), (0, "odd", 10.5), (1, "even", 5.5), (5, "even", 16.5),
    ])
    def test_accepted_pairs_pass_the_residual_screen(self, m, parity, beta_max):
        pairs = find_eigenvalues(ALPHA, ModeSpec(m, parity), order=10,
                                 beta_max=beta_max)
        assert pairs
        for p in pairs:
            assert p.diagnostics.residual_rel <= 0.5

    def test_converged_is_the_order_n_versus_n2_rule(self):
        # the sweep's sectors at order 10, where both verdicts occur: the
        # trivial state, or |beta_N - beta_N+2| (padded) below 1e-6
        verdicts = []
        for alpha, m, parity in itertools.product((0.1, 0.5, 0.551591, 0.9), range(7),
                                                  ("even", "odd")):
            for p in find_eigenvalues(alpha, ModeSpec(m, parity), order=10, beta_max=25.0):
                est = p.diagnostics.convergence_estimate
                assert p.converged == (p.trivial or (est is not None and est < 1e-6))
                verdicts.append(p.converged)
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("alpha,m,parity,order,index,beta", [
        (0.1, 1, "even", 10, 0, 0.010048345),  # below the scan step
        (0.5, 4, "even", 10, 2, 12.012663932),  # next to the pole at 12
        (0.5, 4, "even", 20, 2, 12.012663932),
        (0.551591, 2, "odd", 20, 1, 6.001331091),  # next to the pole at 6
    ])
    def test_states_below_the_step_and_next_to_a_pole(self, alpha, m, parity,
                                                      order, index, beta):
        # reference values from a Fourier-Galerkin solve (perfbench/reference.py)
        pairs = find_eigenvalues(alpha, ModeSpec(m, parity), order=order,
                                 beta_max=beta + 1.0)
        assert len(pairs) == index + 1
        assert pairs[index].beta == pytest.approx(beta, abs=1e-8)
        assert pairs[index].diagnostics.convergence_estimate < 1e-6

    @pytest.mark.parametrize("order", (10, 20, 40))
    @pytest.mark.parametrize("alpha,m,parity,pole", [
        (0.551456066015, 2, "odd", 6),  # beta = 6.0000000 at N 10
        (0.499667754334, 4, "even", 12),  # beta = 12.0000000 at N 10
    ])
    def test_states_within_1e6_of_a_pole_are_kept(self, alpha, m, parity, pole, order):
        # the determinant's sign flip at the pole is undone, not screened
        # out, so a bracket holding both the pole and the root still counts
        mode = ModeSpec(m, parity)
        betas = [p.beta for p in find_eigenvalues(alpha, mode, order, 25.0)]
        assert betas == real_block_roots(alpha, mode, order, 25.0)
        assert min(abs(b - pole) for b in betas) < 1e-6

    def test_no_state_above_beta_max(self):
        # the last bracket ends below 25, but its nearest real root lies just
        # past it (25.0000000001): the bracket is skipped, nothing raises
        betas = [p.beta for p in find_eigenvalues(1e-5, ModeSpec(1, "even"), 10, 25.0)]
        assert betas and max(betas) <= 25.0

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the scan grid misses "
                       "m != 0 states at small alpha, which every real block root has")
    def test_small_alpha_sectors_are_the_flat_ring(self):
        for alpha, m, parity in itertools.product((1e-5, 1e-6, 1e-7), (1, 2, 3),
                                                  ("even", "odd")):
            betas = [p.beta for p in find_eigenvalues(alpha, ModeSpec(m, parity), 10, 25.5)]
            flat = [0.0, 1.0, 4.0, 9.0, 16.0, 25.0][parity == "odd":]
            assert betas == pytest.approx(flat, abs=1e-4), (alpha, m, parity)

    @pytest.mark.xfail(strict=True, reason="an N versus N+2 gap below 1e-6 does "
                       "not bound the error at alpha near 1 or at low order")
    @pytest.mark.parametrize("alpha,m,parity,order,beta_max,beta", [
        (0.99, 1, "even", 13, 6.0, 4.308325188),  # prints 4.30830973
        (0.95, 2, "odd", 6, 5.0, 3.780269862),  # prints 3.78029551
    ])
    def test_converged_states_lie_within_1e5(self, alpha, m, parity, order,
                                             beta_max, beta):
        # reference values from a Fourier-Galerkin solve (perfbench/reference.py)
        pairs = find_eigenvalues(alpha, ModeSpec(m, parity), order=order,
                                 beta_max=beta_max)
        nearest = min(pairs, key=lambda p: abs(p.beta - beta))
        assert not nearest.converged or abs(nearest.beta - beta) <= 1e-5

    @pytest.mark.parametrize("parity,betas", [
        ("even", [0.249368057, 1.663014538, 4.476692185, 9.434966321, 16.428224044]),
        ("odd", [1.263716947, 4.410559205, 9.428213665, 16.427610708]),
    ])
    def test_high_order_eigenfunctions_resolved(self, parity, betas):
        # the stencil's smallest singular vector is the minimal solution,
        # which forward marching from two seeds loses to the dominant one
        # at order 40
        pairs = find_eigenvalues(ALPHA, ModeSpec(1, parity), order=40,
                                 beta_max=25.0)
        assert [p.beta for p in pairs] == pytest.approx(betas, abs=1e-8)
        for p in pairs:
            assert p.diagnostics.residual_rel <= 1e-6
            assert p.diagnostics.convergence_estimate < 1e-6

    @pytest.mark.parametrize("m", (0, 1, 3))
    def test_every_series_on_one_scale(self, m):
        # one rule for every sector: max |d| = 1 with d_floor > 0
        for parity, floor in (("even", 0), ("odd", 1)):
            for p in find_eigenvalues(ALPHA, ModeSpec(m, parity), order=10,
                                      beta_max=12.0):
                if p.trivial:
                    continue
                assert max(abs(x) for x in p.series.d) == 1.0
                assert p.series.d[floor] > 0.0

    def test_m0_convergence_estimate_bounds_next_order(self):
        pairs = find_eigenvalues(ALPHA, ModeSpec(0, "even"), order=10,
                                 beta_max=10.0)
        for p in pairs:
            if p.trivial:
                continue
            est = p.diagnostics.convergence_estimate
            b12 = p.diagnostics.beta_by_order.get(12)
            assert est is not None and b12 is not None
            assert abs(p.beta - b12) <= est


PENCIL_ALPHAS = (0.1, 0.5, 0.9)
PENCIL_ORDERS = (10, 20, 40)


class TestM0Pencil:
    # the pencil's eigenvalues are the roots of the order-N numerator
    # polynomial, eq. (14): the marched d_N, an independent route, changes
    # sign across each

    @pytest.mark.parametrize("alpha", PENCIL_ALPHAS)
    @pytest.mark.parametrize("order", PENCIL_ORDERS)
    @pytest.mark.parametrize("parity", ("even", "odd"))
    def test_matches_polynomial_roots(self, alpha, order, parity):
        pairs = find_eigenvalues(alpha, ModeSpec(0, parity), order=order,
                                 beta_max=25.0)
        betas = [p.beta for p in pairs if not p.trivial]
        roots = [b for b in roots_warm_started(alpha, parity, order)[-1] if b <= 25.0]
        assert len(betas) == len(roots)
        assert betas == pytest.approx(roots, abs=1e-9)
        for beta in roots:
            assert d_changes_sign(alpha, parity, order, beta)

    @pytest.mark.parametrize("alpha", PENCIL_ALPHAS)
    @pytest.mark.parametrize("parity", ("even", "odd"))
    def test_eigenfunctions_resolved_at_order_40(self, alpha, parity):
        pairs = find_eigenvalues(alpha, ModeSpec(0, parity), order=40, beta_max=25.0)
        assert pairs
        for p in pairs:
            assert p.diagnostics.residual_rel <= 1e-5

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(alpha=st.floats(min_value=0.05, max_value=0.95),
           m=st.integers(min_value=0, max_value=6),
           order=st.sampled_from(PENCIL_ORDERS),
           parity=st.sampled_from(("even", "odd")))
    def test_agrees_with_fd_across_parameter_space(self, alpha, m, order, parity):
        # every converged state is the FD state of the same sector and
        # index; at N = 40 none below beta_max is missing.  m = 0 comes from
        # the pencil, m != 0 from the determinant scan
        pairs = find_eigenvalues(alpha, ModeSpec(m, parity), order=order, beta_max=10.0)
        fd = [s.beta for s in fd_spectrum(alpha, m, grid_size=1024,
                                          k_lowest=len(pairs) + 2, parity=parity)]
        converged = [p.converged for p in pairs]
        for i, (p, ok) in enumerate(zip(pairs, converged)):
            if ok:
                assert p.beta == pytest.approx(fd[i], abs=1e-5)
        if order == 40:
            below = sum(b < 9.95 for b in fd)
            assert below <= len(pairs) and all(converged[:below])


class TestSectorPencil:
    # each sector builds one pencil A + beta B at order N + 8; every lower
    # order is a leading block of it

    @pytest.mark.parametrize("terms,m", [(3, 0), (5, 0), (5, 3)])
    @pytest.mark.parametrize("parity", ("even", "odd"))
    @pytest.mark.parametrize("alpha", (0.1, 0.9))
    @pytest.mark.parametrize("order", (3, 10, 40))
    def test_leading_block_is_the_lower_order_stencil(self, terms, m, parity, alpha,
                                                      order):
        k = order - (0 if parity == "even" else 1)
        for beta in (0.0, 1.0, 2.345):
            def row(n):
                if terms == 3:
                    return _d_row_three(n, alpha, beta)
                return _d_row_five(n, alpha, m, beta)

            full = eigensolver._stencil(row, parity, order + 8)
            assert np.array_equal(full[:k, :k], eigensolver._stencil(row, parity, order))

    def test_order_n2_partner_is_a_zero_of_the_condition(self):
        # every m != 0 state's N + 2 value, a root of the pencil's N + 2
        # block, is a sign change of the paper's determinant at N + 2
        count = 0
        for alpha, m, parity, order in itertools.product(
                (0.1, 0.5, 0.9), (1, 3, 6), ("even", "odd"), (10, 20)):
            mode = ModeSpec(m, parity)
            for p in find_eigenvalues(alpha, mode, order=order, beta_max=25.0):
                b2 = p.diagnostics.beta_by_order[order + 2]
                lo = determinant(alpha, mode, b2 - 1e-7, order + 2)
                hi = determinant(alpha, mode, b2 + 1e-7, order + 2)
                assert lo * hi < 0, (alpha, m, parity, order, p.beta, b2)
                count += 1
        assert count == 136

    def test_one_stencil_pair_per_sector(self, monkeypatch):
        builds = []
        stencil = eigensolver._stencil
        monkeypatch.setattr(eigensolver, "_stencil",
                            lambda *a: builds.append(1) or stencil(*a))
        for m, parity in itertools.product((0, 1, 4), ("even", "odd")):
            builds.clear()
            assert find_eigenvalues(0.5, ModeSpec(m, parity), order=10, beta_max=25.0)
            assert len(builds) == 2

    def test_scan_grid_is_the_comprehension_grid(self, monkeypatch):
        # beta_max values sit on, just inside and just outside p +/- POLE_GAP,
        # mostly below the last pole; scan steps of 1 and 0.5 land on poles.
        # A root far above beta_max runs the grid to beta_max, and a zero
        # determinant brackets nothing
        calls = []
        monkeypatch.setattr(eigensolver, "_block_roots",
                            lambda pencil, parity, order: np.array([1e6]))
        monkeypatch.setattr(eigensolver, "determinant",
                            lambda alpha, mode, beta, order: calls.append(beta) or 0.0)
        for parity, order, beta_max, scan_step in itertools.product(
                ("even", "odd"), (2, 3, 10, 40),
                (0.5, 2.0, 6.0 - POLE_GAP, 6.0 + POLE_GAP, 12.0 + 2e-6, 25.0, 60.0),
                (0.02, 0.007, 1 / 3, 0.5, 1.0, 2.5)):
            calls.clear()
            determinant_scan(ALPHA, ModeSpec(1, parity), order, beta_max, scan_step)
            assert calls == comprehension_grid(parity, order, beta_max, scan_step)
            poles = eigensolver._poles(parity, order)
            assert all(abs(b - p) > POLE_GAP / 2 for b in calls for p in poles)

    @pytest.mark.parametrize("kwargs,match", [
        ({"beta_max": -3.0}, "beta_max must be positive and finite"),
        ({"beta_max": math.nan}, "beta_max must be positive and finite"),
        ({"alpha": 0.0}, r"alpha must lie in \(0, 1\)"),
        ({"order": 0}, "order must be >= 1"),
    ], ids=("negative_beta_max", "nan_beta_max", "zero_alpha", "zero_order"))
    def test_scan_validation(self, kwargs, match):
        args = {"alpha": ALPHA, "mode": ModeSpec(1, "even"), "order": 10, "beta_max": 5.0}
        with pytest.raises(ValueError, match=match):
            determinant_scan(**(args | kwargs))

    def test_scan_work_is_bounded_by_the_order(self, monkeypatch):
        # an order-4 sector has at most a handful of roots; its scan stops
        # one step past the last, however large beta_max is
        calls = []
        det = eigensolver.determinant

        def counted(*args):
            calls.append(None)
            if len(calls) >= 10**4:
                raise _TooManyCalls
            return det(*args)

        monkeypatch.setattr(eigensolver, "determinant", counted)
        find_eigenvalues(0.5, ModeSpec(1, "even"), order=4, beta_max=1e4)

    @pytest.mark.parametrize("m", (0, 2))
    def test_scan_evaluates_the_determinant_at_order_n_only(self, m, monkeypatch):
        # once per grid point, in order, with no refinement: the roots come
        # from the pencil
        calls = []
        det = eigensolver.determinant
        monkeypatch.setattr(eigensolver, "determinant",
                            lambda alpha, mode, beta, order:
                            calls.append((beta, order)) or det(alpha, mode, beta, order))
        accepted, _ = determinant_scan(0.5, ModeSpec(m, "even"), 10, 8.0)
        betas = [b for b, _ in calls]
        grid = comprehension_grid("even", 10, 8.0, 0.02)
        assert accepted and {order for _, order in calls} == {10}
        assert betas == grid[:len(betas)]
        assert betas[-1] >= accepted[-1].beta

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(alpha=st.floats(min_value=0.01, max_value=0.99),
           m=st.integers(min_value=1, max_value=6),
           parity=st.sampled_from(["even", "odd"]),
           order=st.integers(min_value=2, max_value=40),
           beta_max=st.floats(min_value=0.5, max_value=30.0))
    @example(alpha=0.551456066015, m=2, parity="odd", order=10, beta_max=25.0)
    @example(alpha=0.499667754334, m=4, parity="even", order=10, beta_max=25.0)
    def test_pencil_roots_are_zeros_of_the_determinant(self, alpha, m, parity, order,
                                                       beta_max):
        # each reported root sits at a sign change of the paper's condition,
        # with the sign flipped once per pole inside beta +/- h as the scan
        # does (both examples hold a root within 1e-6 of a pole).  Away from
        # a pole, bisecting the signed determinant finds the root to 1e-9;
        # within about 1e-8 of one the march's rounding decides the sign
        # (at the first example the root is 6 + 1.7558e-12 by a 60-digit
        # block determinant, the pencil's within 2e-14, the bisection's
        # 9.4e-9 off)
        mode = ModeSpec(m, parity)
        poles = eigensolver._poles(parity, order)
        for p in determinant_scan(alpha, mode, order, beta_max)[0]:
            h = 1e-7 * max(1.0, p.beta)
            assert signed_determinant(alpha, mode, p.beta - h, order) * \
                signed_determinant(alpha, mode, p.beta + h, order) < 0.0, p.beta
            if any(abs(q - p.beta) < h for q in poles):
                continue
            assert bisect_determinant(alpha, mode, order, p.beta - h, p.beta + h) == \
                pytest.approx(p.beta, abs=1e-9)

    @pytest.mark.parametrize("roots", ([1.0 + 0.5j, 1.0 - 0.5j], [0.3 + 0.5j, 0.3 - 0.5j, 4.0]),
                             ids=("non_real", "real_one_far"))
    def test_sign_change_without_a_real_root_raises(self, monkeypatch, roots):
        # the m = 1 ground state's sign change at 0.2494 has no real root
        # within a step of its bracket
        monkeypatch.setattr(eigensolver, "_block_roots",
                            lambda pencil, parity, order: np.array(roots))
        with pytest.raises(ArithmeticError,
                           match=r"no real order-10 root .* in \[0\.24, 0\.26\] "
                                 r"\(alpha 0\.5, m 1, even\)"):
            determinant_scan(0.5, ModeSpec(1, "even"), 10, 5.0)

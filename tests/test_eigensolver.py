import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toruseig import eigensolver
from toruseig.eigensolver import (
    POLE_GAP,
    coefficient_polynomials,
    determinant,
    determinant_scan,
    find_eigenvalues,
    roots_warm_started,
)
from toruseig.oracles import fd_spectrum
from toruseig.recursion import ModeSpec, march_three_safe

ALPHA = 0.5

# reference table values (eigenvalue columns, even sector, alpha = 0.5)
TABLE_M0_N10 = [1.122288, 4.051724, 9.041071]
TABLE_M1_N10 = [0.249368, 1.663015, 4.476692]
TABLE_M5_N10 = [3.705427, 8.853639, 15.164616]


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
        polys = coefficient_polynomials(ALPHA, "even", 10)
        roots = roots_warm_started(polys)[-1]
        for ref in TABLE_M0_N10:
            assert min(abs(r - ref) for r in roots) < 5e-6

    def test_low_order_root_set_is_small(self):
        # the order-3 numerator has degree 2: two roots, no third state yet
        polys = coefficient_polynomials(ALPHA, "even", 3)
        roots = roots_warm_started(polys)[-1]
        assert len(roots) == 2
        assert roots == pytest.approx([1.123791, 4.106978], abs=5e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            coefficient_polynomials(1.2, "even", 5)
        with pytest.raises(ValueError):
            coefficient_polynomials(ALPHA, "even", 0)


class TestRootsWarmStarted:
    def test_degree_zero_guard(self):
        polys = coefficient_polynomials(ALPHA, "even", 1)
        assert roots_warm_started(polys) == [[]]

    def test_ground_state_trajectory(self):
        polys = coefficient_polynomials(ALPHA, "even", 10)
        roots = roots_warm_started(polys)
        assert roots[2][0] == pytest.approx(1.1237908, abs=5e-6)
        assert roots[4][0] == pytest.approx(1.1222961, abs=5e-6)
        assert roots[9][0] == pytest.approx(1.1222883, abs=5e-6)

    def test_rows_sorted_ascending(self):
        polys = coefficient_polynomials(ALPHA, "odd", 10)
        for betas in roots_warm_started(polys):
            assert betas == sorted(betas)

    def test_newest_root_tracks_square_of_previous_index(self):
        polys = coefficient_polynomials(ALPHA, "even", 12)
        final = roots_warm_started(polys)[-1]
        assert final[-1] == pytest.approx(121.41, abs=5e-3)  # near (12 - 1)^2


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
        # converged truncation: both routes must agree to 1e-9
        from toruseig.eigensolver import _bisect_determinant

        polys = coefficient_polynomials(ALPHA, "even", 16)
        poly_root = min(roots_warm_started(polys)[-1])
        mode = ModeSpec(0, "even")
        det_root = _bisect_determinant(ALPHA, mode, 16, 1.0, 1.3,
                                       determinant(ALPHA, mode, 1.0, 16),
                                       determinant(ALPHA, mode, 1.3, 16))
        assert abs(poly_root - det_root) < 1e-9

    def test_order_validation(self):
        with pytest.raises(ValueError):
            determinant(ALPHA, ModeSpec(1, "even"), 1.0, 1)

    def test_singular_seeds_rejected(self):
        with pytest.raises(ValueError):
            determinant(ALPHA, ModeSpec(1, "even"), 1.0, 8,
                        seeds=((1.0, 1.0), (2.0, 2.0)))


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
        # the scan steps over the marching poles at 2, 6 and 12: nothing
        # lands on one
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
        # m = 2 spectrum must still track the independent discretization
        alpha = 0.3
        fd = [s.beta for s in fd_spectrum(alpha, 2, grid_size=1024, k_lowest=8)]
        mine = []
        for parity in ("even", "odd"):
            pairs = find_eigenvalues(alpha, ModeSpec(2, parity), order=12,
                                     beta_max=10.0)
            mine += [p.beta for p in pairs]
        assert len(mine) >= 6
        for b in mine:
            assert min(abs(b - f) for f in fd) < 1e-6

    def test_completeness_matches_fd_oracle(self):
        mine = []
        for parity in ("even", "odd"):
            pairs = find_eigenvalues(ALPHA, ModeSpec(0, parity), order=12,
                                     beta_max=10.0)
            mine += [p.beta for p in pairs if not p.trivial]
        fd = [s.beta for s in fd_spectrum(ALPHA, 0, grid_size=1024, k_lowest=12)
              if 1e-6 < s.beta <= 10.0]
        assert len(mine) == len(fd)

    def test_validation(self):
        with pytest.raises(ValueError):
            find_eigenvalues(ALPHA, ModeSpec(0, "even"), beta_max=-1.0)

    @pytest.mark.parametrize("m,parity,beta_max", [
        (0, "even", 10.5), (0, "odd", 10.5), (1, "even", 5.5), (5, "even", 16.5),
    ])
    def test_accepted_pairs_pass_the_residual_screen(self, m, parity, beta_max):
        pairs = find_eigenvalues(ALPHA, ModeSpec(m, parity), order=10,
                                 beta_max=beta_max)
        assert pairs
        for p in pairs:
            assert p.diagnostics.residual_rel <= 0.5

    def test_non_real_pencil_root_raises(self, monkeypatch):
        # a non-real root inside the window is reported, never set aside
        pencil = eigensolver._m0_pencil_eigvals
        monkeypatch.setattr(eigensolver, "_m0_pencil_eigvals",
                            lambda alpha, parity, order:
                            np.append(pencil(alpha, parity, order), 3.0 + 0.5j))
        for parity in ("even", "odd"):
            with pytest.raises(ArithmeticError, match="non-real"):
                find_eigenvalues(ALPHA, ModeSpec(0, parity), order=10, beta_max=10.0)

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
    # polynomial, here taken independently from its companion matrix; they
    # are compared below beta = 25 because above ~36 the polynomial's roots
    # lose digits at N >= 20

    @pytest.mark.parametrize("alpha", PENCIL_ALPHAS)
    @pytest.mark.parametrize("order", PENCIL_ORDERS)
    @pytest.mark.parametrize("parity", ("even", "odd"))
    def test_matches_polynomial_roots(self, alpha, order, parity):
        pairs = find_eigenvalues(alpha, ModeSpec(0, parity), order=order,
                                 beta_max=25.0)
        betas = [p.beta for p in pairs if not p.trivial]
        polys = coefficient_polynomials(alpha, parity, order)
        roots = [b for b in roots_warm_started(polys)[-1] if b <= 25.0]
        assert len(betas) == len(roots)
        assert betas == pytest.approx(roots, abs=1e-9)

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

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toruseig.eigensolver import (
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


def companion_roots(poly):
    """Independent oracle: real nonnegative roots via the companion matrix."""
    coeffs = np.array(poly.coefficients[: poly.degree + 1])
    roots = np.roots(coeffs[::-1])
    return sorted(r.real for r in roots if abs(r.imag) < 1e-8 and r.real > -1e-9)


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
        roots = companion_roots(polys[-1])
        for ref in TABLE_M0_N10:
            assert min(abs(r - ref) for r in roots) < 5e-6

    def test_low_order_root_set_is_small(self):
        # the order-3 numerator has degree 2: two roots, no third state yet
        polys = coefficient_polynomials(ALPHA, "even", 3)
        roots = companion_roots(polys[-1])
        assert len(roots) == 2
        assert roots == pytest.approx([1.123791, 4.106978], abs=5e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            coefficient_polynomials(1.2, "even", 5)
        with pytest.raises(ValueError):
            coefficient_polynomials(ALPHA, "even", 0)


class TestRootsWarmStarted:
    def test_matches_companion_oracle_every_order(self):
        for parity in ("even", "odd"):
            polys = coefficient_polynomials(ALPHA, parity, 10)
            result = roots_warm_started(polys)
            for poly, roots in zip(polys, result.roots_per_order):
                expected = companion_roots(poly)
                got = sorted(r.beta for r in roots if r.converged)
                assert len(got) == len(expected)
                for g, e in zip(got, expected):
                    assert g == pytest.approx(e, abs=1e-8)

    def test_degree_zero_guard(self):
        polys = coefficient_polynomials(ALPHA, "even", 1)
        result = roots_warm_started(polys)
        assert result.roots_per_order == (tuple(),)

    def test_ground_state_trajectory(self):
        polys = coefficient_polynomials(ALPHA, "even", 10)
        result = roots_warm_started(polys)
        track = result.trajectories[0]
        by_order = dict(zip(result.orders, track))
        assert by_order[3] == pytest.approx(1.123791, abs=5e-6)
        assert by_order[5] == pytest.approx(1.122296, abs=5e-6)
        assert by_order[10] == pytest.approx(1.122288, abs=5e-6)

    def test_rows_sorted_ascending(self):
        polys = coefficient_polynomials(ALPHA, "odd", 10)
        result = roots_warm_started(polys)
        for roots in result.roots_per_order:
            betas = [r.beta for r in roots]
            assert betas == sorted(betas)

    def test_newest_root_tracks_square_of_previous_index(self):
        polys = coefficient_polynomials(ALPHA, "even", 12)
        result = roots_warm_started(polys)
        final = [r.beta for r in result.roots_per_order[-1]]
        assert abs(final[-1] - (12 - 1) ** 2) / (12 - 1) ** 2 < 0.1


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
        poly_root = min(companion_roots(polys[-1]))
        det_root = _bisect_determinant(ALPHA, ModeSpec(0, "even"), 1.0, 1.3, 16)
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
        pairs, rejected = find_eigenvalues(
            ALPHA, ModeSpec(5, "even"), order=10, beta_max=16, return_rejected=True)
        betas = [p.beta for p in pairs]
        assert betas == sorted(betas)
        assert betas == pytest.approx(TABLE_M5_N10, abs=5e-6)
        # marching poles around 2, 6, 12 are caught, not returned
        for r in rejected:
            assert r.diagnostics.spurious
            assert min(abs(r.beta - k * (k + 1)) for k in range(1, 5)) < 1e-6

    def test_mixing_recovered_for_general_m(self):
        pairs = find_eigenvalues(ALPHA, ModeSpec(1, "even"), order=10, beta_max=1)
        a, b = pairs[0].mixing
        assert math.hypot(a, b) == pytest.approx(1.0, abs=1e-12)

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
        with pytest.raises(ValueError):
            find_eigenvalues(ALPHA, ModeSpec(1, "even"), beta_max=5.0, scan_step=0.0)

    @pytest.mark.parametrize("m,parity,beta_max", [
        (0, "even", 10.5), (0, "odd", 10.5), (1, "even", 5.5), (5, "even", 16.5),
    ])
    def test_accepted_pairs_pass_the_residual_screen(self, m, parity, beta_max):
        from toruseig.eigensolver import SPURIOUS_RESIDUAL_REL

        pairs = find_eigenvalues(ALPHA, ModeSpec(m, parity), order=10,
                                 beta_max=beta_max)
        assert pairs
        for p in pairs:
            assert not p.diagnostics.spurious
            assert p.diagnostics.residual_rel <= SPURIOUS_RESIDUAL_REL

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
    # polynomial, which the warm-started route tracks independently; it is
    # compared below beta = 25 because above ~36 the polynomial's roots
    # lose digits at N >= 20

    @pytest.mark.parametrize("alpha", PENCIL_ALPHAS)
    @pytest.mark.parametrize("order", PENCIL_ORDERS)
    @pytest.mark.parametrize("parity", ("even", "odd"))
    def test_matches_polynomial_roots(self, alpha, order, parity):
        pairs = find_eigenvalues(alpha, ModeSpec(0, parity), order=order,
                                 beta_max=25.0)
        betas = [p.beta for p in pairs if not p.trivial]
        polys = coefficient_polynomials(alpha, parity, order)
        roots = [b for b in roots_warm_started(polys).final_roots(converged_only=False)
                 if b <= 25.0]
        assert len(betas) == len(roots)
        assert betas == pytest.approx(roots, abs=1e-9)

    @pytest.mark.parametrize("alpha", PENCIL_ALPHAS)
    @pytest.mark.parametrize("parity", ("even", "odd"))
    def test_eigenfunctions_resolved_at_order_40(self, alpha, parity):
        pairs, rejected = find_eigenvalues(alpha, ModeSpec(0, parity), order=40,
                                           beta_max=25.0, return_rejected=True)
        assert pairs and not rejected
        for p in pairs:
            assert p.diagnostics.residual_rel <= 1e-5

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(alpha=st.floats(min_value=0.05, max_value=0.95),
           order=st.sampled_from(PENCIL_ORDERS),
           parity=st.sampled_from(("even", "odd")))
    def test_agrees_with_fd_across_parameter_space(self, alpha, order, parity):
        # every converged state (the CLI's rule) is the FD state of the same
        # sector and index; at N = 40 none below beta_max is missing
        pairs = find_eigenvalues(alpha, ModeSpec(0, parity), order=order, beta_max=10.0)
        fd = [s.beta for s in fd_spectrum(alpha, 0, grid_size=1024,
                                          k_lowest=len(pairs) + 2, parity=parity)]
        converged = [p.trivial or (p.diagnostics.convergence_estimate is not None
                                   and p.diagnostics.convergence_estimate < 1e-6)
                     for p in pairs]
        for i, (p, ok) in enumerate(zip(pairs, converged)):
            if ok:
                assert p.beta == pytest.approx(fd[i], abs=1e-5)
        if order == 40:
            below = sum(b < 9.95 for b in fd)
            assert below <= len(pairs) and all(converged[:below])

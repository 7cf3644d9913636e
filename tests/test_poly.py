"""Polynomial construction, evaluation, and parameter selection."""

import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval

from eigenreflect.poly import (
    ComplexPolynomial,
    GapSpec,
    build_upsilon,
    eval_on_circle_grid,
    max_modulus_outside_gap,
    select_parameters,
)


class TestComplexPolynomial:
    def test_degree_counts_from_last_coefficient(self):
        p = ComplexPolynomial((1.0, 2.0, 3.0))
        assert p.degree == 2
        assert p.as_array().tolist() == [1.0, 2.0, 3.0]

    def test_degree_counts_every_coefficient(self):
        # nothing is trimmed: small and zero top coefficients keep their place
        for coeffs in [(1.0, 5e-14), (1.0, 0.5, 1e-15, 0.0), (0.0, 0.0)]:
            p = ComplexPolynomial(coeffs)
            assert p.degree == len(coeffs) - 1
            assert p.as_array().tolist() == [complex(c) for c in coeffs]

    def test_zero_polynomial_has_degree_zero(self):
        assert ComplexPolynomial(()).degree == 0
        assert ComplexPolynomial(()).as_array().tolist() == [0j]


class TestGapSpec:
    def test_half_turn_gap_is_allowed(self):
        assert GapSpec(delta=math.pi, epsilon=0.5).delta == math.pi

    @pytest.mark.parametrize("delta", [0.0, -0.1, math.pi + 1e-9])
    def test_bad_delta_rejected(self, delta):
        with pytest.raises(ValueError):
            GapSpec(delta=delta, epsilon=0.5)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.5, 2.0])
    def test_bad_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError):
            GapSpec(delta=1.0, epsilon=epsilon)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_rejected(self, theta):
        with pytest.raises(ValueError, match="theta must be finite"):
            GapSpec(delta=1.0, epsilon=0.5, theta=theta)

    @pytest.mark.parametrize("theta", [7.0, -7.0, 1e17])
    def test_theta_beyond_half_turn_is_reduced(self, theta):
        gap = GapSpec(delta=1.0, epsilon=0.5, theta=theta)
        assert gap.theta == math.atan2(math.sin(theta), math.cos(theta))
        assert -math.pi <= gap.theta <= math.pi

    @pytest.mark.parametrize("theta", [0.3, math.pi, -math.pi])
    def test_theta_within_half_turn_is_kept(self, theta):
        assert GapSpec(delta=1.0, epsilon=0.5, theta=theta).theta == theta


class TestSelectParameters:
    def test_quarter_turn_point_one(self):
        plan = select_parameters(GapSpec(delta=math.pi / 2, epsilon=0.1))
        assert (plan.t, plan.n, plan.degree) == (4, 3, 9)

    def test_half_turn_gives_t_three(self):
        for epsilon in (0.5, 0.1, 1e-3):
            plan = select_parameters(GapSpec(delta=math.pi, epsilon=epsilon))
            assert plan.t == 3

    def test_coarse_epsilon_gives_n_one(self):
        plan = select_parameters(GapSpec(delta=math.pi / 2, epsilon=0.5))
        assert plan.n == 1

    def test_published_formula_flag_shrinks_t(self):
        gap = GapSpec(delta=math.pi / 2, epsilon=0.1)
        assert select_parameters(gap, use_paper_t_formula=True).t == 1
        assert select_parameters(gap).t == 4

    def test_predicted_counts_follow_degree(self):
        plan = select_parameters(GapSpec(delta=math.pi / 4, epsilon=1e-2))
        d = plan.degree
        assert d == (plan.t - 1) * plan.n
        assert plan.predicted_controlled_u_per_branch == d
        assert plan.predicted_rotations == 2 * (d + 1)

    @given(
        delta=st.floats(0.05, math.pi),
        epsilon=st.floats(1e-6, 0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_formula_values(self, delta, epsilon):
        plan = select_parameters(GapSpec(delta=delta, epsilon=epsilon))
        assert plan.n == math.ceil(math.log(1.0 / epsilon))
        span = abs(cmath.exp(1j * delta) - 1.0)
        assert plan.t == max(math.ceil(2.0 * math.e / span), 1)


class TestBuildUpsilon:
    def test_single_point_average_is_constant_one(self):
        assert build_upsilon(1, 5).as_array().tolist() == [1.0]

    def test_two_point_average(self):
        np.testing.assert_allclose(build_upsilon(2, 1).as_array(), [0.5, 0.5])

    def test_three_point_average_squared(self):
        np.testing.assert_allclose(
            build_upsilon(3, 2).as_array(), np.array([1, 2, 3, 2, 1]) / 9.0
        )

    @given(t=st.integers(1, 8), n=st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_coefficients_real_nonnegative_unit_sum(self, t, n):
        c = build_upsilon(t, n).as_array()
        assert len(c) == (t - 1) * n + 1
        assert np.max(np.abs(c.imag)) == 0.0
        assert np.min(c.real) >= 0.0
        assert abs(np.sum(c.real) - 1.0) <= 1e-14

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(ValueError):
            build_upsilon(0, 3)
        with pytest.raises(ValueError):
            build_upsilon(3, 0)


class TestEvaluation:
    def test_value_at_one_is_one(self):
        for t, n in [(2, 1), (3, 2), (4, 3), (14, 7)]:
            assert abs(polyval(1.0, build_upsilon(t, n).as_array()) - 1.0) <= 1e-13

    def test_two_point_average_vanishes_at_minus_one(self):
        assert abs(polyval(-1.0, ComplexPolynomial((0.5, 0.5)).as_array())) <= 1e-16

    def test_geometric_sum_closed_form(self):
        z = cmath.exp(1j * 1.0)
        direct = polyval(z, build_upsilon(3, 2).as_array())
        closed = ((z**3 - 1) / (3 * (z - 1))) ** 2
        assert abs(direct - closed) <= 1e-12

    @given(lam=st.floats(0.1, 3.0), t=st.integers(2, 9), n=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    @example(lam=1.25, t=5, n=5)  # |Upsilon| ~ 6e-12, next to a kernel zero
    def test_geometric_sum_modulus_identity(self, lam, t, n):
        # Compare |Upsilon| with the n-th power of the closed form, not the
        # n-th roots: a root near a kernel zero magnifies rounding without
        # bound.  Horner evaluation of a degree-d polynomial errs by at most
        # gamma_{2d} * sum|a_k| |z|^k; here the coefficients are nonnegative
        # with unit sum and |z| = 1, so that is gamma_{2d} ~ 2d * u = d * eps.
        # The coefficient rounding in build_upsilon and the closed form add
        # errors of the same (d + 1) * eps order; the worst measured on dense
        # and random lam samples for every (t, n) in range is
        # 1.5 * (d + 1) * eps.  With d <= 40 the tolerance stays below 7.3e-14.
        z = cmath.exp(1j * lam)
        d = (t - 1) * n
        direct = abs(polyval(z, build_upsilon(t, n).as_array()))
        closed = abs((z**t - 1) / (t * (z - 1))) ** n
        assert abs(direct - closed) <= 8 * (d + 1) * sys.float_info.epsilon

    def test_grid_of_constant(self):
        vals = eval_on_circle_grid(ComplexPolynomial((1.0,)), 4)
        np.testing.assert_allclose(vals, np.ones(4), atol=1e-15)

    def test_grid_of_monomial_hits_fourth_roots(self):
        vals = eval_on_circle_grid(ComplexPolynomial((0.0, 1.0)), 4)
        np.testing.assert_allclose(vals, [1, 1j, -1, -1j], atol=1e-15)

    def test_grid_matches_pointwise_evaluation(self):
        p = build_upsilon(2, 1)
        m = 8
        vals = eval_on_circle_grid(p, m)
        expected = polyval(np.exp(2j * np.pi * np.arange(m) / m), p.as_array())
        np.testing.assert_allclose(vals, expected, rtol=1e-12, atol=1e-14)

    @given(seed=st.integers(0, 2**32 - 1), degree=st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_grid_matches_pointwise_on_random_polynomials(self, seed, degree):
        rng = np.random.default_rng(seed)
        p = ComplexPolynomial(
            tuple(rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1))
        )
        m = 2 * degree + 5
        vals = eval_on_circle_grid(p, m)
        expected = polyval(np.exp(2j * np.pi * np.arange(m) / m), p.as_array())
        np.testing.assert_allclose(vals, expected, rtol=1e-12, atol=1e-12)

    def test_grid_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            eval_on_circle_grid(ComplexPolynomial((1.0, 2.0, 3.0)), 2)


class TestMaxModulusOutsideGap:
    def test_constant_peaks_at_one(self):
        assert max_modulus_outside_gap(ComplexPolynomial((1.0,)), math.pi / 2) == 1.0

    def test_two_point_average_vanishes_at_half_turn(self):
        peak = max_modulus_outside_gap(build_upsilon(2, 1), math.pi)
        assert peak <= 1e-15

    def test_plan_kernels_meet_their_budget(self):
        for delta in (math.pi / 2, math.pi / 4, math.pi / 8):
            for epsilon in (1e-1, 1e-2, 1e-3):
                plan = select_parameters(GapSpec(delta=delta, epsilon=epsilon))
                peak = max_modulus_outside_gap(
                    build_upsilon(plan.t, plan.n), delta
                )
                assert peak <= math.exp(-plan.n) + 1e-14
                assert peak <= epsilon

    def test_rejects_bad_arc(self):
        with pytest.raises(ValueError):
            max_modulus_outside_gap(ComplexPolynomial((1.0,)), 0.0)

    @pytest.mark.parametrize(
        "delta, epsilon, paper",
        [
            (0.0021, 0.1, False),  # degree 7,764, the comparison's corrected kernel
            (0.0021, 0.1, True),
            (0.05, 0.5, False),
            (math.pi / 8, 1e-3, False),
            (1.0, 1e-2, True),
            (3.1, 1e-3, False),
            (math.pi - 1e-9, 1e-3, False),
            (math.pi, 0.1, False),
        ],
    )
    def test_matches_closed_form_peak(self, delta, epsilon, paper):
        # |kernel(e^{i lam})| = |sin(t lam / 2) / (t sin(lam / 2))|^n; its
        # peak on delta <= lam <= pi is taken on a fine arc grid, then
        # refined three times around the largest sample
        plan = select_parameters(
            GapSpec(delta=delta, epsilon=epsilon), use_paper_t_formula=paper
        )

        def closed_form(lam):
            return np.abs(np.sin(plan.t * lam / 2) / (plan.t * np.sin(lam / 2))) ** plan.n

        lam = np.linspace(delta, math.pi, 2_000_001)
        for _ in range(3):
            best = lam[np.argmax(closed_form(lam))]
            step = lam[1] - lam[0]
            lam = np.linspace(max(delta, best - step), min(math.pi, best + step), 2001)
        ref = float(np.max(closed_form(lam)))
        peak = max_modulus_outside_gap(build_upsilon(plan.t, plan.n), delta)
        assert (1 - 1e-3) * ref <= peak <= (1 + 1e-12) * ref

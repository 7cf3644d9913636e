"""Complementary-polynomial factorization and its certificates."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from eigenreflect import completion
from eigenreflect.completion import (
    CompletionError,
    TrigPolynomial,
    completion_residual,
    factorize,
    gram_polynomial,
)
from eigenreflect.gqsp import reconstruct_polynomials, synthesize_angles
from eigenreflect.poly import (
    ComplexPolynomial,
    GapSpec,
    build_upsilon,
    eval_on_circle_grid,
    select_parameters,
)

from _pairs import random_complementary_pair, theta_negated


class TestTrigPolynomial:
    def test_order_from_length(self):
        g = TrigPolynomial((-0.25, 0.5, -0.25))
        assert g.order == 1

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            TrigPolynomial((1.0, 2.0))

    def test_asymmetric_coefficients_rejected(self):
        with pytest.raises(ValueError):
            TrigPolynomial((0.3j, 1.0, 0.3j))

    def test_conjugate_symmetric_coefficients_accepted(self):
        g = TrigPolynomial((0.25 - 0.1j, 0.5, 0.25 + 0.1j))
        assert g.order == 1

    @pytest.mark.parametrize("grid", ["2d+1", "2d+2", "64"])
    @pytest.mark.parametrize("poly", ["kernel", "complex"])
    def test_grid_values_match_defect_pointwise(self, poly, grid):
        # odd and even grids down to the smallest legal one, real and complex coefficients
        ups = build_upsilon(3, 2) if poly == "kernel" else random_complementary_pair(5, seed=7)[0]
        g = gram_polynomial(ups)
        m = {"2d+1": 2 * g.order + 1, "2d+2": 2 * g.order + 2, "64": 64}[grid]
        vals = g.values_on_grid(m)
        direct = 1.0 - np.abs(eval_on_circle_grid(ups, m)) ** 2
        assert vals.shape == (m,)
        np.testing.assert_allclose(vals, direct, atol=1e-12)

    def test_grid_too_coarse_rejected(self):
        g = TrigPolynomial((-0.25, 0.5, -0.25))
        with pytest.raises(ValueError):
            g.values_on_grid(2)


class TestGramPolynomial:
    def test_constant_one_gives_zero_gram(self):
        g = gram_polynomial(ComplexPolynomial((1.0,)))
        assert g.order == 0
        assert g.laurent_coeffs == (0j,)

    def test_two_point_average_by_hand(self):
        g = gram_polynomial(ComplexPolynomial((0.5, 0.5)))
        np.testing.assert_allclose(
            np.array(g.laurent_coeffs), [-0.25, 0.5, -0.25], atol=1e-16
        )

    def test_rejects_modulus_above_one(self):
        gram = gram_polynomial(ComplexPolynomial((0.9, 0.3)))  # forms coefficients only
        with pytest.raises(ValueError, match="modulus exceeds 1"):
            factorize(gram)


class TestFactorize:
    def test_zero_gram_gives_zero_partner(self):
        res = factorize(gram_polynomial(ComplexPolynomial((1.0,))))
        assert res.phi.as_array().tolist() == [0j]
        assert res.residual == 0.0

    def test_two_point_average_partner_by_hand(self):
        res = factorize(gram_polynomial(ComplexPolynomial((0.5, 0.5))))
        np.testing.assert_allclose(res.phi.as_array(), [-0.5, 0.5], atol=1e-12)
        vals = np.abs(eval_on_circle_grid(res.phi, 64)) ** 2
        lam = 2 * np.pi * np.arange(64) / 64
        np.testing.assert_allclose(vals, (1 - np.cos(lam)) / 2, atol=1e-12)

    def test_leading_coefficient_real_nonnegative(self):
        for seed in range(5):
            p, phi = random_complementary_pair(12, seed=seed)
            lead = phi.as_array()[-1]
            assert abs(lead.imag) <= 1e-12 * abs(lead)
            assert lead.real > 0

    def test_plan_kernel_meets_tolerance(self):
        plan = select_parameters(GapSpec(delta=math.pi / 2, epsilon=1e-2))
        ups = build_upsilon(plan.t, plan.n)
        res = factorize(gram_polynomial(ups))
        assert res.method == "weiss"
        assert res.residual <= 1e-10
        assert completion_residual(ups, res.phi, 16 * (2 * ups.degree + 1)) <= 1e-10

    def test_partner_degree_never_exceeds_input_degree(self):
        for t, n in [(2, 1), (3, 2), (4, 3), (8, 5)]:
            ups = build_upsilon(t, n)
            res = factorize(gram_polynomial(ups))
            assert res.phi.degree <= ups.degree

    def test_unreachable_tolerance_reports_achieved_residual(self, monkeypatch):
        plan = select_parameters(GapSpec(delta=math.pi / 2, epsilon=1e-2))
        monkeypatch.setattr(completion, "DEFAULT_COMPLETION_TOL", 1e-18)
        with pytest.raises(CompletionError) as info:
            factorize(gram_polynomial(build_upsilon(plan.t, plan.n)))
        assert info.value.achieved_residual > 1e-18

    def test_negative_dip_is_rejected_before_factoring(self):
        # a gram that dips below zero on the grid has no factorization
        gram = TrigPolynomial((-0.25, 0.5 - 1e-4, -0.25))
        with pytest.raises(ValueError, match="modulus exceeds 1"):
            factorize(gram)

    def test_modulus_profile_is_idempotent(self):
        p, phi = random_complementary_pair(10, seed=3)
        arr = phi.as_array()
        auto = np.convolve(arr, np.conj(arr[::-1]))
        center = len(auto) // 2
        again = factorize(TrigPolynomial(tuple(auto)))
        m = 256
        first = np.abs(eval_on_circle_grid(phi, m))
        second = np.abs(eval_on_circle_grid(again.phi, m))
        np.testing.assert_allclose(first, second, atol=1e-9)

    def test_selected_roots_come_from_reciprocal_pairs(self):
        for seed in (1, 2):
            p, _ = random_complementary_pair(30, seed=seed)
            gram = gram_polynomial(p)
            roots = npoly.polyroots(gram.as_array())
            inside = roots[np.abs(roots) < 1.0 - 1e-7]
            partners = 1.0 / np.conj(inside)
            for r in partners:
                assert np.min(np.abs(roots - r)) <= 1e-8 * max(1.0, abs(r))

    def test_global_phase_freedom(self):
        ups = build_upsilon(4, 3)
        phi = factorize(gram_polynomial(ups)).phi
        rotated = ComplexPolynomial(tuple(complex(np.exp(0.7j)) * c for c in phi.coeffs))
        m = 16 * (2 * ups.degree + 1)
        assert completion_residual(ups, rotated, m) <= 1e-12


class TestPartnerDegree:
    # the plans whose kernel has a top coefficient t^-n small enough that
    # a partner built around it could lose its own top coefficients
    @pytest.mark.parametrize(
        "delta, epsilon",
        [
            (math.pi / 8, 1e-3),
            (math.pi / 16, 1e-3),
            (math.pi / 32, 1e-2),
            (math.pi / 32, 1e-3),
            # degrees 770, 1547 and 3101: the kernel's own top coefficient
            # t^-n is 4.8e-15, 3.7e-17 and 2.9e-19
            (math.pi / 64, 1e-3),
            (math.pi / 128, 1e-3),
            (math.pi / 256, 1e-3),
        ],
    )
    def test_partner_keeps_full_degree_and_angles_rebuild_kernel(self, delta, epsilon):
        plan = select_parameters(GapSpec(delta, epsilon=epsilon))
        ups = build_upsilon(plan.t, plan.n)
        assert ups.degree == plan.degree
        phi = factorize(gram_polynomial(ups)).phi
        assert phi.degree == plan.degree
        plus = synthesize_angles(ups, phi)
        minus = theta_negated(plus)
        assert plus.degenerate_steps == minus.degenerate_steps == ()
        rebuilt, partner = reconstruct_polynomials(plus)
        assert rebuilt.degree == ups.degree
        assert np.max(np.abs(rebuilt.as_array() - ups.as_array())) <= 1e-12
        rebuilt_minus, partner_minus = reconstruct_polynomials(minus)
        assert np.max(np.abs(rebuilt_minus.as_array() - ups.as_array())) <= 1e-12
        assert np.max(np.abs(partner_minus.as_array() + partner.as_array())) <= 1e-12

    @given(
        k=st.integers(2, 256),
        epsilon=st.sampled_from([1e-1, 1e-2, 1e-3]),
    )
    @example(k=100, epsilon=1e-3)  # degree 1211
    @example(k=64, epsilon=1e-3)  # degree 770
    @example(k=128, epsilon=1e-3)  # degree 1547
    @example(k=256, epsilon=1e-3)  # degree 3101
    @example(k=2367, epsilon=0.5)  # t = 4097, n = 1: degree 4096, the cap
    @settings(max_examples=20, deadline=None)
    def test_plan_kernels_complete_at_full_degree(self, k, epsilon):
        plan = select_parameters(GapSpec(math.pi / k, epsilon=epsilon))
        ups = build_upsilon(plan.t, plan.n)
        assert ups.degree == plan.degree
        phi = factorize(gram_polynomial(ups)).phi
        assert phi.degree == ups.degree
        assert completion_residual(ups, phi, 16 * (2 * ups.degree + 1)) <= 1e-10

    @given(
        degree=st.integers(1, 200),
        seed=st.integers(0, 10_000),
        peak=st.sampled_from([None, 0.95]),
    )
    @example(degree=200, seed=0, peak=0.95)
    @settings(max_examples=25, deadline=None)
    def test_random_pairs_complete_at_full_degree(self, degree, seed, peak):
        p, phi = random_complementary_pair(degree, seed=seed, peak=peak)
        assert phi.degree == p.degree == degree
        assert completion_residual(p, phi, 16 * (2 * degree + 1)) <= 1e-10


class TestZeroOffOne:
    @pytest.mark.parametrize("tol", [1e-10, 1e-2])
    def test_meets_tolerance_or_raises(self, tol, monkeypatch):
        # 1 - |(1 + z^2)/2|^2 = sin^2(lam) also vanishes at z = -1, where
        # the log the factorization takes is singular
        p = ComplexPolynomial((0.5, 0.0, 0.5))
        monkeypatch.setattr(completion, "DEFAULT_COMPLETION_TOL", tol)
        try:
            res = factorize(gram_polynomial(p))
        except CompletionError as exc:
            assert exc.achieved_residual > tol
        else:
            assert res.residual <= tol
            assert completion_residual(p, res.phi, 256) <= tol


class TestCompletionResidual:
    def test_exact_pair_is_zero(self):
        assert completion_residual(
            ComplexPolynomial((1.0,)), ComplexPolynomial((0.0,)), 64
        ) == 0.0

    def test_hand_pair_is_machine_precision(self):
        res = completion_residual(
            ComplexPolynomial((0.5, 0.5)), ComplexPolynomial((0.5, -0.5)), 64
        )
        assert res <= 1e-15

    def test_missing_partner_peaks_at_one(self):
        res = completion_residual(
            ComplexPolynomial((0.5, 0.5)), ComplexPolynomial((0.0,)), 64
        )
        assert abs(res - 1.0) <= 1e-15

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            completion_residual(
                ComplexPolynomial((0.5, 0.5)), ComplexPolynomial((0.5, -0.5)), 2
            )

    @given(degree=st.integers(1, 24), seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_completions_certify(self, degree, seed):
        p, phi = random_complementary_pair(degree, seed=seed)
        m = 16 * (2 * degree + 1)
        assert completion_residual(p, phi, m) <= 1e-11

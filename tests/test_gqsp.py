"""Angle synthesis and reconstruction round-trips."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigenreflect import circuit
from eigenreflect.circuit import synthesize
from eigenreflect.completion import factorize, gram_polynomial
from eigenreflect.gqsp import (
    GQSPAngleSequence,
    _walk_product,
    reconstruct_polynomials,
    synthesize_angles,
)
from eigenreflect.poly import ComplexPolynomial, GapSpec, build_upsilon

from _pairs import padded, random_complementary_pair, theta_negated


def roundtrip_error(p, q):
    seq = synthesize_angles(p, q)
    p2, q2 = reconstruct_polynomials(seq)
    width = max(p.degree, q.degree, p2.degree, q2.degree) + 1
    return max(
        float(np.max(np.abs(padded(p, width) - padded(p2, width)))),
        float(np.max(np.abs(padded(q, width) - padded(q2, width)))),
    )


class TestSequenceContainer:
    def test_degree_counts_rotations(self):
        seq = GQSPAngleSequence(thetas=(0.1, 0.2), phis=(0.3, 0.4), lambda_final=0.5)
        assert seq.degree == 1

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            GQSPAngleSequence(thetas=(0.1,), phis=(), lambda_final=0.0)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            GQSPAngleSequence(thetas=(), phis=(), lambda_final=0.0)


class TestSynthesizeAngles:
    def test_identity_encoding(self):
        seq = synthesize_angles(ComplexPolynomial((1.0,)), ComplexPolynomial((0.0,)))
        assert seq.degree == 0
        assert seq.thetas == (0.0,)
        assert seq.phis == (0.0,)
        assert seq.lambda_final == 0.0

    def test_swapped_identity_encoding(self):
        seq = synthesize_angles(ComplexPolynomial((0.0,)), ComplexPolynomial((1.0,)))
        assert abs(seq.thetas[0] - math.pi / 2) <= 1e-15

    def test_hand_pair_round_trips_tightly(self):
        p = ComplexPolynomial((0.5, 0.5))
        q = ComplexPolynomial((0.5, -0.5))
        seq = synthesize_angles(p, q)
        assert len(seq.thetas) == 2
        assert roundtrip_error(p, q) <= 1e-12

    def test_plan_kernel_round_trips(self):
        ups = build_upsilon(3, 2)
        phi = factorize(gram_polynomial(ups)).phi
        assert roundtrip_error(ups, phi) <= 1e-9

    @pytest.mark.parametrize(
        "p, q",
        [((1.0,), (1.0,)), ((0.6, math.nan), (0.8, 0.0)), ((0.6, 0.0), (0.8, math.nan))],
        ids=["double", "nan-in-p", "nan-in-q"],
    )
    def test_non_complementary_pair_rejected(self, p, q):
        # a NaN residual is no residual within tolerance
        with pytest.raises(ValueError, match="not complementary"):
            synthesize_angles(ComplexPolynomial(p), ComplexPolynomial(q))

    @pytest.mark.parametrize(
        "p, q",
        [
            # a top coefficient below TOP_TOL over a degree-1 partner
            (
                ComplexPolynomial((0.6, 0.3, 5e-14)),
                factorize(gram_polynomial(ComplexPolynomial((0.6, 0.3)))).phi,
            ),
            (ComplexPolynomial((0.6, 0.0, 5e-14)), ComplexPolynomial((0.8j,))),
        ],
        ids=["padded", "doubly-padded"],
    )
    def test_padded_pair_is_refused(self, p, q):
        with pytest.raises(ValueError, match="synthesis step 2: both leading coefficients"):
            synthesize_angles(p, q)

    @given(degree=st.integers(1, 30), seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_pairs_round_trip(self, degree, seed):
        p, q = random_complementary_pair(degree, seed=seed)
        assert roundtrip_error(p, q) <= 1e-9

    def test_moderately_large_degree_round_trips(self):
        p, q = random_complementary_pair(60, seed=123)
        assert roundtrip_error(p, q) <= 1e-9


class TestReconstruct:
    def test_identity_angles(self):
        seq = GQSPAngleSequence(thetas=(0.0,), phis=(0.0,), lambda_final=0.0)
        p, q = reconstruct_polynomials(seq)
        assert p.as_array().tolist() == [1.0 + 0j]
        assert q.as_array().tolist() == [0j]

    @given(
        angles=st.lists(
            st.floats(-math.pi, math.pi), min_size=11, max_size=11
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_any_angle_sequence_yields_complementary_pair(self, angles):
        # unitarity of the underlying product makes the pair complementary
        # no matter where the angles came from
        seq = GQSPAngleSequence(
            thetas=tuple(angles[:5]), phis=tuple(angles[5:10]),
            lambda_final=angles[10],
        )
        p, q = reconstruct_polynomials(seq)
        width = max(p.degree, q.degree) + 1
        m = max(2 * width + 1, 16)
        pa = np.abs(np.array([
            np.polyval(padded(p, width)[::-1], np.exp(2j * np.pi * j / m))
            for j in range(m)
        ]))
        qa = np.abs(np.array([
            np.polyval(padded(q, width)[::-1], np.exp(2j * np.pi * j / m))
            for j in range(m)
        ]))
        assert np.max(np.abs(pa**2 + qa**2 - 1.0)) <= 1e-12


def convolve_reference(factors):
    """C_k of M_{n-1} S ... S M_0, S = diag(1, x): a factor at a time, np.convolve per entry."""
    n = len(factors)
    acc = np.zeros((2, 2, n), dtype=complex)  # [row, column, power]
    acc[..., 0] = factors[0]
    for m in factors[1:]:
        step = np.zeros((2, 2, 2), dtype=complex)  # M S: its right column times x
        step[:, 0, 0], step[:, 1, 1] = m[:, 0], m[:, 1]
        acc = np.array([
            [sum(np.convolve(step[i, j], acc[j, k])[:n] for j in range(2)) for k in range(2)]
            for i in range(2)
        ])
    return acc.transpose(2, 0, 1)


class TestWalkProduct:
    @given(n=st.integers(1, 70), seed=st.integers(0, 10_000))
    # powers of two and their neighbours: no padding identity, one, or 2^k - 1 of them
    @example(n=2, seed=0)
    @example(n=3, seed=1)
    @example(n=15, seed=2)
    @example(n=16, seed=3)
    @example(n=17, seed=4)
    @example(n=63, seed=5)
    @example(n=64, seed=6)
    @example(n=65, seed=7)
    @settings(max_examples=40, deadline=None)
    def test_matches_the_sequential_convolution(self, n, seed):
        # unitary factors keep every partial product's coefficients at most 1
        rng = np.random.default_rng(seed)
        factors, _ = np.linalg.qr(rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
        c = _walk_product(factors)
        assert c.shape == (n, 2, 2) and not c.flags.writeable
        assert np.max(np.abs(c - convolve_reference(factors))) <= 1e-13

    def test_one_factor_is_returned_exactly(self):
        m = np.array([[[0.6, 0.8j], [0.8, -0.6j]]])
        assert np.array_equal(_walk_product(m), m)


class TestMirroredBranches:
    """The minus branch is the plus branch with every theta negated, as `Synthesis.branches` builds it."""

    def test_trivial_kernel_gives_identical_branches(self):
        plus = synthesize_angles(ComplexPolynomial((1.0,)), ComplexPolynomial((0.0,)))
        assert theta_negated(plus) == plus

    def test_branches_reconstruct_with_opposite_partner_signs(self):
        ups = ComplexPolynomial((0.5, 0.5))
        phi = ComplexPolynomial((0.5, -0.5))
        plus = synthesize_angles(ups, phi)
        minus = theta_negated(plus)
        p_plus, q_plus = reconstruct_polynomials(plus)
        p_minus, q_minus = reconstruct_polynomials(minus)
        assert np.max(np.abs(padded(p_plus, 2) - padded(p_minus, 2))) <= 1e-12
        assert np.max(np.abs(padded(q_plus, 2) + padded(q_minus, 2))) <= 1e-12

    def test_plan_kernel_branches_round_trip(self):
        ups = build_upsilon(4, 3)
        phi = factorize(gram_polynomial(ups)).phi
        plus = synthesize_angles(ups, phi)
        for seq, sign in ((plus, 1.0), (theta_negated(plus), -1.0)):
            p2, q2 = reconstruct_polynomials(seq)
            width = ups.degree + 1
            assert np.max(np.abs(padded(p2, width) - padded(ups, width))) <= 1e-9
            assert np.max(
                np.abs(padded(q2, width) - sign * padded(phi, width))
            ) <= 1e-9

    MIRROR_PLANS = [(math.pi / 4, 1e-2, 35), (math.pi / 16, 1e-3, 189), (math.pi / 64, 1e-3, 770)]

    @pytest.mark.parametrize("delta, epsilon, degree", MIRROR_PLANS)
    def test_minus_branch_is_the_theta_negated_plus_branch(self, delta, epsilon, degree):
        plus, minus = synthesize(GapSpec(delta, epsilon=epsilon)).branches
        assert plus.degree == degree
        assert minus.thetas == tuple(-t for t in plus.thetas)
        assert minus.phis == plus.phis
        assert minus.lambda_final == plus.lambda_final
        assert minus.degenerate_steps == plus.degenerate_steps

    @pytest.mark.parametrize("delta, epsilon, degree", MIRROR_PLANS)
    def test_minus_branch_encodes_the_negated_partner_exactly(self, delta, epsilon, degree):
        plus, minus = synthesize(GapSpec(delta, epsilon=epsilon)).branches
        p_plus, q_plus = reconstruct_polynomials(plus)
        p_minus, q_minus = reconstruct_polynomials(minus)
        assert np.array_equal(p_minus.as_array(), p_plus.as_array())
        assert np.array_equal(q_minus.as_array(), -q_plus.as_array())

    @pytest.mark.parametrize("delta, epsilon, degree", MIRROR_PLANS)
    def test_synthesize_peels_once(self, monkeypatch, delta, epsilon, degree):
        pairs = []

        def spy(p, q):
            pairs.append((p, q))
            return synthesize_angles(p, q)

        monkeypatch.setattr(circuit, "synthesize_angles", spy)
        syn = synthesize(GapSpec(delta, epsilon=epsilon))
        assert pairs == [(syn.kernel, syn.completion.phi)]


def reference_peel(p, q):
    """The peel as six allocating ufunc calls a step on numpy scalars: (thetas, phis, lam)."""
    d = max(p.degree, q.degree)
    pw, qw = padded(p, d + 1), padded(q, d + 1)
    thetas, phis = np.zeros(d + 1), np.zeros(d + 1)
    for j in range(d, 0, -1):
        top_p, top_q = pw[j], qw[j]
        theta = math.atan2(abs(top_p), abs(top_q))
        phi = cmath.phase(-top_p * top_q.conjugate())
        thetas[j], phis[j] = theta, phi
        c, s = math.cos(theta), math.sin(theta)
        back = cmath.exp(-1j * phi)
        new_p = (back * c) * pw + s * qw
        new_q = (back * s) * pw - c * qw
        pw, qw = new_p[:j], new_q[1 : j + 1]
    thetas[0] = math.atan2(abs(qw[0]), abs(pw[0]))
    lam = cmath.phase(qw[0]) if qw[0] != 0 else 0.0
    phis[0] = cmath.phase(pw[0]) - lam if pw[0] != 0 else 0.0
    return tuple(map(float, thetas)), tuple(map(float, phis)), lam


class TestPeelMatchesReference:
    """The array peel does each coefficient's arithmetic exactly as the six-ufunc peel does."""

    @pytest.mark.parametrize("delta, epsilon, degree", TestMirroredBranches.MIRROR_PLANS)
    def test_plan_pairs(self, delta, epsilon, degree):
        syn = synthesize(GapSpec(delta, epsilon=epsilon))
        assert syn.plan.degree == degree
        seq = synthesize_angles(syn.kernel, syn.completion.phi)
        assert (seq.thetas, seq.phis, seq.lambda_final) == reference_peel(syn.kernel, syn.completion.phi)

    @pytest.mark.parametrize("degree, seed", [(1, 0), (7, 1), (60, 2), (200, 3)])
    def test_random_pairs(self, degree, seed):
        p, q = random_complementary_pair(degree, seed=seed)
        seq = synthesize_angles(p, q)
        assert (seq.thetas, seq.phis, seq.lambda_final) == reference_peel(p, q)

    @pytest.mark.parametrize("zero", [0j, complex(-0.0, -0.0)], ids=["zero", "negated-zero"])
    def test_zero_partners(self, zero):
        p, q = ComplexPolynomial((1.0,)), ComplexPolynomial((zero,))
        seq = synthesize_angles(p, q)
        assert (seq.thetas, seq.phis, seq.lambda_final) == reference_peel(p, q) == ((0.0,), (0.0,), 0.0)

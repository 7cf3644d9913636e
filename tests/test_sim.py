"""Realization against a dense reference, block extraction and norms."""

import math

import numpy as np
import pytest

from eigenreflect.circuit import (
    AncillaRotation,
    CircuitIR,
    ControlledOracle,
    adjoint,
    build_reflection,
    build_w,
    synthesize,
)
from eigenreflect.completion import factorize, gram_polynomial
from eigenreflect.gqsp import synthesize_angles
from eigenreflect.poly import ComplexPolynomial, GapSpec, build_upsilon
from eigenreflect.sim import _gram_defect, pue_block, realize, spectral_norm

from _pairs import theta_negated


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def poly_of_matrix(coeffs, u):
    acc = np.zeros_like(u)
    power = np.eye(u.shape[0], dtype=complex)
    for c in coeffs:
        acc = acc + c * power
        power = power @ u
    return acc


class TestRealize:
    def test_empty_circuit_is_identity(self):
        w = realize(CircuitIR((), 0), np.eye(3))
        assert np.allclose(w, np.eye(6))

    def test_controlled_oracle_block_layout(self):
        u = np.diag([1.0, -1.0]).astype(complex)
        w = realize(CircuitIR((ControlledOracle(1),), 1), u)
        assert np.allclose(w, np.diag([1, 1, 1, -1]))

    def test_inverse_oracle_with_phase(self):
        u = np.diag([np.exp(0.3j), np.exp(-0.9j)])
        w = realize(CircuitIR((ControlledOracle(-1, phase_shift=0.5),), 1), u)
        expected = np.diag(
            [1, 1, np.exp(-0.5j) * np.exp(-0.3j), np.exp(-0.5j) * np.exp(0.9j)]
        )
        assert np.allclose(w, expected, atol=1e-14)

    def test_rotation_acts_on_ancilla_only(self):
        g = AncillaRotation(math.pi / 2, 0.0, 0.0)
        w = realize(CircuitIR((g,), 0), np.eye(2))
        swap = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))
        assert np.allclose(w, swap, atol=1e-15)

    def test_non_unitary_operator_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            realize(CircuitIR((), 0), np.diag([1.0, 0.5]))

    def test_unknown_gate_rejected(self):
        with pytest.raises(TypeError, match="unknown gate"):
            realize(CircuitIR((AncillaRotation(0.1, 0.2, 0.3), "swap"), 0), np.eye(2))

    def test_non_square_operator_rejected(self):
        with pytest.raises(ValueError, match="square"):
            realize(CircuitIR((), 0), np.ones((2, 3)))

    def test_concatenated_gates_realize_to_the_product_in_order(self):
        u = random_unitary(4, seed=5)
        a = build_w_branches(2, 1)[0]
        b = adjoint(a)
        left = realize(CircuitIR(a.gates + b.gates, a.declared_degree), u)
        right = realize(b, u) @ realize(a, u)
        assert np.allclose(left, right, atol=1e-13)

    def test_adjoint_realizes_to_conjugate_transpose(self):
        u = random_unitary(4, seed=6)
        circ = build_w_branches(3, 2)[0]
        w = realize(circ, u)
        wd = realize(adjoint(circ), u)
        assert spectral_norm(wd - w.conj().T) <= 1e-12

    def test_circuit_times_adjoint_is_identity(self):
        u = random_unitary(8, seed=7)
        circ = build_w_branches(4, 3)[0]
        w = realize(CircuitIR(circ.gates + adjoint(circ).gates, circ.declared_degree), u)
        assert spectral_norm(w - np.eye(16)) <= 1e-11

    def test_phase_shift_equals_phased_oracle(self):
        u = random_unitary(4, seed=8)
        theta = 0.77
        circ = build_w_branches(3, 2, phase_shift=theta)[0]
        plain = build_w_branches(3, 2)[0]
        assert spectral_norm(
            realize(circ, u) - realize(plain, np.exp(-1j * theta) * u)
        ) <= 1e-12


def dense_realize(c, u):
    # reference: one full (2 dim) x (2 dim) gate matrix per gate
    dim = u.shape[0]
    eye, zero = np.eye(dim), np.zeros((dim, dim))
    total = np.eye(2 * dim, dtype=complex)
    for g in c.gates:
        if isinstance(g, AncillaRotation):
            cos, sin = math.cos(g.theta), math.sin(g.theta)
            el, ep = np.exp(1j * g.lam), np.exp(1j * g.phi)
            step = np.kron(np.array([[el * ep * cos, ep * sin], [el * sin, -cos]]), eye)
        else:
            body = np.exp(-1j * g.phase_shift) * np.linalg.matrix_power(u, g.exponent)
            step = np.block([[eye, zero], [zero, body]])
        total = step @ total
    return total


def random_circuit(rng, length):
    gates = []
    for _ in range(length):
        if rng.random() < 0.5:
            gates.append(AncillaRotation(*rng.uniform(-math.pi, math.pi, size=3)))
        else:
            phase = float(rng.choice([0.0, 0.7, rng.uniform(-math.pi, math.pi)]))
            gates.append(ControlledOracle(int(rng.choice([1, -1])), phase))
    return CircuitIR(tuple(gates), length)


def random_walk(rng, degree, exponent):
    # a single-exponent run: rotation, then (oracle, rotation) pairs
    gates = [AncillaRotation(*rng.uniform(-math.pi, math.pi, size=3))]
    for _ in range(degree):
        gates.append(ControlledOracle(exponent, float(rng.uniform(-math.pi, math.pi))))
        gates.append(AncillaRotation(*rng.uniform(-math.pi, math.pi, size=3)))
    return CircuitIR(tuple(gates), degree)


class TestAgainstDenseProduct:
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_matches_the_full_gate_product(self, dim):
        rng = np.random.default_rng(dim)
        u = random_unitary(dim, seed=100 + dim)
        for _ in range(4):
            circ = random_circuit(rng, 24)
            assert np.max(np.abs(realize(circ, u) - dense_realize(circ, u))) <= 1e-13

    @pytest.mark.parametrize("dim", [1, 3, 8])
    @pytest.mark.parametrize("degree, exponent", [(60, 1), (97, -1), (143, 1)])
    def test_long_single_exponent_walks(self, dim, degree, exponent):
        # several Horner steps in x**s
        circ = random_walk(np.random.default_rng(degree), degree, exponent)
        u = random_unitary(dim, seed=200 + dim)
        assert np.max(np.abs(realize(circ, u) - dense_realize(circ, u))) <= 1e-13

    @pytest.mark.parametrize("dim", [2, 8])
    def test_plus_walk_then_mirrored_tail(self, dim):
        syn = synthesize(GapSpec(math.pi / 8, theta=0.6, epsilon=1e-3))
        assert syn.plan.degree == 91
        u = random_unitary(dim, seed=300 + dim)
        assert np.max(np.abs(realize(syn.circuit, u) - dense_realize(syn.circuit, u))) <= 1e-13


def build_w_branches(t, n, phase_shift=0.0):
    ups = build_upsilon(t, n)
    phi = factorize(gram_polynomial(ups)).phi
    plus = synthesize_angles(ups, phi)
    return build_w(plus, phase_shift), build_w(theta_negated(plus), phase_shift)


class TestBranchBlocks:
    def test_walk_blocks_encode_the_polynomial_pair(self):
        ups = build_upsilon(3, 2)
        phi = factorize(gram_polynomial(ups)).phi
        plus = synthesize_angles(ups, phi)
        u = random_unitary(5, seed=11)
        w = realize(build_w(plus), u)
        top = pue_block(w)
        bottom = w[5:, :5]
        assert spectral_norm(top - poly_of_matrix(ups.coeffs, u)) <= 1e-10
        assert spectral_norm(bottom - poly_of_matrix(phi.coeffs, u)) <= 1e-10
        # unitarity of the whole walk makes the two blocks complementary
        gram = top.conj().T @ top + bottom.conj().T @ bottom
        assert spectral_norm(gram - np.eye(5)) <= 1e-10


class TestMirroredMinusBranch:
    def test_composite_block_matches_the_peeled_minus_branch(self):
        # reference: the minus branch peeled from the negated partner
        syn = synthesize(GapSpec(math.pi / 4, epsilon=1e-2))
        negated = ComplexPolynomial(tuple(-c for c in syn.completion.phi.coeffs))
        plus, mirrored = syn.branches
        peeled = synthesize_angles(syn.kernel, negated)
        u = random_unitary(8, seed=21)
        blocks = [
            pue_block(realize(build_reflection(syn.plan, (plus, minus)), u))
            for minus in (peeled, mirrored)
        ]
        assert spectral_norm(blocks[0] - blocks[1]) <= 1e-12


class TestPueBlock:
    def test_block_extraction(self):
        w = np.arange(16, dtype=complex).reshape(4, 4)
        assert np.array_equal(pue_block(w), w[:2, :2])

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError, match="even"):
            pue_block(np.eye(3))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(8)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        assert spectral_norm(np.diag([0.3, -0.7])) == pytest.approx(0.7, abs=1e-14)

    def test_empty(self):
        assert spectral_norm(np.zeros((0, 4))) == 0.0

    def test_vector_input_rejected(self):
        with pytest.raises(ValueError):
            spectral_norm(np.ones(4))

    def test_large_diagonal_norm_is_its_largest_entry(self):
        # a known diagonal keeps the answer exact
        d = np.linspace(0.1, 2.0, 300)
        assert spectral_norm(np.diag(d)) == pytest.approx(2.0, abs=1e-9)

    def test_large_zero_matrix_norm_is_zero(self):
        assert spectral_norm(np.zeros((300, 300))) == 0.0

    def test_large_residual_sized_matrix_matches_svd(self):
        # residual-sized norms of large matrices must not be under-reported
        rng = np.random.default_rng(5)
        a = 1e-13 * (rng.normal(size=(300, 300)) + 1j * rng.normal(size=(300, 300)))
        expected = np.linalg.svd(a, compute_uv=False)[0]
        assert spectral_norm(a) == pytest.approx(expected, rel=1e-12)


class TestGramDefect:
    """||w^dagger w - I|| from eigvalsh agrees with the SVD norm of the same difference."""

    @staticmethod
    def svd_defect(w):
        return spectral_norm(w.conj().T @ w - np.eye(w.shape[0]))

    @pytest.mark.parametrize("dim", [1, 2, 5, 16, 64])
    @pytest.mark.parametrize("scale", [1e-3, 1e-1])
    def test_near_unitary(self, dim, scale):
        # defects far above rounding, so the last bits of the Gram product do not matter
        rng = np.random.default_rng(dim)
        w = random_unitary(dim, seed=dim) + scale * (
            rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        )
        assert _gram_defect(w) == pytest.approx(self.svd_defect(w), rel=1e-12)

    @pytest.mark.parametrize("dim", [8, 64])
    def test_residual_sized(self, dim):
        # a realized synthesized circuit, whose defect is rounding alone
        syn = synthesize(GapSpec(math.pi / 4, epsilon=1e-2))
        w = realize(syn.circuit, random_unitary(dim, seed=3))
        defect = _gram_defect(w)
        assert 0.0 < defect <= 1e-12
        assert defect == pytest.approx(self.svd_defect(w), rel=1e-12)

    def test_empty(self):
        assert _gram_defect(np.zeros((0, 0), dtype=complex)) == 0.0

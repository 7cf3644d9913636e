"""Dense realization and norm computation."""

import math

import numpy as np
import pytest

from eigenreflect.circuit import (
    AncillaRotation,
    CircuitIR,
    ControlledOracle,
    adjoint,
    build_w,
    compose,
)
from eigenreflect.completion import factorize, gram_polynomial
from eigenreflect.gqsp import branch_pair
from eigenreflect.poly import build_upsilon
from eigenreflect.sim import pue_block, realize, spectral_norm


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

    def test_non_square_operator_rejected(self):
        with pytest.raises(ValueError, match="square"):
            realize(CircuitIR((), 0), np.ones((2, 3)))

    def test_compose_multiplies_in_order(self):
        u = random_unitary(4, seed=5)
        a = build_w_branches(2, 1)[0]
        b = adjoint(a)
        left = realize(compose(a, b), u)
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
        w = realize(compose(circ, adjoint(circ)), u)
        assert spectral_norm(w - np.eye(16)) <= 1e-11

    def test_tail_from_head_equals_whole_circuit(self):
        u = random_unitary(4, seed=9)
        plus, minus = build_w_branches(3, 2, phase_shift=0.4)
        whole = compose(plus, adjoint(minus))
        head = realize(plus, u)
        tail = CircuitIR(whole.gates[len(plus.gates):], whole.declared_degree)
        assert np.array_equal(realize(tail, u, initial=head), realize(whole, u))
        assert np.array_equal(head, realize(plus, u))  # the snapshot is not mutated

    def test_phase_shift_equals_phased_oracle(self):
        u = random_unitary(4, seed=8)
        theta = 0.77
        circ = build_w_branches(3, 2, phase_shift=theta)[0]
        plain = build_w_branches(3, 2)[0]
        assert spectral_norm(
            realize(circ, u) - realize(plain, np.exp(-1j * theta) * u)
        ) <= 1e-12


def build_w_branches(t, n, phase_shift=0.0):
    ups = build_upsilon(t, n)
    phi = factorize(gram_polynomial(ups)).phi
    plus, minus = branch_pair(ups, phi)
    return build_w(plus, phase_shift), build_w(minus, phase_shift)


class TestBranchBlocks:
    def test_walk_blocks_encode_the_polynomial_pair(self):
        ups = build_upsilon(3, 2)
        phi = factorize(gram_polynomial(ups)).phi
        plus, _ = branch_pair(ups, phi)
        u = random_unitary(5, seed=11)
        w = realize(build_w(plus), u)
        top = pue_block(w, "top_left")
        bottom = pue_block(w, "bottom_left")
        assert spectral_norm(top - poly_of_matrix(ups.coeffs, u)) <= 1e-10
        assert spectral_norm(bottom - poly_of_matrix(phi.coeffs, u)) <= 1e-10
        # unitarity of the whole walk makes the two blocks complementary
        gram = top.conj().T @ top + bottom.conj().T @ bottom
        assert spectral_norm(gram - np.eye(5)) <= 1e-10


class TestPueBlock:
    def test_block_extraction(self):
        w = np.arange(16, dtype=complex).reshape(4, 4)
        assert np.array_equal(pue_block(w), w[:2, :2])
        assert np.array_equal(pue_block(w, "bottom_left"), w[2:, :2])

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError, match="even"):
            pue_block(np.eye(3))

    def test_unknown_block_rejected(self):
        with pytest.raises(ValueError, match="unknown block"):
            pue_block(np.eye(4), "top_right")


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

    def test_large_matrix_path(self):
        # a known diagonal keeps the answer exact
        d = np.linspace(0.1, 2.0, 300)
        assert spectral_norm(np.diag(d)) == pytest.approx(2.0, abs=1e-9)

    def test_zero_matrix_large_path(self):
        assert spectral_norm(np.zeros((300, 300))) == 0.0

    def test_large_residual_sized_matrix_matches_svd(self):
        # residual-sized norms of large matrices must not be under-reported
        rng = np.random.default_rng(5)
        a = 1e-13 * (rng.normal(size=(300, 300)) + 1j * rng.normal(size=(300, 300)))
        expected = np.linalg.svd(a, compute_uv=False)[0]
        assert spectral_norm(a) == pytest.approx(expected, rel=1e-12)

"""Spectral ground truth and end-to-end verification verdicts."""

import math
from dataclasses import replace

import numpy as np
import pytest

from eigenreflect.circuit import synthesize
from eigenreflect.oracle import (
    GapViolation,
    SpectralData,
    TargetAbsent,
    apply_poly,
    decompose,
    exact_projector,
    validate_gap,
    verify_reflection,
)
from eigenreflect.poly import (
    ComplexPolynomial,
    GapSpec,
    build_upsilon,
    max_modulus_outside_gap,
    select_parameters,
)
from eigenreflect.sim import spectral_norm
from eigenreflect.testgen import SpectrumSpec, random_gapped_unitary


class TestDecompose:
    def test_identity_phases(self):
        s = decompose(np.eye(4))
        assert np.allclose(s.eigenphases, 0.0)
        assert s.dim == 4
        assert spectral_norm(s.reconstruct() - np.eye(4)) <= 1e-12

    def test_diag_phases_sorted(self):
        s = decompose(np.diag([-1.0 + 0j, 1.0]))
        assert s.eigenphases == pytest.approx([0.0, math.pi])

    def test_random_unitary_reconstructs(self):
        u = random_gapped_unitary(SpectrumSpec(dim=16, delta=0.5, seed=3))
        s = decompose(u)
        assert spectral_norm(s.reconstruct() - u) <= 1e-10
        assert np.all(np.diff(s.eigenphases) >= 0)
        basis = s.eigenvectors
        assert spectral_norm(basis.conj().T @ basis - np.eye(16)) <= 1e-10

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            decompose(np.diag([1.0, 2.0]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            decompose(np.ones((2, 3)))


class TestValidateGap:
    def test_counts_target_multiplicity(self):
        spec = SpectrumSpec(dim=8, delta=math.pi / 3, target_multiplicity=3, seed=9)
        s = decompose(random_gapped_unitary(spec))
        assert validate_gap(s, GapSpec(math.pi / 3, epsilon=0.1)) == 3

    def test_detects_intruding_phase(self):
        u = np.diag([1.0, 1.0, np.exp(1j * math.pi / 4)])
        s = decompose(u)
        with pytest.raises(GapViolation) as err:
            validate_gap(s, GapSpec(math.pi / 2, epsilon=0.1))
        assert err.value.offending_phase == pytest.approx(math.pi / 4)

    def test_arc_boundary_behavior(self):
        # the arc is open: a bystander just past delta is legal, one just
        # short of it is not
        legal = np.diag([1.0, np.exp(1j * (math.pi / 2 + 1e-6))])
        assert validate_gap(decompose(legal), GapSpec(math.pi / 2, epsilon=0.1)) == 1
        intruder = np.diag([1.0, np.exp(1j * (math.pi / 2 - 1e-6))])
        with pytest.raises(GapViolation):
            validate_gap(decompose(intruder), GapSpec(math.pi / 2, epsilon=0.1))

    def test_missing_target_raises(self):
        u = np.diag([np.exp(2j), np.exp(-2j)])
        s = decompose(u)
        with pytest.raises(TargetAbsent):
            validate_gap(s, GapSpec(1.0, epsilon=0.1))

    def test_violation_takes_precedence_over_absence(self):
        u = np.diag([np.exp(0.3j)])
        s = decompose(u)
        with pytest.raises(GapViolation):
            validate_gap(s, GapSpec(1.0, epsilon=0.1))

    def test_nonzero_target_phase(self):
        spec = SpectrumSpec(dim=6, delta=0.8, theta=1.1, seed=4)
        s = decompose(random_gapped_unitary(spec))
        assert validate_gap(s, GapSpec(0.8, theta=1.1, epsilon=0.1)) == 1


class TestExactProjector:
    def test_identity_projects_everything(self):
        s = decompose(np.eye(3))
        assert np.allclose(exact_projector(s, 0.0), np.eye(3))

    def test_rank_matches_multiplicity(self):
        spec = SpectrumSpec(dim=8, delta=1.0, target_multiplicity=3, seed=2)
        s = decompose(random_gapped_unitary(spec))
        p = exact_projector(s, 0.0)
        assert np.trace(p).real == pytest.approx(3.0, abs=1e-10)
        assert spectral_norm(p @ p - p) <= 1e-10
        assert spectral_norm(p - p.conj().T) <= 1e-10

    def test_absent_phase_raises(self):
        s = decompose(np.eye(2))
        with pytest.raises(TargetAbsent):
            exact_projector(s, 2.0)


class TestApplyPoly:
    def test_constant_polynomial(self):
        s = decompose(np.diag([1.0 + 0j, -1.0]))
        assert np.allclose(apply_poly(s, ComplexPolynomial((1.0,))), np.eye(2))

    def test_linear_polynomial_reproduces_operator(self):
        u = random_gapped_unitary(SpectrumSpec(dim=5, delta=0.5, seed=6))
        s = decompose(u)
        assert spectral_norm(
            apply_poly(s, ComplexPolynomial((0.0, 1.0))) - u
        ) <= 1e-10

    def test_kernel_contracts_to_projector(self):
        # Upsilon(U) approximates the target projector to within the
        # kernel's modulus outside the gap
        gap = GapSpec(math.pi / 2, epsilon=1e-2)
        plan = select_parameters(gap)
        ups = build_upsilon(plan.t, plan.n)
        u = random_gapped_unitary(SpectrumSpec(dim=12, delta=gap.delta, seed=8))
        s = decompose(u)
        projector = exact_projector(s, 0.0)
        distance = spectral_norm(apply_poly(s, ups) - projector)
        assert distance <= max_modulus_outside_gap(ups, gap.delta) + 1e-12
        assert distance <= gap.epsilon


class TestVerifyReflection:
    def test_identity_oracle_is_exact(self):
        gap = GapSpec(math.pi / 2, epsilon=0.1)
        syn = synthesize(gap)
        plan = syn.plan
        report = verify_reflection(np.eye(4), syn)
        assert report.measured_error <= 1e-10
        assert report.bound == pytest.approx(0.4)
        assert report.bound_satisfied
        assert report.target_multiplicity == 4
        assert report.counts == report.predicted_counts
        assert report.counts.controlled_u == plan.degree

    def test_two_point_spectrum_at_full_gap(self):
        gap = GapSpec(math.pi, epsilon=0.1)
        syn = synthesize(gap)
        ups = syn.kernel
        u = np.diag([1.0 + 0j, -1.0])
        report = verify_reflection(u, syn)
        assert report.bound_satisfied
        # the composite block error is twice the squared kernel modulus
        # at the lone bystander phase
        peak = max_modulus_outside_gap(ups, gap.delta)
        assert report.measured_error == pytest.approx(2 * peak**2, rel=1e-6)

    def test_residuals_are_tight_on_generic_instance(self):
        gap = GapSpec(math.pi / 2, epsilon=1e-2)
        syn = synthesize(gap)
        plan = syn.plan
        u = random_gapped_unitary(
            SpectrumSpec(dim=16, delta=gap.delta, target_multiplicity=3, seed=7)
        )
        report = verify_reflection(u, syn)
        assert report.bound_satisfied
        assert report.measured_error <= 4 * gap.epsilon
        assert report.unitarity_residual <= 1e-11
        assert report.branch_unitarity_residual <= 1e-11
        assert report.completion_residual <= 1e-10
        assert report.oracle_block_residual <= 1e-8
        assert report.target_multiplicity == 3
        assert report.counts.total == 2 * plan.degree + 2 * (plan.degree + 1)
        assert plan.degree == 15

    def test_measured_error_matches_spectral_route(self):
        # the circuit-free route: 2 Upsilon(U) Upsilon(U)^dagger - I is
        # what the composite block realizes up to completion error
        gap = GapSpec(math.pi / 4, epsilon=1e-2)
        syn = synthesize(gap)
        ups = syn.kernel
        u = random_gapped_unitary(SpectrumSpec(dim=10, delta=gap.delta, seed=13))
        s = decompose(u)
        report = verify_reflection(u, syn)
        block = apply_poly(s, ups)
        ideal = 2.0 * exact_projector(s, 0.0) - np.eye(10)
        spectral_route = spectral_norm(
            2.0 * block @ block.conj().T - np.eye(10) - ideal
        )
        assert report.measured_error == pytest.approx(spectral_route, abs=1e-9)

    def test_chain_inequality(self):
        # measured composite error is at most four times the kernel's
        # projector distance
        gap = GapSpec(math.pi / 8, epsilon=1e-3)
        syn = synthesize(gap)
        ups = syn.kernel
        u = random_gapped_unitary(SpectrumSpec(dim=8, delta=gap.delta, seed=21))
        s = decompose(u)
        report = verify_reflection(u, syn)
        kernel_distance = spectral_norm(apply_poly(s, ups) - exact_projector(s, 0.0))
        assert report.measured_error <= 4 * kernel_distance + 1e-10

    def test_shifted_target_phase(self):
        theta = 0.9
        gap = GapSpec(math.pi / 2, theta=theta, epsilon=1e-2)
        syn = synthesize(gap)
        u = random_gapped_unitary(
            SpectrumSpec(dim=12, delta=gap.delta, theta=theta, seed=5)
        )
        report = verify_reflection(u, syn)
        assert report.bound_satisfied
        assert report.measured_error <= 4 * gap.epsilon
        assert report.oracle_block_residual <= 1e-8

    def test_checks_the_circuit_it_is_given(self):
        # a wrong angle in the plus branch must show in the report: verify
        # realizes the record's circuit, not a copy rebuilt from the plan
        gap = GapSpec(math.pi / 2, epsilon=1e-2)
        syn = synthesize(gap)
        u = random_gapped_unitary(SpectrumSpec(dim=8, delta=gap.delta, seed=3))
        gates = list(syn.circuit.gates)
        gates[2] = replace(gates[2], theta=gates[2].theta + 0.1)
        bad = replace(syn, circuit=replace(syn.circuit, gates=tuple(gates)))
        assert verify_reflection(u, syn).oracle_block_residual <= 1e-8
        assert verify_reflection(u, bad).oracle_block_residual > 1e-3

    def test_gap_violation_propagates(self):
        gap = GapSpec(math.pi / 2, epsilon=0.1)
        syn = synthesize(gap)
        u = np.diag([1.0 + 0j, np.exp(1j * math.pi / 4)])
        with pytest.raises(GapViolation):
            verify_reflection(u, syn)

    def test_target_absent_propagates(self):
        gap = GapSpec(1.0, epsilon=0.1)
        syn = synthesize(gap)
        u = np.diag([np.exp(2j), np.exp(-2j)])
        with pytest.raises(TargetAbsent):
            verify_reflection(u, syn)


class TestSpectralData:
    def test_dim_and_reconstruct(self):
        s = SpectralData(
            eigenphases=np.array([0.0, math.pi]),
            eigenvectors=np.eye(2, dtype=complex),
        )
        assert s.dim == 2
        assert np.allclose(s.reconstruct(), np.diag([1.0, -1.0]))

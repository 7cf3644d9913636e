"""Spectral ground truth and end-to-end verification verdicts."""

import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigenreflect import circuit, completion, gqsp, oracle, sim
from eigenreflect.circuit import CircuitIR, synthesize
from eigenreflect.oracle import (
    GapViolation,
    SpectralData,
    TargetAbsent,
    apply_poly,
    decompose,
    exact_projector,
    validate_gap,
    verify_reflection,
    verify_stack,
)
from eigenreflect.poly import (
    ComplexPolynomial,
    GapSpec,
    build_upsilon,
    max_modulus_outside_gap,
    select_parameters,
)
from eigenreflect.sim import realize
from eigenreflect.testgen import SpectrumSpec, random_gapped_unitary

from _pairs import MIRROR_RECORDS


class TestDecompose:
    def test_identity_phases(self):
        s = decompose(np.eye(4))
        assert np.allclose(s.eigenphases, 0.0)
        assert s.dim == 4
        assert np.linalg.norm(s.reconstruct() - np.eye(4), 2) <= 1e-12

    def test_diag_phases_sorted(self):
        s = decompose(np.diag([-1.0 + 0j, 1.0]))
        assert s.eigenphases == pytest.approx([0.0, math.pi])

    def test_random_unitary_reconstructs(self):
        u = random_gapped_unitary(SpectrumSpec(dim=16, delta=0.5, seed=3))
        s = decompose(u)
        assert np.linalg.norm(s.reconstruct() - u, 2) <= 1e-10
        assert np.all(np.diff(s.eigenphases) >= 0)
        basis = s.eigenvectors
        assert np.linalg.norm(basis.conj().T @ basis - np.eye(16), 2) <= 1e-10

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            decompose(np.diag([1.0, 2.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="not unitary"):
            decompose(np.full((2, 2), value))
        with pytest.raises(ValueError, match="not unitary"):
            decompose(np.where(np.eye(3, k=1) == 1, value, np.eye(3)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            decompose(np.ones((2, 3)))


def _with_phases(phases, seed):
    dim = len(phases)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return (q * np.exp(1j * np.asarray(phases))) @ q.conj().T


def _cyclic_shift(dim):
    return np.roll(np.eye(dim, dtype=complex), 1, axis=0)


def _assert_exact(s, u):
    assert np.linalg.norm(s.reconstruct() - u, 2) <= 1e-12
    v = s.eigenvectors
    assert np.linalg.norm(v.conj().T @ v - np.eye(s.dim), 2) <= 1e-12
    assert np.all(np.diff(s.eigenphases) >= 0)
    assert -math.pi < s.eigenphases[0] and s.eigenphases[-1] <= math.pi


class TestDecomposeAdversarial:
    """Spectra that leave the Cayley pole the least room, or none to spare."""

    @pytest.mark.parametrize("dim", [2, 64, 256])
    def test_cyclic_shift(self, dim):
        # the dim-th roots of unity: every empty arc is exactly 2 pi / dim,
        # and -1 is an exact eigenvalue, reported as +pi (the last root)
        # whichever side of the cut rounding lands on
        u = _cyclic_shift(dim)
        s = decompose(u)
        _assert_exact(s, u)
        roots = 2 * math.pi * np.arange(-dim // 2 + 1, dim // 2 + 1) / dim
        assert np.max(np.abs(s.eigenphases - roots)) <= 1e-12

    def test_forty_phases_within_1e_7(self):
        rng = np.random.default_rng(5)
        phases = 0.7 + 1e-7 * rng.uniform(size=40)
        u = _with_phases(phases, seed=6)
        s = decompose(u)
        _assert_exact(s, u)
        assert np.max(np.abs(s.eigenphases - np.sort(phases))) <= 1e-12

    def test_minus_one_in_a_random_basis(self):
        # seed 2 lands one of the pair just past -pi before the cut snaps it
        u = _with_phases([math.pi, math.pi, 0.4, -2.0, 1.5], seed=2)
        s = decompose(u)
        _assert_exact(s, u)
        assert s.eigenphases[-2:] == pytest.approx([math.pi, math.pi], abs=1e-12)
        assert s.eigenphases[0] > -math.pi + 1e-12

    def test_dim_one(self):
        u = np.array([[np.exp(-2.5j)]])
        s = decompose(u)
        _assert_exact(s, u)
        assert s.eigenphases == pytest.approx([-2.5], abs=1e-15)
        assert abs(abs(s.eigenvectors[0, 0]) - 1.0) <= 1e-15

    def test_dim_zero(self):
        s = decompose(np.zeros((0, 0)))
        assert s.eigenphases.shape == (0,) and s.eigenvectors.shape == (0, 0)

    def test_multiplicity_three_target(self):
        spec = SpectrumSpec(dim=48, delta=0.6, theta=-1.3, target_multiplicity=3, seed=4)
        u = random_gapped_unitary(spec)
        s = decompose(u)
        _assert_exact(s, u)
        p = exact_projector(s, -1.3)
        assert np.trace(p).real == pytest.approx(3.0, abs=1e-12)
        assert np.linalg.norm(p @ u - np.exp(-1.3j) * p, 2) <= 1e-12


class TestDecomposeProperty:
    @given(
        dim=st.integers(1, 64),
        delta=st.floats(0.05, 2.9),
        theta=st.floats(-math.pi, math.pi),
        multiplicity=st.integers(1, 64),
        seed=st.integers(0, 10_000),
    )
    @example(dim=9, delta=0.5, theta=math.pi, multiplicity=2, seed=1)
    @example(dim=64, delta=0.05, theta=0.0, multiplicity=64, seed=0)
    @settings(max_examples=40, deadline=None)
    def test_matches_eigvals(self, dim, delta, theta, multiplicity, seed):
        spec = SpectrumSpec(
            dim=dim, delta=delta, theta=theta,
            target_multiplicity=min(multiplicity, dim), seed=seed,
        )
        u = random_gapped_unitary(spec)
        s = decompose(u)
        assert np.all(np.diff(s.eigenphases) >= 0)
        assert -math.pi < s.eigenphases[0] and s.eigenphases[-1] <= math.pi
        # the multisets agree: pair each eigenvalue with its nearest unused match
        unused = list(np.linalg.eigvals(u))
        for z in np.exp(1j * s.eigenphases):
            nearest = int(np.argmin(np.abs(np.asarray(unused) - z)))
            assert abs(unused.pop(nearest) - z) <= 1e-12


class TestDecomposeAgainstSchur:
    @pytest.mark.parametrize(
        "dim, multiplicity, theta", [(16, 1, 0.0), (64, 3, 2.2), (128, 1, -0.9), (128, 3, math.pi)]
    )
    def test_target_projectors_agree(self, dim, multiplicity, theta):
        sla = pytest.importorskip("scipy.linalg")
        spec = SpectrumSpec(
            dim=dim, delta=0.4, theta=theta, target_multiplicity=multiplicity, seed=dim
        )
        u = random_gapped_unitary(spec)
        t, z = sla.schur(u, output="complex")
        mask = np.abs(np.angle(np.diagonal(t) * np.exp(-1j * theta))) <= 1e-9
        assert np.count_nonzero(mask) == multiplicity
        reference = z[:, mask] @ z[:, mask].conj().T
        assert np.linalg.norm(exact_projector(decompose(u), theta) - reference, 2) <= 1e-12


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
        assert np.linalg.norm(p @ p - p, 2) <= 1e-10
        assert np.linalg.norm(p - p.conj().T, 2) <= 1e-10

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
        assert np.linalg.norm(
            apply_poly(s, ComplexPolynomial((0.0, 1.0))) - u, 2
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
        distance = np.linalg.norm(apply_poly(s, ups) - projector, 2)
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
        float_fields = [f.name for f in fields(report) if f.type == "float"]
        assert len(float_fields) == 6
        for name in float_fields:  # Python floats, not numpy scalars
            assert type(getattr(report, name)) is float, name
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
        spectral_route = np.linalg.norm(
            2.0 * block @ block.conj().T - np.eye(10) - ideal, 2
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
        kernel_distance = np.linalg.norm(apply_poly(s, ups) - exact_projector(s, 0.0), 2)
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
        # a wrong angle in the plus branch, mirrored into the tail, must show
        # in the report: verify evaluates the record's plus coefficients, built
        # from its own plus angles and the plan's phase, not from a copy rebuilt
        # from the plan; test_circuit.py's TestWalkCoefficients ties those
        # coefficients to the record's plus gates
        gap = GapSpec(math.pi / 2, epsilon=1e-2)
        syn = synthesize(gap)
        u = random_gapped_unitary(SpectrumSpec(dim=8, delta=gap.delta, seed=3))
        thetas = list(syn.plus.thetas)
        thetas[1] += 0.1
        bad = replace(syn, plus=replace(syn.plus, thetas=tuple(thetas)))
        assert verify_reflection(u, syn).oracle_block_residual <= 1e-8
        assert verify_reflection(u, bad).oracle_block_residual > 1e-3

    def test_reports_the_residual_factorize_checked(self, monkeypatch):
        gap = GapSpec(math.pi / 2, epsilon=1e-2)
        syn = synthesize(gap)
        calls = []
        real = completion.completion_residual

        def spy(*args):
            calls.append(args)
            return real(*args)

        for module in (circuit, completion, gqsp, oracle, sim):  # every name verify could call
            if hasattr(module, "completion_residual"):
                monkeypatch.setattr(module, "completion_residual", spy)
        for seed in (1, 2):
            u = random_gapped_unitary(SpectrumSpec(dim=4, delta=gap.delta, seed=seed))
            assert verify_reflection(u, syn).completion_residual == syn.completion.residual
        assert calls == []

    def test_non_unitary_oracle_rejected(self):
        syn = synthesize(GapSpec(math.pi / 2, epsilon=0.1))
        with pytest.raises(ValueError, match="not unitary"):
            verify_reflection(np.diag([1.0, 0.5]), syn)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_oracle_rejected(self, value):
        syn = synthesize(GapSpec(math.pi / 2, epsilon=0.1))
        for u in (np.full((2, 2), value), np.diag([1.0, value])):
            with pytest.raises(ValueError, match="not unitary"):
                verify_reflection(u, syn)

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


def _count_eigvals(monkeypatch):
    calls = []
    real = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a) or real(a))
    return calls


class TestDecomposeGapPole:
    """decompose(u, gap=...): the pole at theta + delta / 2, placed by the promise."""

    CASES = [
        (8, math.pi / 2, 0.0, 1),
        (16, 0.5, -2.1, 3),
        (64, math.pi / 4, 1.3, 1),
        (96, math.pi / 3, math.pi, 3),
        (128, 0.05, 0.4, 1),  # delta / 2 just above pi / dim
    ]

    @pytest.mark.parametrize("dim, delta, theta, multiplicity", CASES)
    def test_agrees_with_the_eigvals_pole(self, dim, delta, theta, multiplicity):
        spec = SpectrumSpec(dim, delta, theta, multiplicity, seed=dim)
        u = random_gapped_unitary(spec)
        by_gap = decompose(u, gap=GapSpec(delta, theta=theta, epsilon=0.1))
        by_eigvals = decompose(u)
        assert np.max(np.abs(by_gap.eigenphases - by_eigvals.eigenphases)) <= 1e-13
        assert np.linalg.norm(
            exact_projector(by_gap, theta) - exact_projector(by_eigvals, theta), 2
        ) <= 1e-12

    @pytest.mark.parametrize("dim, delta, theta, multiplicity", CASES)
    def test_a_kept_promise_calls_no_eigvals(self, monkeypatch, dim, delta, theta, multiplicity):
        u = random_gapped_unitary(SpectrumSpec(dim, delta, theta, multiplicity, seed=dim))
        calls = _count_eigvals(monkeypatch)
        s = decompose(u, gap=GapSpec(delta, theta=theta, epsilon=0.1))
        assert calls == []
        _assert_exact(s, u)

    def test_a_narrow_gap_places_the_pole_by_eigvals(self, monkeypatch):
        # delta / 2 < pi / dim: the gap pole would be worse conditioned
        u = random_gapped_unitary(SpectrumSpec(dim=128, delta=0.04, seed=2))
        calls = _count_eigvals(monkeypatch)
        s = decompose(u, gap=GapSpec(0.04, epsilon=0.1))
        assert len(calls) == 1
        _assert_exact(s, u)


class TestPlantedGapViolation:
    """One eigenvalue planted inside the arc is reported, whichever pole decomposes it."""

    GAP = GapSpec(math.pi / 2, theta=0.7, epsilon=1e-2)
    PLANTED = {
        "at the gap pole": 0.7 + math.pi / 4,
        "next to the gap pole": 0.7 + math.pi / 4 + 1e-13,
        "just inside theta + delta": 0.7 + math.pi / 2 - 1e-6,
        "inside theta - delta": 0.7 - 0.3 * math.pi / 2,
        "just inside theta - delta": 0.7 - math.pi / 2 + 1e-6,
    }

    @classmethod
    def unitary(cls, planted):
        theta = cls.GAP.theta
        others = theta + np.array([math.pi, 2.0, -2.0, 1.7, -2.6, 2.9, -1.8])
        return _with_phases([theta, theta, planted, *others], seed=9)

    @pytest.mark.parametrize("planted", PLANTED.values(), ids=PLANTED)
    def test_verify_raises_gap_violation(self, monkeypatch, planted):
        calls = _count_eigvals(monkeypatch)
        with pytest.raises(GapViolation) as info:
            verify_reflection(self.unitary(planted), synthesize(self.GAP))
        assert info.value.offending_phase == pytest.approx(planted, abs=1e-9)
        # the (theta, theta + delta) side lies within delta / 2 of the gap
        # pole, so the check sends it to eigvals; the other side does not
        assert len(calls) == (planted > self.GAP.theta)


class TestMirroredComposite:
    """verify reads the composite off the plus walk, whose mirror's adjoint is the tail."""

    THETA = 0.6

    @classmethod
    def instance(cls, delta, epsilon, degree, dim):
        syn = synthesize(GapSpec(delta, theta=cls.THETA, epsilon=epsilon))
        assert syn.plan.degree == degree
        u = random_gapped_unitary(SpectrumSpec(dim=dim, delta=delta, theta=cls.THETA, seed=dim))
        return syn, u

    @pytest.mark.parametrize("delta, epsilon, degree", MIRROR_RECORDS)
    @pytest.mark.parametrize("dim", [8, 64])
    def test_matches_the_gate_by_gate_realization(self, delta, epsilon, degree, dim):
        # measured_error from W+'s blocks against the whole composite from `realize`, each
        # run by Paterson-Stockmeyer; test_sim.py's dense_realize is the gate-by-gate reference
        syn, u = self.instance(delta, epsilon, degree, dim)
        s = decompose(u, gap=syn.plan.gap)
        ideal = 2.0 * exact_projector(s, self.THETA) - np.eye(dim)
        gate_by_gate = np.linalg.norm(realize(syn.circuit, u)[:dim, :dim] - ideal, 2)
        assert abs(verify_reflection(u, syn).measured_error - gate_by_gate) <= 1e-14

    @pytest.mark.parametrize("delta, epsilon, degree", MIRROR_RECORDS)
    @pytest.mark.parametrize("dim", [8, 32, 128, 256])
    def test_certified_unitarity_bounds_the_formed_composite(self, delta, epsilon, degree, dim):
        syn, u = self.instance(delta, epsilon, degree, dim)
        report = verify_reflection(u, syn)
        formed = sim._gram_defect(realize(syn.circuit, u))
        assert formed <= report.unitarity_residual <= 1e-10  # criterion 7's composite threshold
        eta = report.branch_unitarity_residual
        assert report.unitarity_residual >= eta * (2.0 + eta)

    @pytest.mark.parametrize("delta, epsilon, degree", MIRROR_RECORDS[1:])
    @pytest.mark.parametrize("dim", [8, 16])
    def test_certified_unitarity_bounds_a_defective_input(self, delta, epsilon, degree, dim):
        # u = u0 S, S Hermitian with u^dagger u - I = S^2 - I of spectral norm 5e-11, which
        # the unitarity check accepts: the report reads its defect off W+'s first column
        syn, u0 = self.instance(delta, epsilon, degree, dim)
        rng = np.random.default_rng(dim)
        e = 5e-11 * rng.uniform(0.8, 1.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
        e[0] = 5e-11
        v = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        u = u0 @ (v * np.sqrt(1.0 + e)) @ v.conj().T
        assert sim._gram_defect(u, 2) == pytest.approx(5e-11, rel=1e-4, abs=0.0)
        report = verify_reflection(u, syn)
        assert report.unitarity_residual >= sim._gram_defect(realize(syn.circuit, u), 2)

    @pytest.mark.parametrize("delta, epsilon, degree, s", [
        (math.pi / 4, 1e-2, 35, 9), (math.pi / 8, 1e-3, 91, 12)
    ])
    def test_verify_holds_one_block_column(self, delta, epsilon, degree, s):
        # W+'s first column, `step` and the powers x, ..., x**s: (s + 4) dim^2 complex entries;
        # one dim^2 more for the rest.  Both of W+'s columns would add 2 dim^2 and a larger s.
        dim = 128
        syn = synthesize(GapSpec(delta, theta=self.THETA, epsilon=epsilon))
        assert syn.plan.degree == degree
        u = random_gapped_unitary(SpectrumSpec(dim=dim, delta=delta, theta=self.THETA, seed=1))
        verify_reflection(u, syn)  # the record's coefficients and counts, built on first use
        tracemalloc.start()
        try:
            verify_reflection(u, syn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (s + 5) * dim * dim * 16
        assert sim._split(degree + 1) == s

    @pytest.mark.parametrize("delta, epsilon, degree", MIRROR_RECORDS)
    def test_one_branch_walk_per_verify(self, monkeypatch, delta, epsilon, degree):
        # one W+ evaluation per verify, from coefficients built once per record
        syn = synthesize(GapSpec(delta, theta=-0.4, epsilon=epsilon))
        u = random_gapped_unitary(SpectrumSpec(dim=8, delta=delta, theta=-0.4, seed=1))
        walks, built = [], []
        real_walk, real_build = oracle._evaluate_walk, circuit._walk_product
        monkeypatch.setattr(
            oracle, "_evaluate_walk", lambda c, x: walks.append(c) or real_walk(c, x)
        )
        monkeypatch.setattr(
            circuit, "_walk_product", lambda f: built.append(f) or real_build(f)
        )
        for _ in range(2):
            assert verify_reflection(u, syn).bound_satisfied
        assert len(built) == 1 and built[0].shape == (degree + 1, 2, 2)
        assert len(walks) == 2 and all(c is syn.plus_coefficients for c in walks)
        assert syn.plus_coefficients.shape == (degree + 1, 2)  # W+'s first column only

    def test_gates_counted_once_per_record(self, monkeypatch):
        syn, u = self.instance(*MIRROR_RECORDS[0], dim=8)
        counted = []
        real = circuit.gate_counts
        monkeypatch.setattr(circuit, "gate_counts", lambda c: counted.append(c) or real(c))
        reports = [verify_reflection(u, syn) for _ in range(2)]
        assert counted == [syn.circuit]
        assert reports[0].counts == reports[1].counts == real(syn.circuit)

    @pytest.mark.parametrize("delta, epsilon, degree", MIRROR_RECORDS)
    def test_one_eigvalsh_and_no_svd(self, monkeypatch, delta, epsilon, degree):
        # beyond decompose's own eigh and solve, only measured_error takes a dense solve
        dim = 16
        syn, u = self.instance(delta, epsilon, degree, dim)
        calls = {"eigvalsh": [], "svd": []}
        for name, seen in calls.items():

            def spy(a, *args, real=getattr(np.linalg, name), seen=seen, **kwargs):
                seen.append(a.shape)
                return real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        verify_reflection(u, syn)
        assert calls == {"eigvalsh": [(1, dim, dim)], "svd": []}

    @pytest.mark.parametrize("delta, epsilon, degree", MIRROR_RECORDS)
    @pytest.mark.parametrize("dim", [8, 64])
    def test_branch_residual_is_the_frobenius_gram_defect(
        self, monkeypatch, delta, epsilon, degree, dim
    ):
        # W+'s first column perturbed far above rounding; the second is fixed by it, and its
        # Gram blocks, exactly, by the first's: sqrt(2) ||A^dagger A + B^dagger B - I||_F
        syn, u = self.instance(delta, epsilon, degree, dim)
        rng, real, walks = np.random.default_rng(dim), oracle._evaluate_walk, []

        def perturbed(c, x):
            shape = (1, 2 * dim, dim)  # W+'s first block column, of a stack of one
            noise = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            walks.append(real(c, x) + 1e-6 / dim * noise)
            return walks[-1]

        monkeypatch.setattr(oracle, "_evaluate_walk", perturbed)
        branch = verify_reflection(u, syn).branch_unitarity_residual
        [[column]] = walks
        first = np.linalg.norm(column.conj().T @ column - np.eye(dim))
        assert 1e-7 < first < 1e-5
        assert branch == pytest.approx(math.sqrt(2.0) * first, rel=1e-9, abs=0.0)


class TestVerifyStack:
    """A stack verifies as each of its instances does alone, field for field."""

    CASES = [  # delta, epsilon, theta, dim, multiplicity
        (math.pi / 2, 1e-3, 0.0, 16, 1),
        (math.pi / 3, 1e-2, 0.7, 12, 3),
        (math.pi / 8, 1e-2, -2.4, 4, 1),  # delta / 2 < pi / dim: the widest-arc pole
        (math.pi / 4, 1e-2, 3.0, 7, 2),
    ]

    @pytest.mark.parametrize("delta, epsilon, theta, dim, multiplicity", CASES)
    @pytest.mark.parametrize("count", [1, 3])
    def test_reports_equal_the_instances_alone(
        self, delta, epsilon, theta, dim, multiplicity, count
    ):
        syn = synthesize(GapSpec(delta, theta=theta, epsilon=epsilon))
        us = np.stack([
            random_gapped_unitary(SpectrumSpec(dim, delta, theta, multiplicity, seed))
            for seed in range(count)
        ])
        assert verify_stack(us, syn) == [verify_reflection(u, syn) for u in us]

    def test_a_stack_mixing_the_two_poles(self, monkeypatch):
        # a target 0.95e-9 off theta still counts as the target, but lies closer
        # than delta / 2 to the gap pole, so only its instance takes eigvals
        theta = 0.3
        others = theta + np.array([math.pi, 2.0, -2.0, 1.8, -2.5])
        us = np.stack([
            _with_phases([theta, theta, *others], seed=4),
            _with_phases([theta + 0.95e-9, theta, *others], seed=5),
            _with_phases([theta, *others, -2.9], seed=6),
        ])
        syn = synthesize(GapSpec(math.pi / 2, theta=theta, epsilon=1e-2))
        calls = _count_eigvals(monkeypatch)
        reports = verify_stack(us, syn)
        assert [a.shape for a in calls] == [(1, 7, 7)]
        assert [r.target_multiplicity for r in reports] == [2, 2, 1]
        assert reports == [verify_reflection(u, syn) for u in us]

    def test_decompose_matches_the_instances_alone(self):
        gap = GapSpec(0.5, theta=-2.1, epsilon=0.1)
        us = np.stack([random_gapped_unitary(SpectrumSpec(16, 0.5, -2.1, 3, s)) for s in range(3)])
        stacked = decompose(us, gap=gap)
        for k, u in enumerate(us):
            alone = decompose(u, gap=gap)
            assert np.array_equal(stacked.eigenphases[k], alone.eigenphases)
            assert np.array_equal(stacked.eigenvectors[k], alone.eigenvectors)

    def test_one_failing_instance_fails_the_stack(self):
        syn = synthesize(GapSpec(1.0, epsilon=0.1))
        us = np.stack([random_gapped_unitary(SpectrumSpec(4, 1.0, seed=s)) for s in range(3)])
        us[1] *= 2.0
        with pytest.raises(ValueError, match="not unitary"):
            verify_stack(us, syn)

    @pytest.mark.parametrize("shape", [(4, 4), (1, 4, 3), (1, 1, 4, 4)])
    def test_not_a_stack_of_square_matrices(self, shape):
        with pytest.raises(ValueError, match="stack of square matrices"):
            verify_stack(np.ones(shape), synthesize(GapSpec(1.0, epsilon=0.1)))


class TestSpectralData:
    def test_dim_and_reconstruct(self):
        s = SpectralData(
            eigenphases=np.array([0.0, math.pi]),
            eigenvectors=np.eye(2, dtype=complex),
        )
        assert s.dim == 2
        assert np.allclose(s.reconstruct(), np.diag([1.0, -1.0]))

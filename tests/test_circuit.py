"""Structural checks on the gate-level representation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from eigenreflect import circuit, completion
from eigenreflect.circuit import (
    AncillaRotation,
    CircuitIR,
    ControlledOracle,
    GateCounts,
    Synthesis,
    adjoint,
    build_reflection,
    build_w,
    gate_counts,
    predicted_counts,
    synthesize,
    walk_coefficients,
)
from eigenreflect.completion import (
    CompletionError,
    TrigPolynomial,
    completion_residual,
    factorize,
    gram_polynomial,
)
from eigenreflect.gqsp import GQSPAngleSequence, reconstruct_polynomials, synthesize_angles
from eigenreflect.poly import GapSpec, build_upsilon, select_parameters

from _pairs import MIRROR_RECORDS, reference_mirror, theta_negated


def plan_branches(delta, epsilon, *, use_paper_t_formula=False):
    syn = synthesize(GapSpec(delta, epsilon=epsilon), use_paper_t_formula=use_paper_t_formula)
    return syn.plan, syn.branches


class TestGateTypes:
    def test_oracle_exponent_validation(self):
        ControlledOracle(1)
        ControlledOracle(-1, phase_shift=0.25)
        with pytest.raises(ValueError):
            ControlledOracle(0)
        with pytest.raises(ValueError):
            ControlledOracle(2)

    def test_negative_declared_degree_rejected(self):
        with pytest.raises(ValueError):
            CircuitIR(gates=(), declared_degree=-1)

    def test_counts_total(self):
        assert GateCounts(3, 4, 5).total == 12
        assert gate_counts(CircuitIR((), 0)) == GateCounts(0, 0, 0)


class TestBuildW:
    def test_degree_zero_is_one_rotation(self):
        seq = GQSPAngleSequence(thetas=(0.3,), phis=(0.1,), lambda_final=0.2)
        circ = build_w(seq)
        assert circ.declared_degree == 0
        assert circ.gates == (AncillaRotation(0.3, 0.1, 0.2),)

    def test_degree_nine_walk_counts(self):
        _, (plus, _) = plan_branches(math.pi / 2, 0.1)
        circ = build_w(plus)
        assert gate_counts(circ) == GateCounts(9, 0, 10)
        assert circ.declared_degree == 9

    def test_interleaving_shape(self):
        seq = GQSPAngleSequence(
            thetas=(0.1, 0.2, 0.3), phis=(0.4, 0.5, 0.6), lambda_final=0.7
        )
        circ = build_w(seq, phase_shift=0.9)
        kinds = [type(g).__name__ for g in circ.gates]
        assert kinds == [
            "AncillaRotation",
            "ControlledOracle",
            "AncillaRotation",
            "ControlledOracle",
            "AncillaRotation",
        ]
        # the final-step phase rides only on the opening rotation
        assert circ.gates[0] == AncillaRotation(0.1, 0.4, 0.7)
        assert circ.gates[2] == AncillaRotation(0.2, 0.5, 0.0)
        assert all(
            g == ControlledOracle(1, 0.9)
            for g in circ.gates
            if isinstance(g, ControlledOracle)
        )


class TestAdjoint:
    def test_empty(self):
        assert adjoint(CircuitIR((), 0)).gates == ()

    def test_gatewise_inversion(self):
        circ = CircuitIR(
            (AncillaRotation(0.1, 0.2, 0.3), ControlledOracle(1, 0.4)),
            declared_degree=1,
        )
        inv = adjoint(circ)
        assert inv.gates == (
            ControlledOracle(-1, -0.4),
            AncillaRotation(0.1, -0.3, -0.2),
        )

    def test_involution(self):
        _, (plus, _) = plan_branches(math.pi / 4, 1e-2)
        circ = build_w(plus, phase_shift=0.123)
        assert adjoint(adjoint(circ)) == circ
        # a composite: two oracle objects, one per walk
        syn = synthesize(GapSpec(math.pi / 4, theta=0.3, epsilon=1e-2))
        assert adjoint(adjoint(syn.circuit)) == syn.circuit

    def test_flips_oracle_count_columns(self):
        _, (plus, _) = plan_branches(math.pi / 2, 0.1)
        counts = gate_counts(adjoint(build_w(plus)))
        assert counts == GateCounts(0, 9, 10)
        # the adjoint tail shares one inverted oracle object
        syn = synthesize(GapSpec(math.pi / 2, theta=0.7, epsilon=0.1))
        tail = syn.circuit.gates[2 * syn.plan.degree + 1 :]
        assert len({id(g) for g in tail if isinstance(g, ControlledOracle)}) == 1


class TestBuildReflection:
    def test_plan_example_counts(self):
        plan, branches = plan_branches(math.pi / 2, 0.1)
        circ = build_reflection(plan, branches)
        counts = gate_counts(circ)
        assert counts == GateCounts(9, 9, 20)
        assert counts.total == 38
        assert counts.controlled_u == plan.predicted_controlled_u_per_branch
        assert counts.total == 2 * plan.predicted_controlled_u_per_branch + plan.predicted_rotations

    def test_degree_zero_plan_uses_no_oracle_calls(self):
        plan, branches = plan_branches(math.pi / 2, 0.5, use_paper_t_formula=True)
        assert plan.degree == 0
        counts = gate_counts(build_reflection(plan, branches))
        assert counts == GateCounts(0, 0, 2)

    def test_target_phase_rides_on_every_oracle_gate(self):
        plan, branches = plan_branches(math.pi / 2, 0.1)
        shifted_plan = select_parameters(
            GapSpec(math.pi / 2, theta=0.8, epsilon=0.1)
        )
        circ = build_reflection(shifted_plan, branches)
        shifts = {
            g.phase_shift for g in circ.gates if isinstance(g, ControlledOracle)
        }
        assert shifts == {0.8, -0.8}
        assert plan.degree == shifted_plan.degree

    def test_branch_degree_mismatch_rejected(self):
        plan, _ = plan_branches(math.pi / 2, 0.1)
        short = GQSPAngleSequence(thetas=(0.1,), phis=(0.2,), lambda_final=0.0)
        with pytest.raises(ValueError, match="plan degree"):
            build_reflection(plan, (short, short))


class TestSynthesize:
    def test_record_holds_each_stage_once(self):
        gap = GapSpec(math.pi / 4, theta=0.3, epsilon=1e-2)
        syn = synthesize(gap)
        plan = syn.plan
        assert plan == select_parameters(gap)
        assert syn.kernel == build_upsilon(plan.t, plan.n)
        assert syn.completion == factorize(gram_polynomial(syn.kernel))
        plus = synthesize_angles(syn.kernel, syn.completion.phi)
        assert syn.plus == plus
        assert syn.branches == (plus, theta_negated(plus))
        assert syn.branches is syn.branches  # built once
        assert syn.circuit == build_reflection(plan, syn.branches)
        assert gate_counts(syn.circuit) == predicted_counts(plan)
        # the tail is built from the head, never passed in
        for delta, epsilon, degree in MIRROR_RECORDS:
            gates = synthesize(GapSpec(delta, theta=0.6, epsilon=epsilon)).circuit.gates
            split = 2 * degree + 1
            assert gates[split:] == reference_mirror(gates[:split])
        edited = replace(syn, plus=replace(plus, thetas=(plus.thetas[0] + 0.1,) + plus.thetas[1:]))
        assert edited.circuit == build_reflection(plan, edited.branches) != syn.circuit
        with pytest.raises(ValueError, match="init=False"):
            replace(syn, circuit=syn.circuit)
        with pytest.raises(TypeError):
            Synthesis(plan, syn.kernel, syn.completion, plus, syn.circuit)
        # equality and hash ignore the derived field
        twin = Synthesis(plan, syn.kernel, syn.completion, plus)
        object.__setattr__(twin, "circuit", CircuitIR((), 0))
        assert twin == syn and hash(twin) == hash(syn)

    @pytest.mark.parametrize(
        "k, epsilon, degree", [(4, 1e-2, 35), (32, 1e-3, 385), (256, 1e-3, 3101)]
    )
    def test_completion_residual_holds_on_an_odd_grid(self, k, epsilon, degree):
        # the residual factorize measured on its power-of-two grid is the
        # same quantity sampled on 16 (2d + 1) points, up to rounding
        syn = synthesize(GapSpec(math.pi / k, epsilon=epsilon))
        assert syn.plan.degree == degree
        odd = completion_residual(syn.kernel, syn.completion.phi, 16 * (2 * degree + 1))
        assert abs(syn.completion.residual - odd) <= 0.5 * max(syn.completion.residual, odd)

    def test_plus_branch_opens_the_circuit(self):
        syn = synthesize(GapSpec(math.pi / 2, theta=-1.2, epsilon=0.1))
        plus = build_w(syn.branches[0], phase_shift=-1.2)
        assert len(plus.gates) == 2 * syn.plan.degree + 1
        assert syn.circuit.gates[: len(plus.gates)] == plus.gates

    def test_completion_tol_is_applied(self, monkeypatch):
        # the real completion, held to a residual no plan reaches
        monkeypatch.setattr(completion, "DEFAULT_COMPLETION_TOL", 1e-18)
        with pytest.raises(CompletionError):
            synthesize(GapSpec(math.pi / 2, epsilon=0.01))

    def test_paper_formula_is_forwarded(self):
        syn = synthesize(GapSpec(math.pi / 2, epsilon=0.5), use_paper_t_formula=True)
        assert syn.plan.degree == 0
        assert gate_counts(syn.circuit) == GateCounts(0, 0, 2)


class TestWalkCoefficients:
    @pytest.mark.parametrize(
        "delta, epsilon, degree",
        [(math.pi / 2, 1e-3, 21), (math.pi / 16, 1e-3, 189), (math.pi / 64, 1e-3, 770)],
    )
    def test_first_column_is_the_reconstructed_pair(self, delta, epsilon, degree):
        syn = synthesize(GapSpec(delta, epsilon=epsilon))
        coeffs = syn.plus_coefficients
        assert coeffs.shape == (degree + 1, 2)
        assert coeffs is syn.plus_coefficients and not coeffs.flags.writeable
        p, q = reconstruct_polynomials(syn.plus)
        assert np.max(np.abs(coeffs[:, 0] - p.as_array())) <= 1e-15
        assert np.max(np.abs(coeffs[:, 1] - q.as_array())) <= 1e-15

    def test_record_coefficients_are_its_plus_gates(self):
        # the record builds them from the angles and the plan's phase, not from its gates,
        # and keeps the first column
        syn = synthesize(GapSpec(math.pi / 8, theta=0.6, epsilon=1e-3))
        gates = syn.circuit.gates[: 2 * syn.plan.degree + 1]
        assert np.max(np.abs(syn.plus_coefficients - walk_coefficients(gates)[:, :, 0])) <= 1e-14

    def test_phase_shift_rides_on_each_power(self):
        syn = synthesize(GapSpec(math.pi / 4, epsilon=1e-2))
        plain = walk_coefficients(build_w(syn.plus).gates)
        shifted = walk_coefficients(build_w(syn.plus, phase_shift=0.7).gates)
        powers = np.exp(-0.7j * np.arange(syn.plan.degree + 1))
        assert np.max(np.abs(shifted - powers[:, None, None] * plain)) <= 1e-14

    def test_adjoint_walk_has_the_adjoint_coefficients(self):
        walk = build_w(synthesize(GapSpec(math.pi / 4, epsilon=1e-2)).plus, phase_shift=0.3)
        coeffs = walk_coefficients(walk.gates)
        inverse = walk_coefficients(adjoint(walk).gates)
        assert np.max(np.abs(inverse - coeffs.conj().swapaxes(1, 2))) <= 1e-14

    def test_mixed_exponents_rejected(self):
        gates = (ControlledOracle(1), AncillaRotation(0.1, 0.2, 0.3), ControlledOracle(-1))
        with pytest.raises(ValueError, match="one exponent"):
            walk_coefficients(gates)


class TestCheckGrids:
    @pytest.mark.parametrize(
        "delta, degree", [(math.pi / 32, 385), (math.pi / 256, 3101)], ids=["385", "3101"]
    )
    def test_every_transform_is_a_power_of_two(self, monkeypatch, delta, degree):
        # completion, poly and gqsp reach the FFT through np.fft alone
        lengths = []

        def recorded(transform):
            def spy(a, n=None, *args, **kwargs):
                out = transform(a, n, *args, **kwargs)
                lengths.append(out.shape[-1])
                return out

            return spy

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, recorded(getattr(np.fft, name)))
        syn = synthesize(GapSpec(delta, epsilon=1e-3))
        assert syn.plan.degree == degree
        assert lengths
        for m in lengths:
            assert m & (m - 1) == 0 and m >= 16 * (2 * degree + 1), m

    def test_defect_is_sampled_once(self, monkeypatch):
        # the nonnegativity check, the Weiss step and the residual check
        # share factorize's one sample of the defect
        grids = []
        sample = TrigPolynomial.values_on_grid

        def spy(self, m):
            grids.append(m)
            return sample(self, m)

        monkeypatch.setattr(TrigPolynomial, "values_on_grid", spy)
        synthesize(GapSpec(math.pi / 4, epsilon=1e-3))
        assert len(grids) == 1

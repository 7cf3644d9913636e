"""Acceptance gate: one test and one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines
as they happen; without -s they still appear in captured output.  The
instance battery (three gap widths, three budgets, three dimensions,
two multiplicities, three seeds) is built once per session and shared.
"""

import json
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from eigenreflect.circuit import synthesize
from eigenreflect.cli import EXIT_BOUND_VIOLATED, main
from eigenreflect.completion import completion_residual, factorize, gram_polynomial
from eigenreflect.gqsp import reconstruct_polynomials, synthesize_angles
from eigenreflect.oracle import (
    apply_poly,
    decompose,
    exact_projector,
    verify_reflection,
)
from eigenreflect.poly import (
    ComplexPolynomial,
    GapSpec,
    build_upsilon,
    max_modulus_outside_gap,
    select_parameters,
)
from eigenreflect.testgen import SpectrumSpec, random_gapped_unitary

from _pairs import padded, random_complementary_pair

GRID_DELTAS = (math.pi / 8, math.pi / 4, math.pi / 2)
GRID_EPSILONS = (1e-1, 1e-2, 1e-3)
GRID_DIMS = (4, 16, 64)
GRID_MULTS = (1, 3)
GRID_SEEDS = (11, 12, 13)


@dataclass(frozen=True)
class Instance:
    delta: float
    epsilon: float
    dim: int
    mult: int
    seed: int
    plan: object
    report: object
    kernel_distance: float


@pytest.fixture(scope="session")
def battery():
    start = time.perf_counter()
    instances = []
    for delta in GRID_DELTAS:
        for epsilon in GRID_EPSILONS:
            gap = GapSpec(delta, epsilon=epsilon)
            syn = synthesize(gap)
            plan, ups = syn.plan, syn.kernel
            for dim in GRID_DIMS:
                for mult in GRID_MULTS:
                    for seed in GRID_SEEDS:
                        u = random_gapped_unitary(
                            SpectrumSpec(
                                dim=dim, delta=delta,
                                target_multiplicity=mult, seed=seed,
                            )
                        )
                        report = verify_reflection(u, syn)
                        s = decompose(u)
                        kd = np.linalg.norm(
                            apply_poly(s, ups) - exact_projector(s, 0.0), 2
                        )
                        instances.append(
                            Instance(delta, epsilon, dim, mult, seed,
                                     plan, report, kd)
                        )
    elapsed = time.perf_counter() - start
    return instances, elapsed


def verdict(number, ok, detail):
    print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_composite_reflection_bound(battery):
    instances, elapsed = battery
    assert len(instances) == 162
    worst = max(i.report.measured_error / (4 * i.epsilon) for i in instances)
    ok = all(
        i.report.measured_error <= 4 * i.epsilon + 1e-8 for i in instances
    )
    verdict(
        1, ok and elapsed < 60.0,
        f"162 instances, worst error/bound ratio {worst:.3e}, "
        f"battery built in {elapsed:.1f}s",
    )


def test_criterion_02_kernel_projector_distance(battery):
    instances, _ = battery
    worst = max(i.kernel_distance / i.epsilon for i in instances)
    ok = all(i.kernel_distance <= i.epsilon for i in instances)
    verdict(2, ok, f"worst distance/budget ratio {worst:.3e}")


def test_criterion_03_exact_gate_counts(battery):
    instances, _ = battery
    ok = True
    for i in instances:
        d = i.plan.degree
        c = i.report.counts
        ok = ok and c == i.report.predicted_counts
        ok = ok and (c.controlled_u, c.controlled_u_dagger) == (d, d)
        ok = ok and c.single_qubit_rotations == 2 * (d + 1)
        ok = ok and i.plan.predicted_controlled_u_per_branch == d
    verdict(3, ok, "counts match (t-1)n / (t-1)n / 2((t-1)n+1) exactly")


def test_criterion_04_parameter_scaling():
    deltas = (math.pi / 2, math.pi / 4, math.pi / 8, math.pi / 16)
    epsilons = (1e-2, 1e-3, 1e-4)
    ok = True
    worst_ratio = 0.0
    for delta in deltas:
        t_cap = math.ceil(2 * math.e / abs(np.exp(1j * delta) - 1))
        for epsilon in epsilons:
            plan = select_parameters(GapSpec(delta, epsilon=epsilon))
            ok = ok and plan.t - 1 <= t_cap
            ok = ok and plan.n == math.ceil(math.log(1 / epsilon))
            ok = ok and plan.degree == (plan.t - 1) * plan.n
            ratio = plan.degree * delta / math.log(1 / epsilon)
            worst_ratio = max(worst_ratio, ratio)
    ok = ok and worst_ratio <= 6.0
    verdict(4, ok, f"max degree/(ln(1/eps)/delta) = {worst_ratio:.3f} <= 6")


def test_criterion_05_completion_residuals_up_to_degree_200():
    pairs = [(d, e) for d in GRID_DELTAS for e in GRID_EPSILONS]
    pairs += [(math.pi / 16, 1e-2), (math.pi / 16, 1e-3), (math.pi / 32, 0.05)]
    worst = 0.0
    top_degree = 0
    for delta, epsilon in pairs:
        plan = select_parameters(GapSpec(delta, epsilon=epsilon))
        assert plan.degree <= 200
        top_degree = max(top_degree, plan.degree)
        ups = build_upsilon(plan.t, plan.n)
        phi = factorize(gram_polynomial(ups)).phi
        grid = max(16 * (2 * plan.degree + 1), 16)
        worst = max(worst, completion_residual(ups, phi, grid))
    verdict(
        5, worst <= 1e-10 and top_degree >= 189,
        f"worst residual {worst:.3e} across {len(pairs)} plans, "
        f"top degree {top_degree}",
    )


def test_criterion_06_gqsp_round_trip_battery():
    rng = np.random.default_rng(20260819)
    degrees = list(rng.integers(1, 101, size=96)) + [10, 50, 90, 100]
    worst = 0.0
    for index, degree in enumerate(degrees):
        p, q = random_complementary_pair(int(degree), seed=1000 + index)
        seq = synthesize_angles(p, q)
        p2, q2 = reconstruct_polynomials(seq)
        width = max(p.degree, q.degree, p2.degree, q2.degree) + 1
        worst = max(
            worst,
            float(np.max(np.abs(padded(p, width) - padded(p2, width)))),
            float(np.max(np.abs(padded(q, width) - padded(q2, width)))),
        )
    verdict(
        6, worst <= 1e-9,
        f"100 pairs, worst coefficient error {worst:.3e}",
    )


def test_criterion_07_unitarity(battery):
    instances, _ = battery
    worst_branch = max(i.report.branch_unitarity_residual for i in instances)
    worst_composite = max(i.report.unitarity_residual for i in instances)
    ok = worst_branch <= 1e-11 and worst_composite <= 1e-10
    verdict(
        7, ok,
        f"worst branch defect {worst_branch:.3e}, "
        f"worst composite defect {worst_composite:.3e}",
    )


def test_criterion_08_oracle_equivalence(battery):
    instances, _ = battery
    worst = max(i.report.oracle_block_residual for i in instances)
    verdict(8, worst <= 1e-8, f"worst block-vs-spectral gap {worst:.3e}")


def test_criterion_09_averaging_length_discrepancy(tmp_path):
    gap = GapSpec(math.pi / 2, epsilon=1e-3)
    literal = select_parameters(gap, use_paper_t_formula=True)
    literal_peak = max_modulus_outside_gap(
        build_upsilon(literal.t, literal.n), gap.delta
    )
    corrected_ok = True
    for delta in GRID_DELTAS:
        for epsilon in GRID_EPSILONS:
            plan = select_parameters(GapSpec(delta, epsilon=epsilon))
            peak = max_modulus_outside_gap(build_upsilon(plan.t, plan.n), delta)
            corrected_ok = corrected_ok and peak <= epsilon

    out = tmp_path / "report.json"
    code = main([
        "verify", "--dim", "4", "--seed", "11",
        "--delta", repr(gap.delta), "--epsilon", "1e-3",
        "--use-paper-t-formula", "--out", str(out),
    ])
    doc = json.loads(out.read_text())
    comparison = doc.get("t_formula_comparison", {})
    recorded = (
        code == EXIT_BOUND_VIOLATED
        and comparison.get("paper", {}).get("within_epsilon") is False
        and comparison.get("corrected", {}).get("within_epsilon") is True
    )
    ok = literal_peak > gap.epsilon and corrected_ok and recorded
    verdict(
        9, ok,
        f"literal formula peak {literal_peak:.3g} > {gap.epsilon}, "
        "corrected formula within budget on the whole grid, "
        "both recorded in the verify report",
    )


def test_criterion_10_trivial_identities():
    ok = True
    for delta, epsilon in ((math.pi / 2, 1e-1), (math.pi / 4, 1e-2), (math.pi, 0.5)):
        gap = GapSpec(delta, epsilon=epsilon)
        report = verify_reflection(np.eye(4), synthesize(gap))
        ok = ok and report.measured_error <= 1e-10

    gap = GapSpec(math.pi, epsilon=0.1)
    two_point = verify_reflection(np.diag([1.0 + 0j, -1.0]), synthesize(gap))
    ok = ok and two_point.measured_error <= 4 * gap.epsilon
    verdict(
        10, ok,
        f"identity exact; two-point block error {two_point.measured_error:.3e}"
        f" <= {4 * gap.epsilon}",
    )


def test_criterion_lines_cover_every_criterion():
    # meta-check: the ten criteria above stay in one-to-one correspondence
    # with the numbered tests in this file
    names = [n for n in globals() if n.startswith("test_criterion_") and n[15:17].isdigit()]
    numbers = sorted(int(n[15:17]) for n in names)
    assert numbers == list(range(1, 11))

"""Gate-level intermediate representation over an opaque controlled oracle.

Circuits here are flat gate tuples over exactly two registers: one
ancilla qubit and one opaque system block.  Only two gate species
exist, ancilla rotations and oracle applications conditioned on the
ancilla, which is all the reflection construction ever needs.  Target
phases enter as a per-oracle phase_shift rather than by editing the
oracle itself, so the oracle stays a black box.

Builders produce the two branch walks and their composite; counting is
an exact structural tally, so predicted resource numbers can be
asserted with zero tolerance.  `synthesize` runs the whole per-plan
pipeline once and keeps every stage in one `Synthesis` record.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Union

import numpy as np

from .completion import CompletionResult, factorize, gram_polynomial
from .gqsp import GQSPAngleSequence, _walk_factors, _walk_product, synthesize_angles
from .poly import ComplexPolynomial, GapSpec, ReflectionPlan, build_upsilon, select_parameters

__all__ = [
    "AncillaRotation",
    "ControlledOracle",
    "Gate",
    "CircuitIR",
    "GateCounts",
    "build_w",
    "adjoint",
    "build_reflection",
    "gate_counts",
    "predicted_counts",
    "walk_coefficients",
    "MAX_DEGREE",
    "Synthesis",
    "synthesize",
]

MAX_DEGREE = 4096  # largest plan degree `synthesize` accepts


@dataclass(frozen=True)
class AncillaRotation:
    """Single-qubit gate on the ancilla, in the synthesis convention.

    Matrix: [[exp(i(lam+phi))cos(theta), exp(i phi)sin(theta)],
             [exp(i lam)sin(theta),      -cos(theta)]].
    """

    theta: float
    phi: float
    lam: float


@dataclass(frozen=True)
class ControlledOracle:
    """Applies exp(-i phase_shift) * U**exponent when the ancilla is |1>."""

    exponent: int
    phase_shift: float = 0.0

    def __post_init__(self) -> None:
        if self.exponent not in (1, -1):
            raise ValueError("exponent must be +1 or -1")


Gate = Union[AncillaRotation, ControlledOracle]


@dataclass(frozen=True)
class CircuitIR:
    gates: tuple[Gate, ...]
    declared_degree: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.declared_degree < 0:
            raise ValueError("declared_degree must be nonnegative")


@dataclass(frozen=True)
class GateCounts:
    controlled_u: int
    controlled_u_dagger: int
    single_qubit_rotations: int

    @property
    def total(self) -> int:
        return self.controlled_u + self.controlled_u_dagger + self.single_qubit_rotations


def build_w(angles: GQSPAngleSequence, phase_shift: float = 0.0) -> CircuitIR:
    """One branch walk: opening rotation, then (oracle, rotation) pairs.

    A degree-d sequence yields exactly d oracle calls and d+1 rotations.
    """
    gates: list[Gate] = [
        AncillaRotation(angles.thetas[0], angles.phis[0], angles.lambda_final)
    ]
    oracle = ControlledOracle(1, phase_shift)  # frozen, so one object serves every step
    for theta, phi in zip(angles.thetas[1:], angles.phis[1:]):
        gates += (oracle, AncillaRotation(theta, phi, 0.0))
    return CircuitIR(tuple(gates), declared_degree=angles.degree)


def adjoint(c: CircuitIR) -> CircuitIR:
    """Structural inverse: reversed order, each gate inverted in place.

    The rotation family is closed under inversion: the inverse of
    (theta, phi, lam) is (theta, -lam, -phi).  Oracle gates flip their
    exponent and negate their phase; a run of one oracle object, as
    `build_w` makes, shares one inverted object.
    """
    inv: list[Gate] = []
    last = flipped = None
    for g in reversed(c.gates):
        if isinstance(g, AncillaRotation):
            inv.append(AncillaRotation(g.theta, -g.lam, -g.phi))
        else:
            if g is not last:
                last, flipped = g, ControlledOracle(-g.exponent, -g.phase_shift)
            inv.append(flipped)
    return CircuitIR(tuple(inv), declared_degree=c.declared_degree)


def build_reflection(
    plan: ReflectionPlan, branches: tuple[GQSPAngleSequence, GQSPAngleSequence]
) -> CircuitIR:
    """Composite circuit: plus branch followed by the adjoint minus branch.

    Both branches must carry exactly the plan's degree, so that the
    structural counts match the plan's predictions.  The plan's target
    phase rides on every oracle gate.
    """
    plus, minus = branches
    if plus.degree != plan.degree or minus.degree != plan.degree:
        raise ValueError(
            f"branch degrees ({plus.degree}, {minus.degree}) do not match "
            f"plan degree {plan.degree}"
        )
    shift = plan.gap.theta
    gates = build_w(plus, shift).gates + adjoint(build_w(minus, shift)).gates
    return CircuitIR(gates, declared_degree=plan.degree)


def gate_counts(c: CircuitIR) -> GateCounts:
    exponents = [g.exponent for g in c.gates if isinstance(g, ControlledOracle)]
    rotations = sum(isinstance(g, AncillaRotation) for g in c.gates)
    return GateCounts(exponents.count(1), exponents.count(-1), rotations)


def predicted_counts(plan: ReflectionPlan) -> GateCounts:
    """The counts a composite circuit for this plan must tally to."""
    per_branch = plan.predicted_controlled_u_per_branch
    return GateCounts(per_branch, per_branch, plan.predicted_rotations)


def walk_coefficients(gates: tuple[Gate, ...]) -> np.ndarray:
    """The C_k, read-only, of a run realizing to sum_k C_k (x) U**(e k), e its one exponent."""
    if len({g.exponent for g in gates if isinstance(g, ControlledOracle)}) > 1:
        raise ValueError("a run's oracles must share one exponent")
    rotations, shifts = [], [0.0]  # rotations as (gap, theta, phi, lam); shifts[j] opens gap j
    for g in gates:
        if isinstance(g, AncillaRotation):
            rotations.append((len(shifts) - 1, g.theta, g.phi, g.lam))
        elif isinstance(g, ControlledOracle):
            shifts.append(g.phase_shift)
        else:
            raise TypeError(f"unknown gate {g!r}")
    gap, thetas, phis, lams = np.array(rotations).reshape(-1, 4).T
    r = _walk_factors(thetas, phis, 0.0)
    r[:, :, 0] *= np.exp(1j * lams)[:, None]  # lam as _walk_factors applies it
    gap, rank = gap.astype(int), np.arange(len(gap)) - np.searchsorted(gap, gap)
    factors = np.tile(np.eye(2, dtype=complex), (len(shifts), 1, 1))  # factor j: gap j
    for k in range(rank.max(initial=-1) + 1):  # one batched product a rank; a walk has one
        factors[gap[rank == k]] = r[rank == k] @ factors[gap[rank == k]]
    factors[:, :, 1] *= np.exp(-1j * np.array(shifts))[:, None]  # then oracle j's phase
    return _walk_product(factors)


@dataclass(frozen=True)
class Synthesis:
    """One plan carried through the pipeline: kernel, completion, plus angles, circuit.

    A plain record filled once by `synthesize`; its one completion residual is
    `completion.residual`, the value `factorize` checked against the tolerance.
    Only the plus branch is stored; `branches` and `circuit` derive from it.
    The circuit is built on construction and cannot be passed in, so
    `dataclasses.replace(record, plus=...)` rebuilds it, and equality and
    hash ignore it.  It is the plus walk, then the adjoint of the minus walk; `branches`,
    `counts` and `plus_coefficients` are built once, on first use.
    """

    plan: ReflectionPlan
    kernel: ComplexPolynomial
    completion: CompletionResult
    plus: GQSPAngleSequence
    circuit: CircuitIR = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "circuit", build_reflection(self.plan, self.branches))

    @cached_property
    def counts(self) -> GateCounts:
        return gate_counts(self.circuit)

    @cached_property
    def plus_coefficients(self) -> np.ndarray:
        """The plus walk's first column, (degree + 1, 2): (p, q), the k-th times e^{-ik theta}."""
        p, theta = self.plus, self.plan.gap.theta
        return _walk_product(_walk_factors(p.thetas, p.phis, p.lambda_final, theta))[:, :, 0]

    @cached_property
    def branches(self) -> tuple[GQSPAngleSequence, GQSPAngleSequence]:
        """Angle sequences for the two walk branches of the reflection.

        Both branches place the averaging kernel in the upper-left block;
        they differ only in the sign of the partner polynomial, which is
        what turns the composite's lower block into a subtraction and the
        upper block into 2|kernel|^2 - 1 on the circle.  Z . R(theta, phi, lam) . Z
        = R(-theta, phi, lam) for Z = diag(1, -1), and Z commutes with the
        shift, so the plus thetas negated give the minus branch.
        """
        plus = self.plus
        return plus, replace(plus, thetas=tuple(-t for t in plus.thetas))


def synthesize(gap: GapSpec, *, use_paper_t_formula: bool = False) -> Synthesis:
    """Plan (t, n), build and complete the kernel, peel the plus branch; the record builds the circuit.

    Raises ValueError, before anything is built, when the plan's degree
    (t - 1) n exceeds MAX_DEGREE, and CompletionError when the
    completion residual exceeds completion.DEFAULT_COMPLETION_TOL.
    """
    plan = select_parameters(gap, use_paper_t_formula=use_paper_t_formula)
    if plan.degree > MAX_DEGREE:
        raise ValueError(
            f"plan degree {plan.degree} exceeds the cap of {MAX_DEGREE}; "
            "widen delta or raise epsilon"
        )
    kernel = build_upsilon(plan.t, plan.n)
    completion = factorize(gram_polynomial(kernel))
    return Synthesis(plan, kernel, completion, synthesize_angles(kernel, completion.phi))

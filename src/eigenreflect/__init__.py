"""Single-ancilla eigenspace reflection circuits.

Given oracle access to a unitary U and an eigenphase theta separated
from the rest of the spectrum by an angular gap, this package designs
an averaging-kernel polynomial, completes it to a complementary pair on
the unit circle, synthesizes interleaved ancilla-rotation angles, and
emits a circuit over {controlled-U, controlled-U adjoint, one-qubit
rotations} whose upper block approximates the reflection 2P - 1 through
the target eigenspace.  A simulator that only multiplies by U and an
eigendecomposition oracle verify the construction end to end.
"""

from .circuit import (
    AncillaRotation,
    CircuitIR,
    ControlledOracle,
    Gate,
    GateCounts,
    Synthesis,
    adjoint,
    build_reflection,
    build_w,
    gate_counts,
    synthesize,
)
from .completion import (
    CompletionError,
    CompletionResult,
    TrigPolynomial,
    completion_residual,
    factorize,
    gram_polynomial,
)
from .gqsp import (
    ROTATION_CONVENTION,
    GQSPAngleSequence,
    reconstruct_polynomials,
    synthesize_angles,
)
from .oracle import (
    GapViolation,
    SpectralData,
    TargetAbsent,
    VerificationReport,
    apply_poly,
    decompose,
    exact_projector,
    validate_gap,
    verify_reflection,
)
from .poly import (
    ComplexPolynomial,
    GapSpec,
    ReflectionPlan,
    build_upsilon,
    eval_on_circle_grid,
    max_modulus_outside_gap,
    select_parameters,
)
from .sim import pue_block, realize, spectral_norm
from .testgen import SpectrumSpec, random_gapped_unitary

__version__ = "0.1.0"

__all__ = [
    "AncillaRotation",
    "CircuitIR",
    "ComplexPolynomial",
    "CompletionError",
    "CompletionResult",
    "ControlledOracle",
    "Gate",
    "GateCounts",
    "GapSpec",
    "GapViolation",
    "GQSPAngleSequence",
    "ROTATION_CONVENTION",
    "ReflectionPlan",
    "SpectralData",
    "SpectrumSpec",
    "Synthesis",
    "TargetAbsent",
    "TrigPolynomial",
    "VerificationReport",
    "adjoint",
    "apply_poly",
    "build_reflection",
    "build_upsilon",
    "build_w",
    "completion_residual",
    "decompose",
    "eval_on_circle_grid",
    "exact_projector",
    "factorize",
    "gate_counts",
    "gram_polynomial",
    "max_modulus_outside_gap",
    "pue_block",
    "random_gapped_unitary",
    "realize",
    "reconstruct_polynomials",
    "select_parameters",
    "spectral_norm",
    "synthesize",
    "synthesize_angles",
    "validate_gap",
    "verify_reflection",
]

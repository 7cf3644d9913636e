"""Ground-truth checks by exact eigendecomposition.

Everything the circuit path promises can be restated on the spectrum
of the input unitary: the target projector, the averaging kernel
applied to the unitary, and the distance of the composite block from
the ideal reflection.  This module computes those quantities directly
from a dense eigendecomposition, deliberately bypassing the rotation
synthesis, so the two paths check each other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as npoly

from .circuit import CircuitIR, GateCounts, Synthesis, gate_counts, predicted_counts
from .completion import completion_residual
from .poly import ComplexPolynomial, GapSpec, ReflectionPlan
from .sim import UNITARY_TOL, _require_unitary, pue_block, realize, spectral_norm

__all__ = [
    "PHASE_MATCH_TOL",
    "GapViolation",
    "TargetAbsent",
    "SpectralData",
    "VerificationReport",
    "decompose",
    "validate_gap",
    "exact_projector",
    "apply_poly",
    "verify_reflection",
]

PHASE_MATCH_TOL = 1e-9  # angular distance under which a phase counts as the target
_BOUND_SLACK = 1e-8


class GapViolation(Exception):
    """An eigenphase sits inside the exclusion arc but is not the target."""

    def __init__(self, offending_phase: float) -> None:
        super().__init__(
            f"eigenphase {offending_phase:.12g} lies inside the gap arc"
        )
        self.offending_phase = float(offending_phase)


class TargetAbsent(Exception):
    """No eigenphase matches the requested target phase."""


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Eigendecomposition of a unitary: U = V diag(exp(i phases)) V^dagger."""

    eigenphases: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.eigenvectors.shape[0])

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * np.exp(1j * self.eigenphases)) @ v.conj().T


@dataclass(frozen=True)
class VerificationReport:
    measured_error: float
    bound: float
    bound_satisfied: bool
    counts: GateCounts
    predicted_counts: GateCounts
    completion_residual: float
    unitarity_residual: float
    oracle_block_residual: float
    params: ReflectionPlan
    branch_unitarity_residual: float
    target_multiplicity: int


def decompose(u: np.ndarray) -> SpectralData:
    """Eigenphases (ascending, in (-pi, pi]) and an orthonormal eigenbasis.

    Uses a complex Schur factorization: for a unitary input the
    triangular factor is diagonal up to rounding, so its diagonal holds
    the eigenvalues and the orthogonal factor the eigenvectors.  The
    reconstruction is re-checked so a silently bad decomposition cannot
    leak into downstream verdicts.
    """
    from scipy import linalg as sla  # deferred: plan and synth never pay for scipy

    u = _require_unitary(u)
    t, z = sla.schur(u, output="complex")
    phases = np.angle(np.diagonal(t))
    order = np.argsort(phases, kind="stable")
    data = SpectralData(
        eigenphases=phases[order].copy(), eigenvectors=z[:, order].copy()
    )
    residual = spectral_norm(data.reconstruct() - u)
    if residual > UNITARY_TOL:
        raise ValueError(f"eigendecomposition failed (residual {residual:.3e})")
    return data


def _circular_distance(phases: np.ndarray, theta: float) -> np.ndarray:
    return np.abs(np.angle(np.exp(1j * (phases - theta))))


def validate_gap(s: SpectralData, gap: GapSpec) -> int:
    """Count target eigenphases; reject spectra that break the gap promise.

    Phases within 1e-9 of theta count as the target.  Any other phase
    strictly inside the delta-arc is a violation and is reported before
    target absence, since it invalidates the whole premise.
    """
    dist = _circular_distance(s.eigenphases, gap.theta)
    inside = (dist > PHASE_MATCH_TOL) & (dist < gap.delta)
    if np.any(inside):
        worst = int(np.argmin(np.where(inside, dist, np.inf)))
        raise GapViolation(float(s.eigenphases[worst]))
    multiplicity = int(np.count_nonzero(dist <= PHASE_MATCH_TOL))
    if multiplicity == 0:
        raise TargetAbsent(f"no eigenphase within {PHASE_MATCH_TOL} of {gap.theta}")
    return multiplicity


def exact_projector(s: SpectralData, theta: float) -> np.ndarray:
    """Orthogonal projector onto the eigenspace at phase theta."""
    mask = _circular_distance(s.eigenphases, theta) <= PHASE_MATCH_TOL
    if not np.any(mask):
        raise TargetAbsent(f"no eigenphase within {PHASE_MATCH_TOL} of {theta}")
    v = s.eigenvectors[:, mask]
    return v @ v.conj().T


def apply_poly(s: SpectralData, p: ComplexPolynomial) -> np.ndarray:
    """p(U) evaluated spectrally: V diag(p(exp(i phases))) V^dagger."""
    vals = npoly.polyval(np.exp(1j * s.eigenphases), p.as_array())
    v = s.eigenvectors
    return (v * vals) @ v.conj().T


def verify_reflection(u: np.ndarray, synthesis: Synthesis) -> VerificationReport:
    """Full verdict on a synthesized circuit against the ideal reflection.

    The circuit is realized once; the plus branch that opens it is a
    snapshot on the way.  The composite block is compared with the
    reflection through the exact target eigenspace, and the plus branch
    block with the kernel applied spectrally at phases shifted by theta,
    so both verdicts rest on the eigendecomposition, not on the angles.
    """
    plan = synthesis.plan
    gap = plan.gap
    s = decompose(u)
    multiplicity = validate_gap(s, gap)
    ideal = 2.0 * exact_projector(s, gap.theta) - np.eye(s.dim)

    split = 2 * plan.degree + 1  # gates of the plus branch walk
    gates = synthesis.circuit.gates
    w_plus = realize(CircuitIR(gates[:split], plan.degree), u)
    w = realize(CircuitIR(gates[split:], plan.degree), u, initial=w_plus)
    measured = spectral_norm(pue_block(w, "top_left") - ideal)
    bound = 4.0 * gap.epsilon
    unitarity = spectral_norm(w.conj().T @ w - np.eye(2 * s.dim))

    residual = completion_residual(synthesis.kernel, synthesis.completion.phi, 16 * split)

    branch_unitarity = spectral_norm(w_plus.conj().T @ w_plus - np.eye(2 * s.dim))
    shifted = replace(s, eigenphases=s.eigenphases - gap.theta)
    block_vs_oracle = spectral_norm(
        pue_block(w_plus, "top_left") - apply_poly(shifted, synthesis.kernel)
    )

    return VerificationReport(
        measured_error=measured,
        bound=bound,
        bound_satisfied=bool(measured <= bound + _BOUND_SLACK),
        counts=gate_counts(synthesis.circuit),
        predicted_counts=predicted_counts(plan),
        completion_residual=residual,
        unitarity_residual=unitarity,
        oracle_block_residual=block_vs_oracle,
        params=plan,
        branch_unitarity_residual=branch_unitarity,
        target_multiplicity=multiplicity,
    )

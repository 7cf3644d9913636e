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

from .circuit import GateCounts, Synthesis, predicted_counts
from .poly import ComplexPolynomial, GapSpec, ReflectionPlan
from .sim import UNITARY_TOL, _evaluate_walk, _gram_defect, _require_unitary, spectral_norm

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
_CUT_TOL = 1e-12  # phases this close to -pi are reported as pi
_U = float(np.finfo(float).eps) / 2  # unit roundoff


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
    """`unitarity_residual` is the composite's Gram defect bound, certified from W+'s."""
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


def decompose(u: np.ndarray, *, gap: GapSpec | None = None) -> SpectralData:
    """Eigenphases (ascending, in (-pi, pi]) and an orthonormal eigenbasis.

    Uses the Cayley transform, so a Hermitian eigensolver does the work.
    With a pole at alpha + pi and V = exp(-i alpha) U,
    H = i (1 - V)(1 + V)^-1 is Hermitian with eigenvalues
    tan((lam - alpha) / 2), injective on the circle minus the pole, so
    `eigh` of H gives an orthonormal eigenbasis of U, also for
    degenerate eigenvalues, and each phase is alpha + 2 arctan(w).  The
    one solve is as well conditioned as the pole is far from the
    spectrum: ||(1 + V)^-1|| is 1 / (2 sin(d / 2)) at distance d.

    Given a `gap` whose promise holds, the pole sits at theta + delta / 2,
    at least delta / 2 from every eigenvalue.  That is taken when
    delta / 2 >= pi / dim and checked for free: max |w| <= cot(delta / 4)
    holds exactly when no eigenvalue is closer than delta / 2.  Otherwise,
    when the solve fails, and with no gap, the eigenvalues (`eigvals`,
    used for nothing else) place the pole at the middle of the widest
    empty arc of the spectrum, at least pi / dim from every eigenvalue
    for any unitary (the solve's norm is then about dim / pi, 82 at
    dim 256).  A phase within `_CUT_TOL` of -pi is the eigenvalue -1 up to
    rounding and is reported as pi.  The reconstruction is re-checked so
    a silently bad decomposition cannot leak into downstream verdicts; its
    Frobenius norm, never below the spectral norm, costs no SVD.
    """
    u = _require_unitary(u)
    dim = u.shape[0]
    if dim == 0:  # no spectrum to place a pole against
        return SpectralData(np.zeros(0), np.zeros((0, 0), dtype=complex))
    found = None
    if gap is not None and 0.5 * gap.delta >= np.pi / dim:
        alpha = gap.theta + 0.5 * gap.delta - np.pi
        try:
            w, vectors = _cayley_eigh(u, alpha)
        except np.linalg.LinAlgError:
            pass
        else:  # written so that a nan or inf in w fails the check
            if np.abs(w).max() <= (1.0 + 1e-9) / np.tan(0.25 * gap.delta):
                found = alpha, w, vectors
    if found is None:
        lam = np.sort(np.angle(np.linalg.eigvals(u)))
        arcs = np.diff(lam, append=lam[0] + 2.0 * np.pi)  # arc k runs from lam[k]
        widest = int(np.argmax(arcs))
        alpha = lam[widest] + 0.5 * arcs[widest] - np.pi
        found = (alpha, *_cayley_eigh(u, alpha))
    alpha, w, vectors = found
    phases = np.pi - np.mod(np.pi - (alpha + 2.0 * np.arctan(w)), 2.0 * np.pi)
    phases[phases <= _CUT_TOL - np.pi] = np.pi
    order = np.argsort(phases, kind="stable")
    data = SpectralData(eigenphases=phases[order], eigenvectors=vectors[:, order])
    residual = float(np.linalg.norm(data.reconstruct() - u))
    if residual > UNITARY_TOL:
        raise ValueError(f"eigendecomposition failed (residual {residual:.3e})")
    return data


def _cayley_eigh(u: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """`eigh` of the Cayley transform of exp(-i alpha) u, whose pole is alpha + pi."""
    v = np.exp(-1j * alpha) * u
    eye = np.eye(u.shape[0])
    h = 1j * np.linalg.solve(eye + v, eye - v)  # (1 - V) and (1 + V)^-1 commute
    return np.linalg.eigh(0.5 * (h + h.conj().T))


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
    """p(U) evaluated spectrally: V diag(p(exp(i phases))) V^dagger.

    The values p(exp(i phase)) are one product of the coefficients with the
    dim x (degree + 1) matrix exp(i phase k), built in place: a temporary of
    16 dim (degree + 1) bytes, about 67 MB at dim 1024 and degree 4096.
    """
    coeffs = p.as_array()
    powers = np.outer(1j * s.eigenphases, np.arange(len(coeffs)))
    vals = np.exp(powers, out=powers) @ coeffs
    v = s.eigenvectors
    return (v * vals) @ v.conj().T


def verify_reflection(u: np.ndarray, synthesis: Synthesis) -> VerificationReport:
    """Full verdict on a synthesized circuit against the ideal reflection.

    The record builds its circuit's tail as the adjoint of the plus walk
    W+'s Z-mirror, so only the head, W+, is realized, as a polynomial in u
    with the record's `plus_coefficients`; `decompose` checks u unitary,
    which the realization relies on.  W+'s block is compared with the
    kernel applied spectrally at phases shifted by theta, the composite's with
    the reflection through the exact target eigenspace: both verdicts
    rest on the eigenbasis, not on the angles.  The top block of W = (Z W+ Z)^dagger W+ is
    A^dagger A - B^dagger B for W+'s first block column [A; B], Hermitian,
    and `measured_error` is an `eigvalsh`.
    W^dagger W - I = W+^dagger (M M^dagger - I) W+ + W+^dagger W+ - I for
    M = Z W+ Z, so `unitarity_residual` is the certified bound eta (2 + eta)
    with eta = ||W+^dagger W+ - I|| <= eta^ + n gamma_{n+2} (1 + eta^) for
    eta^ computed, n = 2 dim, gamma_k = k u / (1 - k u), u = 2^-53, to first
    order: a complex Gram product errs by at most gamma_{n+2} |W+|^T |W+|
    entrywise (Higham, Accuracy and Stability of Numerical Algorithms,
    3.5-3.6), of norm <= ||W+||_F^2 <= n (1 + eta); `eigvalsh` adds O(n u eta^).
    """
    plan = synthesis.plan
    gap = plan.gap
    s = decompose(u, gap=gap)
    multiplicity = validate_gap(s, gap)
    ideal = 2.0 * exact_projector(s, gap.theta) - np.eye(s.dim)

    u = np.asarray(u, dtype=complex)
    w_plus = _evaluate_walk(synthesis.plus_coefficients, u)
    branch_unitarity = _gram_defect(w_plus)
    a, b = w_plus[: s.dim, : s.dim], w_plus[s.dim :, : s.dim]
    top = a.conj().T @ a - b.conj().T @ b - ideal
    measured = float(np.abs(np.linalg.eigvalsh(top)).max())
    n = 2 * s.dim
    eta = branch_unitarity + n * (n + 2) * _U / (1 - (n + 2) * _U) * (1 + branch_unitarity)
    unitarity = eta * (2.0 + eta)
    bound = 4.0 * gap.epsilon

    shifted = replace(s, eigenphases=s.eigenphases - gap.theta)
    block_vs_oracle = spectral_norm(a - apply_poly(shifted, synthesis.kernel))

    return VerificationReport(
        measured_error=measured,
        bound=bound,
        bound_satisfied=bool(measured <= bound + _BOUND_SLACK),
        counts=synthesis.counts,
        predicted_counts=predicted_counts(plan),
        completion_residual=synthesis.completion.residual,
        unitarity_residual=unitarity,
        oracle_block_residual=block_vs_oracle,
        params=plan,
        branch_unitarity_residual=branch_unitarity,
        target_multiplicity=multiplicity,
    )

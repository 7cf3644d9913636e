"""Ground-truth checks by exact eigendecomposition.

Everything the circuit path promises can be restated on the spectrum
of the input unitary: the target projector, the averaging kernel
applied to the unitary, and the distance of the composite block from
the ideal reflection.  This module computes those quantities directly
from a dense eigendecomposition, deliberately bypassing the rotation
synthesis, so the two paths check each other.  Each also takes a stack (`verify_stack`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .circuit import GateCounts, Synthesis, predicted_counts
from .poly import ComplexPolynomial, GapSpec, ReflectionPlan
from .sim import UNITARY_TOL, _evaluate_walk, _require_unitary

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
    "verify_stack",
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
    """Eigendecomposition U = V diag(exp(i phases)) V^dagger of a unitary, or of each of a stack."""

    eigenphases: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.eigenvectors.shape[-1])

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * np.exp(1j * self.eigenphases)[..., None, :]) @ _adjoint(v)


@dataclass(frozen=True)
class VerificationReport:
    """`measured_error` is spectral, the residuals Frobenius; `unitarity_residual` is certified."""
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
    """Eigenphases (ascending, in (-pi, pi]) and an orthonormal eigenbasis, of u or each of a stack.

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
    rounding and is reported as pi.  Of a stack, only instances that fail the check
    take `eigvals` (all, if the solve fails).  The reconstruction is re-checked so
    a silently bad decomposition cannot leak into downstream verdicts; its
    Frobenius norm, never below the spectral norm, costs no SVD.
    """
    u = _require_unitary(u)
    dim = u.shape[-1]
    if dim == 0:  # no spectrum to place a pole against
        return SpectralData(np.zeros(u.shape[:-1]), np.zeros(u.shape, dtype=complex))
    us = u.reshape(-1, dim, dim)
    alpha, ok = np.zeros(len(us)), np.zeros(len(us), dtype=bool)
    w, vectors = np.empty((len(us), dim)), np.empty_like(us)
    if gap is not None and 0.5 * gap.delta >= np.pi / dim:
        alpha[:] = gap.theta + 0.5 * gap.delta - np.pi
        try:
            w[:], vectors[:] = _cayley_eigh(us, alpha)
        except np.linalg.LinAlgError:
            pass
        else:  # written so that a nan or inf in w fails the check
            ok = np.abs(w).max(axis=1) <= (1.0 + 1e-9) / np.tan(0.25 * gap.delta)
    if not ok.all():  # only the instances that failed the check pay for `eigvals`
        lam = np.sort(np.angle(np.linalg.eigvals(us[~ok])))
        arcs = np.diff(lam, append=lam[:, :1] + 2.0 * np.pi)  # arc k runs from lam[k]
        widest = np.argmax(arcs, axis=1)[:, None]
        alpha[~ok] = np.take_along_axis(lam + 0.5 * arcs, widest, 1)[:, 0] - np.pi
        w[~ok], vectors[~ok] = _cayley_eigh(us[~ok], alpha[~ok])
    phases = np.pi - np.mod(np.pi - (alpha[:, None] + 2.0 * np.arctan(w)), 2.0 * np.pi)
    phases[phases <= _CUT_TOL - np.pi] = np.pi
    for k, order in enumerate(np.argsort(phases, kind="stable")):
        phases[k], vectors[k] = phases[k, order], vectors[k][:, order]
    data = SpectralData(phases.reshape(u.shape[:-1]), vectors.reshape(u.shape))
    residual = max(float(np.linalg.norm(r)) for r in data.reconstruct().reshape(us.shape) - us)
    if residual > UNITARY_TOL:
        raise ValueError(f"eigendecomposition failed (residual {residual:.3e})")
    return data


def _cayley_eigh(us: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`eigh` of the Cayley transforms of exp(-i alpha) us, each pole at its alpha + pi."""
    v = np.exp(-1j * alpha)[:, None, None] * us
    eye = np.eye(us.shape[-1])
    h = 1j * np.linalg.solve(eye + v, eye - v)  # (1 - V) and (1 + V)^-1 commute
    return np.linalg.eigh(0.5 * (h + _adjoint(h)))


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _circular_distance(phases: np.ndarray, theta: float) -> np.ndarray:
    return np.abs(np.angle(np.exp(1j * (phases - theta))))


def validate_gap(s: SpectralData, gap: GapSpec) -> int | list[int]:
    """Count target eigenphases, a list for a stack; reject spectra that break the gap promise.

    Phases within 1e-9 of theta count as the target.  Any other phase
    strictly inside the delta-arc is a violation and is reported before
    target absence, since it invalidates the whole premise.
    """
    dist = _circular_distance(s.eigenphases, gap.theta)
    inside = (dist > PHASE_MATCH_TOL) & (dist < gap.delta)
    if np.any(inside):
        worst = np.argmin(np.where(inside, dist, np.inf))
        raise GapViolation(float(s.eigenphases.flat[worst]))
    multiplicity = np.count_nonzero(dist <= PHASE_MATCH_TOL, axis=-1)
    if not np.all(multiplicity):
        raise TargetAbsent(f"no eigenphase within {PHASE_MATCH_TOL} of {gap.theta}")
    return multiplicity.tolist()


def exact_projector(s: SpectralData, theta: float) -> np.ndarray:
    """Orthogonal projector onto the eigenspace at phase theta, for each of a stack."""
    mask = _circular_distance(s.eigenphases, theta) <= PHASE_MATCH_TOL
    if not np.all(np.any(mask, axis=-1)):
        raise TargetAbsent(f"no eigenphase within {PHASE_MATCH_TOL} of {theta}")
    vectors = s.eigenvectors.reshape(-1, s.dim, s.dim)
    projectors = np.empty_like(vectors)
    for p, v, targets in zip(projectors, vectors, mask.reshape(-1, s.dim)):  # its own targets
        np.matmul(v[:, targets], v[:, targets].conj().T, out=p)
    return projectors.reshape(s.eigenvectors.shape)


def apply_poly(s: SpectralData, p: ComplexPolynomial) -> np.ndarray:
    """p(U) evaluated spectrally: V diag(p(exp(i phases))) V^dagger, for each of a stack.

    The values p(exp(i phase)) are one product of the coefficients with the
    B dim x (degree + 1) matrix exp(i phase k) of a stack of B, built in place: a
    temporary of 16 B dim (degree + 1) bytes, 67 MB at B = 1, dim 1024, degree 4096.
    """
    coeffs = p.as_array()
    powers = (1j * s.eigenphases)[..., None] * np.arange(len(coeffs))
    vals = np.exp(powers, out=powers) @ coeffs
    v = s.eigenvectors
    return (v * vals[..., None, :]) @ _adjoint(v)


def verify_reflection(u: np.ndarray, synthesis: Synthesis) -> VerificationReport:
    """Full verdict on a synthesized circuit against the ideal reflection: `verify_stack` of one.

    The record's circuit is W+, then the adjoint of W+'s Z-mirror, so only W+'s first block
    column [A; B] is realized, as a polynomial in u with the record's `plus_coefficients`,
    first, so that only u is held beside its buffers; `decompose` checks u unitary next.  A is
    compared with the kernel applied spectrally at phases shifted by theta, the composite's top
    block A^dagger A - B^dagger B with the reflection through the exact target eigenspace: both
    verdicts rest on the eigenbasis, not on the angles.  `measured_error`, the verdict, is an
    exact spectral norm, an `eigvalsh`; the residuals report rounding, in Frobenius norms.
    The first column fixes the second: det R(theta, phi, lam) = -e^{i(phi + lam)} and
    det diag(1, e^{-i psi} x) = e^{-i psi} x, so W+'s 2 x 2 polynomial matrix, unitary on the
    circle, has determinant c x^d, c = e^{i lam} prod_j (-e^{i phi_j}), and second column
    c x^d (-conj q, conj p) for its first (p, q) (Motlagh and Wiebe, arXiv:2308.01501), here
    c X^d [-B^dagger; A^dagger], X = e^{-i theta} u.  A and B, polynomials in one normal X,
    commute with each other and their adjoints: the off-diagonal Gram block c X^d (B^dagger
    A^dagger - A^dagger B^dagger) vanishes, the second diagonal block has the first's norm, and
    eta^ = sqrt(2) ||A^dagger A + B^dagger B - I||_F, from the top block's two products, is W+'s
    Gram defect whatever the angles (`branch_unitarity_residual`).  Exact for a unitary u; the
    defect of a u accepted within UNITARY_TOL enters A and B through its powers up to X^d, so
    eta^ carries it too (checked, not proved).  W^dagger W - I = W+^dagger (M M^dagger - I) W+
    + W+^dagger W+ - I for M = Z W+ Z, so `unitarity_residual` is the certified bound
    eta (2 + eta) with eta = ||W+^dagger W+ - I||_F <= eta^ + n gamma_{n+2} (1 + eta^), n = 2 dim,
    gamma_k = k u / (1 - k u), u = 2^-53, to first order: a complex Gram product errs by at most
    gamma_{n+2} |W+|^T |W+| entrywise (Higham, Accuracy and Stability of Numerical Algorithms,
    3.5-3.6), of Frobenius norm <= ||W+||_F^2 <= n (1 + eta), and sqrt(2) times the first
    column's is no more; the norm adds O(n u eta^).  eta bounds the spectral defect too.
    """
    return verify_stack(np.asarray(u)[None], synthesis)[0]


def verify_stack(us: np.ndarray, synthesis: Synthesis) -> list[VerificationReport]:
    """`verify_reflection` of each unitary of a stack us, shape (B, dim, dim).

    Each solve, eigen-solve and walk product takes the whole stack, and each
    instance meets its arithmetic alone, so the reports equal B calls of
    `verify_reflection` field for field; one instance that fails raises for all.
    """
    us = np.asarray(us, dtype=complex)
    if us.ndim != 3 or us.shape[1] != us.shape[2]:
        raise ValueError("expected a stack of square matrices")
    plan, gap = synthesis.plan, synthesis.plan.gap
    with np.errstate(all="ignore"):  # a u that is not unitary is refused next, by decompose
        x = _evaluate_walk(synthesis.plus_coefficients, us)
    s = decompose(us, gap=gap)
    multiplicities = validate_gap(s, gap)
    ideal = 2.0 * exact_projector(s, gap.theta) - np.eye(s.dim)
    a, b = x[:, : s.dim], x[:, s.dim :]  # x = [A; B], W+'s first block column
    aa, bb = _adjoint(a) @ a, _adjoint(b) @ b
    measured = np.abs(np.linalg.eigvalsh(aa - bb - ideal)).max(axis=-1)
    branch = [float(np.sqrt(2.0) * np.linalg.norm(g)) for g in aa + bb - np.eye(s.dim)]
    shifted = replace(s, eigenphases=s.eigenphases - gap.theta)
    block = [float(np.linalg.norm(d)) for d in a - apply_poly(shifted, synthesis.kernel)]
    n, bound, predicted = 2 * s.dim, 4.0 * gap.epsilon, predicted_counts(plan)
    reports = []
    for k, multiplicity in enumerate(multiplicities):
        eta = branch[k] + n * (n + 2) * _U / (1 - (n + 2) * _U) * (1 + branch[k])
        reports.append(VerificationReport(
            measured_error=float(measured[k]),
            bound=bound,
            bound_satisfied=bool(measured[k] <= bound + _BOUND_SLACK),
            counts=synthesis.counts,
            predicted_counts=predicted,
            completion_residual=synthesis.completion.residual,
            unitarity_residual=eta * (2.0 + eta),
            oracle_block_residual=block[k],
            params=plan,
            branch_unitarity_residual=branch[k],
            target_multiplicity=multiplicity,
        ))
    return reports

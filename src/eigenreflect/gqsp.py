"""Rotation-angle synthesis for complementary polynomial pairs.

A pair (p, q) with |p|^2 + |q|^2 = 1 on the unit circle embeds into a
product of ancilla rotations interleaved with a shift that multiplies
the lower branch by x:

    M(x) = R(theta_d, phi_d, 0) . diag(1, x) ... diag(1, x) . R(theta_0, phi_0, lam)

whose first column is (p(x), q(x)); every forward product is one product
tree (`_walk_product`).  The rotation convention is

    R(theta, phi, lam) = [[exp(i(lam+phi))cos(theta), exp(i phi)sin(theta)],
                          [exp(i lam)sin(theta),      -cos(theta)]].

Synthesis runs the product backwards, one degree per step.  The two
leading coefficients fix the outermost rotation, their phases read as
they are however small; undoing it and shifting the lower branch down
drops the degree by one exactly.  A step whose two leading coefficients
both sit at or below TOP_TOL (a pair padded above its true degree) is
refused with a ValueError: the completion keeps the partner at full
degree, so no pair the program builds is padded.

One peel serves both branches of the reflection: Z . R(theta, phi, lam) . Z
= R(-theta, phi, lam) for Z = diag(1, -1), and Z commutes with diag(1, x),
so negating every theta turns the first column into (p, -q), bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .completion import completion_residual
from .poly import ComplexPolynomial, _grid_size

__all__ = [
    "TOP_TOL",
    "RESIDUAL_PRE_TOL",
    "ROTATION_CONVENTION",
    "GQSPAngleSequence",
    "synthesize_angles",
    "reconstruct_polynomials",
]

TOP_TOL = 1e-13  # leading coefficients at or below this count as absent
RESIDUAL_PRE_TOL = 1e-8

ROTATION_CONVENTION = (
    "R(theta,phi,lam) = [[e^{i(lam+phi)}cos(theta), e^{i phi}sin(theta)],"
    " [e^{i lam}sin(theta), -cos(theta)]]; shift diag(1,x) on the lower branch"
)


@dataclass(frozen=True)
class GQSPAngleSequence:
    """Angles for one branch walk of degree len(thetas) - 1, in ROTATION_CONVENTION.

    degenerate_steps is always empty: synthesis refuses a step without
    leading data.  It stays so that angles.json keeps its key.
    """

    thetas: tuple[float, ...]
    phis: tuple[float, ...]
    lambda_final: float
    degenerate_steps: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if len(self.thetas) != len(self.phis):
            raise ValueError("thetas and phis must have equal length")
        if not self.thetas:
            raise ValueError("a sequence needs at least the base rotation")
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        object.__setattr__(self, "phis", tuple(float(p) for p in self.phis))
        object.__setattr__(self, "degenerate_steps", tuple(self.degenerate_steps))

    @property
    def degree(self) -> int:
        return len(self.thetas) - 1


def synthesize_angles(p: ComplexPolynomial, q: ComplexPolynomial) -> GQSPAngleSequence:
    """Invert the rotation product for a complementary pair.

    The pair must actually be complementary: its unit-circle residual is
    measured on a dense grid and anything above 1e-8 is rejected, since
    the peel-off loses its meaning for non-unitary data.
    """
    d = max(p.degree, q.degree)
    res = completion_residual(p, q, _grid_size(d))
    if res > RESIDUAL_PRE_TOL:
        raise ValueError(
            f"pair is not complementary on the circle (residual {res:.3e})"
        )
    pw = np.zeros(d + 1, dtype=complex)
    qw = np.zeros(d + 1, dtype=complex)
    pw[: p.degree + 1] = p.as_array()
    qw[: q.degree + 1] = q.as_array()
    thetas = np.zeros(d + 1)
    phis = np.zeros(d + 1)
    for j in range(d, 0, -1):
        top_p, top_q = pw[j], qw[j]
        if abs(top_p) <= TOP_TOL and abs(top_q) <= TOP_TOL:
            raise ValueError(f"synthesis step {j}: both leading coefficients are at most {TOP_TOL}")
        theta = math.atan2(abs(top_p), abs(top_q))
        phi = cmath.phase(-top_p * top_q.conjugate())
        thetas[j] = theta
        phis[j] = phi
        c, s = math.cos(theta), math.sin(theta)
        back = cmath.exp(-1j * phi)
        new_p = (back * c) * pw + s * qw
        new_q = (back * s) * pw - c * qw
        pw = new_p[:j]
        qw = new_q[1 : j + 1]
    thetas[0] = math.atan2(abs(qw[0]), abs(pw[0]))
    # an exact zero has no phase: the -0j of a negated zero partner would read as pi
    lam = cmath.phase(qw[0]) if qw[0] != 0 else 0.0
    phis[0] = cmath.phase(pw[0]) - lam if pw[0] != 0 else 0.0
    return GQSPAngleSequence(thetas=tuple(thetas), phis=tuple(phis), lambda_final=lam)


def reconstruct_polynomials(seq: GQSPAngleSequence) -> tuple[ComplexPolynomial, ComplexPolynomial]:
    """Run the rotation product forwards; returns the first-column pair."""
    c = _walk_product(_walk_factors(seq.thetas, seq.phis, seq.lambda_final))
    return ComplexPolynomial(tuple(c[:, 0, 0])), ComplexPolynomial(tuple(c[:, 1, 0]))


def _walk_factors(thetas, phis, lam: float, phase_shift: float = 0.0) -> np.ndarray:
    """R(theta_j, phi_j, lam if j == 0 else 0), times diag(1, exp(-i phase_shift)) for j >= 1."""
    cos, sin, ep = np.cos(thetas), np.sin(thetas), np.exp(1j * np.asarray(phis))
    m = np.stack([ep * cos, ep * sin, sin, -cos], axis=-1).reshape(-1, 2, 2)
    m[0, :, 0] *= np.exp(1j * lam)  # R(theta, phi, lam) = R(theta, phi, 0) diag(exp(i lam), 1)
    m[1:, :, 1] *= np.exp(-1j * phase_shift)
    return m


def _walk_product(factors: np.ndarray) -> np.ndarray:
    """The C_k, read-only (n, 2, 2), of M_{n-1} S ... S M_0 = sum_k C_k x**k, S = diag(1, x).

    factors[j] = M_j.  A product tree (von zur Gathen and Gerhard, Modern Computer Algebra, 10.1):
    pairs hi S lo of degree m - 1 make degree 2m - 1, one exact length-2m FFT convolution a level.
    """
    n = len(factors)
    pad = (1 << (n - 1).bit_length()) - n
    f = np.concatenate([factors, np.broadcast_to(np.eye(2), (pad, 2, 2))])[..., None]
    while len(f) > 1:  # f is [node, row, column, power]
        m = f.shape[-1]
        g = np.zeros(f.shape[:-1] + (2 * m,), dtype=complex)
        g[1::2, ..., :m] = f[1::2]
        g[::2, 0, :, :m] = f[::2, 0]
        g[::2, 1, :, 1 : m + 1] = f[::2, 1]  # S lo: its lower row a power up
        t = np.fft.fft(g)
        f = np.fft.ifft((t[1::2, :, :, None] * t[::2, None]).sum(2))
    c = np.stack([f[0, 0, :, :n], f[0, 1, :, pad:]]).transpose(2, 0, 1)  # S**pad: row 1 pad up
    c.flags.writeable = False
    return c

"""Polynomial side of the reflection construction.

The target eigenspace is isolated by powers of a uniform averaging
kernel on the unit circle: once the kernel length t is large enough,
the kernel modulus stays below 1/e everywhere outside the gap, so n
powers push the leakage below any requested budget.  This module owns
the kernel-power family, the (t, n) selection rule, the circle-grid
evaluator, and the one rule that sizes every circle grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ComplexPolynomial",
    "GapSpec",
    "ReflectionPlan",
    "select_parameters",
    "build_upsilon",
    "eval_on_circle_grid",
    "max_modulus_outside_gap",
]


@dataclass(frozen=True)
class ComplexPolynomial:
    """Dense monomial-basis coefficients, constant term first.

    The degree is the number of coefficients given, less one: nothing
    is trimmed, so a kernel whose top coefficient t^-n falls far below
    machine epsilon keeps its degree.  An empty tuple becomes the
    single zero entry.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        cs = tuple(complex(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", cs or (0j,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def as_array(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=complex)


@dataclass(frozen=True)
class GapSpec:
    """Gap half-width, target eigenphase, and error budget.

    delta may equal pi (widest possible gap, every bystander phase
    antipodal).  epsilon is an open-interval budget: 1 would demand
    nothing and 0 cannot be met by any finite kernel.
    """

    delta: float
    theta: float = 0.0
    epsilon: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.delta <= math.pi:
            raise ValueError(f"delta must lie in (0, pi], got {self.delta!r}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")
        if abs(self.theta) > math.pi:  # wrapped; one in [-pi, pi] stays bit for bit
            object.__setattr__(self, "theta", math.atan2(math.sin(self.theta), math.cos(self.theta)))


@dataclass(frozen=True)
class ReflectionPlan:
    """Resolved construction parameters for one gap/budget pair.

    degree is (t - 1) * n, the oracle-call count of a single branch;
    the composite circuit doubles it and adds one rotation per branch
    boundary.
    """

    gap: GapSpec
    t: int
    n: int

    def __post_init__(self) -> None:
        if self.t < 1 or self.n < 1:
            raise ValueError("t and n must both be at least 1")

    @property
    def degree(self) -> int:
        return (self.t - 1) * self.n

    @property
    def predicted_controlled_u_per_branch(self) -> int:
        return self.degree

    @property
    def predicted_rotations(self) -> int:
        return 2 * (self.degree + 1)


def select_parameters(gap: GapSpec, *, use_paper_t_formula: bool = False) -> ReflectionPlan:
    """Resolve the kernel length t and power n for a gap/budget pair.

    n = ceil(ln(1/epsilon)) always.  The default kernel length
    t = ceil(2e / |e^{i delta} - 1|) guarantees per-power contraction by
    at least 1/e outside the gap, hence a leakage of at most
    e^{-n} <= epsilon there.  With use_paper_t_formula the smaller
    alternate constant t = ceil(e / (2 |e^{i delta} - 1|)) is chosen
    instead; it misses the contraction requirement by a factor of four
    and exists only for the documented comparison experiment.
    """
    n = math.ceil(-math.log(gap.epsilon))  # 1 / epsilon overflows when epsilon is subnormal
    span = 2.0 * math.sin(0.5 * gap.delta)  # |e^{i delta} - 1|
    factor = 0.5 * math.e if use_paper_t_formula else 2.0 * math.e
    length = factor / span if span > 0.0 else math.inf
    if not math.isfinite(length):
        raise ValueError(f"delta {gap.delta!r} is too small: the averaging length overflows")
    t = math.ceil(length)
    return ReflectionPlan(gap=gap, t=t, n=n)


def build_upsilon(t: int, n: int) -> ComplexPolynomial:
    """n-th power of the uniform length-t kernel, by repeated convolution.

    Coefficients are real, nonnegative, and sum to 1, so the modulus
    never exceeds 1 on the closed unit disc and the value at 1 is
    exactly 1.
    """
    if t < 1 or n < 1:
        raise ValueError("t and n must both be at least 1")
    kernel = np.full(t, 1.0 / t)
    out = np.array([1.0])
    for _ in range(n):
        out = np.convolve(out, kernel)
    return ComplexPolynomial(tuple(out))


def eval_on_circle_grid(poly: ComplexPolynomial, m: int) -> np.ndarray:
    """Values at the m equispaced circle points e^{2 pi i j / m}, j = 0..m-1.

    Computed by a zero-padded inverse FFT, which agrees with pointwise
    Horner evaluation to rounding as long as m exceeds the degree.
    """
    if m < poly.degree + 1:
        raise ValueError(f"need m >= degree + 1 = {poly.degree + 1}, got {m}")
    return m * np.fft.ifft(poly.as_array(), m)


def max_modulus_outside_gap(poly: ComplexPolynomial, delta: float) -> float:
    """Grid estimate of max |poly(e^{i lam})| over delta <= |lam| <= pi.

    Reads the arc off the circle grid refined fourfold (4 * _grid_size
    points, pi among them) and adds its ends e^{+-i delta}, evaluated
    directly.  A dense-grid estimate of the supremum, not a certified bound.
    """
    if not 0.0 < delta <= math.pi:
        raise ValueError(f"delta must lie in (0, pi], got {delta!r}")
    m = 4 * _grid_size(poly.degree)
    first = math.ceil(delta * m / (2.0 * math.pi))  # first grid point on the arc
    c = poly.as_array()
    ends = np.exp(np.outer([1j * delta, -1j * delta], np.arange(c.size))) @ c
    arc = np.concatenate([eval_on_circle_grid(poly, m)[first : m - first + 1], ends])
    return float(np.max(np.abs(arc)))


def _grid_size(d: int) -> int:
    """Circle points for the completion's checks and Weiss step at degree d.

    The smallest power of two, at least 64, not below 16 * (2d + 1); the
    kernel peak takes four times as many.  A power of two keeps the FFTs on
    numpy's fast path; 16 * (2d + 1) itself takes the several times slower
    chirp-z one whenever 2d + 1 has a large prime factor.
    """
    m = 64
    while m < 16 * (2 * d + 1):
        m *= 2
    return m

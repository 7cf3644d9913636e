"""Complementary-polynomial completion.

For a polynomial p bounded by 1 in modulus on the unit circle, find a
partner q of no larger degree with |p|^2 + |q|^2 = 1 on the circle.
The defect 1 - |p|^2 is a nonnegative trigonometric polynomial, so it
factors as a squared modulus; this module computes the factor with
FFTs and certifies the residual on a dense grid.

The averaging kernel's defect vanishes on the circle only at z = 1,
where it has a double zero.  That zero is divided out exactly: the
defect's value at 1 is pinned to zero, and two cumulative sums divide
by |1 - z|^2.  What remains is strictly positive, so its log is smooth
and the log-domain (Weiss) factorization applies: keep the causal half
of the log's Fourier series, exponentiate, and truncate (Berntson and
Sunderhauf, arXiv:2406.04246).  A defect with no zero at z = 1, such
as that of a polynomial with peak modulus below 1, is factored the same
way without the division.  Multiplying back by (1 - z) and reflecting
the factor through the circle puts its roots in the closed disc, so
the partner keeps the full degree with an order-one leading
coefficient.  A defect that vanishes elsewhere on the circle, or dips
below zero, factors poorly and is rejected by the residual check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import ComplexPolynomial, eval_on_circle_grid

__all__ = [
    "TrigPolynomial",
    "CompletionResult",
    "CompletionError",
    "gram_polynomial",
    "factorize",
    "completion_residual",
]

DEFAULT_COMPLETION_TOL = 1e-10  # max certified residual a completion may reach
_HERMITIAN_TOL = 1e-13
_NONNEG_TOL = 1e-9
_ZERO_AT_ONE_TOL = 1e-12  # |defect(1)| below this, relative to max |coeff|


class CompletionError(RuntimeError):
    """The factorization missed the requested residual."""

    def __init__(self, message: str, achieved_residual: float) -> None:
        super().__init__(message)
        self.achieved_residual = achieved_residual


@dataclass(frozen=True)
class TrigPolynomial:
    """Laurent coefficients of a real-on-circle trigonometric polynomial.

    Index k of laurent_coeffs holds the coefficient of z^(k - d), where
    2d + 1 is the stored length.  Hermitian symmetry (entry at -k equal
    to the conjugate of entry at +k, within 1e-13) is checked at
    construction; it is what makes the circle values real.
    """

    laurent_coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        g = tuple(complex(x) for x in self.laurent_coeffs)
        if len(g) % 2 != 1:
            raise ValueError("laurent_coeffs must have odd length 2d+1")
        arr = np.array(g, dtype=complex)
        if arr.size and float(np.max(np.abs(arr - np.conj(arr[::-1])))) > _HERMITIAN_TOL:
            raise ValueError("laurent coefficients are not Hermitian-symmetric")
        object.__setattr__(self, "laurent_coeffs", g)

    @property
    def order(self) -> int:
        return (len(self.laurent_coeffs) - 1) // 2

    def as_array(self) -> np.ndarray:
        return np.array(self.laurent_coeffs, dtype=complex)

    def values_on_grid(self, m: int) -> np.ndarray:
        """Real values at the m-th roots of unity.

        The imaginary parts are rounding noise by Hermitian symmetry and
        are dropped.
        """
        return _laurent_values(self.as_array(), m)


@dataclass(frozen=True)
class CompletionResult:
    phi: ComplexPolynomial
    residual: float
    method: str = "weiss"  # the factorization route; there is one


def gram_polynomial(upsilon: ComplexPolynomial) -> TrigPolynomial:
    """Laurent coefficients of 1 - |upsilon|^2 on the unit circle.

    Rejects inputs whose modulus exceeds 1 on the circle (grid values of
    the defect below -1e-9), since no completion exists for them.
    """
    c = upsilon.as_array()
    d = upsilon.degree
    auto = np.convolve(c, np.conj(c[::-1]))  # exponents -d..d of |upsilon|^2
    g = -auto
    g[d] += 1.0
    trig = TrigPolynomial(tuple(g))
    worst = float(trig.values_on_grid(_grid_size(d)).min())
    if worst < -_NONNEG_TOL:
        raise ValueError(f"modulus exceeds 1 on the circle (defect {worst:.3e})")
    return trig


def factorize(gram: TrigPolynomial, tol: float = DEFAULT_COMPLETION_TOL) -> CompletionResult:
    """Polynomial of degree gram.order whose squared circle modulus is gram.

    The leading coefficient is rotated to be real and nonnegative, which
    pins down the otherwise free global phase.  Raises CompletionError,
    carrying the residual achieved, when the certified residual exceeds
    tol; a defect that is not positive off z = 1 ends there.
    """
    g = gram.as_array()
    d = gram.order
    scale = float(np.max(np.abs(g)))
    if scale == 0.0:
        phi = np.zeros(1, dtype=complex)
    else:
        total = g.sum()
        deflate = d > 0 and abs(total) <= _ZERO_AT_ONE_TOL * scale
        if deflate:
            g = g.copy()
            g[d] -= total  # the defect at z = 1 is now exactly zero
            g = _divide_by_one_minus_z_squared(g)
        phi = _weiss_factor(g)
        if deflate:
            phi = np.convolve(phi, [1.0, -1.0])
        # the outer factor has its roots outside the disc and a leading
        # coefficient that can fall to rounding; its reflection keeps
        # the full degree
        phi = _fix_leading_phase(np.conj(phi[::-1]))
    residual = _gram_residual(phi, gram)
    if not residual <= tol:
        raise CompletionError(
            f"residual {residual:.3e} exceeds tolerance {tol:.3e}", residual
        )
    return CompletionResult(phi=ComplexPolynomial(tuple(phi)), residual=residual)


def completion_residual(upsilon: ComplexPolynomial, phi: ComplexPolynomial, m: int) -> float:
    """Max over m circle points of | |upsilon|^2 + |phi|^2 - 1 |."""
    needed = 2 * max(upsilon.degree, phi.degree) + 1
    if m < needed:
        raise ValueError(f"need m >= {needed} grid points, got {m}")
    u = np.abs(eval_on_circle_grid(upsilon, m)) ** 2
    p = np.abs(eval_on_circle_grid(phi, m)) ** 2
    return float(np.max(np.abs(u + p - 1.0)))


def _laurent_values(g: np.ndarray, m: int) -> np.ndarray:
    """Real circle values of Laurent coefficients g at the m-th roots of unity."""
    if m < len(g):
        raise ValueError("grid too coarse for the stored order")
    order = (len(g) - 1) // 2
    vals = m * np.fft.ifft(g, m)
    vals *= np.exp(-2j * np.pi * np.arange(m) * order / m)
    return vals.real


def _grid_size(d: int) -> int:
    """Circle points for the checks and the Weiss step at degree d.

    The smallest power of two, at least 64, not below 16 * (2d + 1).
    A power of two keeps the FFTs on numpy's fast path; 16 * (2d + 1)
    itself takes the several times slower chirp-z one whenever 2d + 1
    has a large prime factor.
    """
    m = 64
    while m < 16 * (2 * d + 1):
        m *= 2
    return m


def _gram_residual(phi: np.ndarray, gram: TrigPolynomial) -> float:
    m = _grid_size(gram.order)  # phi has at most gram.order + 1 coefficients
    gv = gram.values_on_grid(m)
    pv = m * np.fft.ifft(phi, m)
    return float(np.max(np.abs(np.abs(pv) ** 2 - gv)))


def _divide_by_one_minus_z_squared(g: np.ndarray) -> np.ndarray:
    """Laurent coefficients of g / |1 - z|^2, for g with a double zero at z = 1.

    On the circle |1 - z|^2 = -z^-1 (1 - z)^2, so z^d g(z) is divided by
    (1 - z) twice; dividing by (1 - z) is a cumulative sum.  The sums
    run from the small outer coefficients inward, and only the lower
    half is kept: the upper half is its conjugate mirror.
    """
    d = (len(g) - 1) // 2
    lower = -np.cumsum(np.cumsum(g[:d]))  # exponents -(d-1)..0 of the quotient
    return np.concatenate([lower, np.conj(lower[-2::-1])])


def _weiss_factor(g: np.ndarray) -> np.ndarray:
    """Outer polynomial h of degree (len(g) - 1) / 2 with |h|^2 = g on the circle.

    Grid values at or below zero, which a factorable g has only off the
    grid, are raised to the smallest positive one (at most 1) so the log
    stays finite; the residual check then reports how far that got.
    """
    d = (len(g) - 1) // 2
    m = _grid_size(d)
    vals = _laurent_values(g, m)
    vals = np.maximum(vals, np.min(vals, where=vals > 0.0, initial=1.0))
    ell = np.fft.fft(np.log(vals)) / m
    half = np.zeros(m, dtype=complex)
    half[0] = 0.5 * ell[0]
    half[1 : m // 2] = ell[1 : m // 2]
    half[m // 2] = 0.5 * ell[m // 2]
    return (np.fft.fft(np.exp(m * np.fft.ifft(half))) / m)[: d + 1]


def _fix_leading_phase(phi: np.ndarray) -> np.ndarray:
    lead = phi[-1]
    if abs(lead) == 0.0:
        return phi
    return phi * (np.conj(lead) / abs(lead))

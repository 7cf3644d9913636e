"""Complementary-polynomial completion.

For a polynomial p bounded by 1 in modulus on the unit circle, find a
partner q of no larger degree with |p|^2 + |q|^2 = 1 on the circle.
The defect 1 - |p|^2 is a nonnegative trigonometric polynomial, so it
factors as a squared modulus.  Its values on one dense circle grid feed
the nonnegativity check, the factorization and the residual check.

The averaging kernel's defect g vanishes on the circle only at z = 1,
where it has a double zero.  That zero is divided out on the grid: the
value at 1, sum_k g_k (rounding-sized), is subtracted from each grid
value, which is divided by |1 - z|^2; at z = 1 the quotient is its
limit, -1/2 Re sum_k k^2 g_k.  What remains is strictly positive, so
its log is smooth and the log-domain (Weiss) factorization applies:
keep the causal half of the log's Fourier series, exponentiate, and
truncate (Berntson and Sunderhauf, arXiv:2406.04246).  A defect with
no zero at z = 1, such as that of a polynomial with peak modulus below
1, is factored the same way without the division.  Multiplying back by
(1 - z) and reflecting the factor through the circle puts its roots in
the closed disc, so the partner keeps the full degree with an
order-one leading coefficient.  A defect below -1e-9 on the grid is
rejected before factoring; one that vanishes elsewhere on the circle
factors poorly and is rejected by the residual check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import ComplexPolynomial, _grid_size, eval_on_circle_grid

__all__ = [
    "TrigPolynomial",
    "CompletionResult",
    "CompletionError",
    "gram_polynomial",
    "factorize",
    "completion_residual",
]

DEFAULT_COMPLETION_TOL = 1e-10  # max grid residual a completion may reach
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
        """Real values at the m-th roots of unity: one real inverse FFT.

        Re sum_k g_k z^k is the real signal of the Hermitian half
        h_k = (g_k + conj(g_-k)) / 2, k >= 0, so rounding-level asymmetry drops out.
        """
        if m < len(self.laurent_coeffs):
            raise ValueError("grid too coarse for the stored order")
        g, d = self.as_array(), self.order
        return np.fft.irfft(0.5 * (g[d:] + np.conj(g[d::-1])), m, norm="forward")


@dataclass(frozen=True)
class CompletionResult:
    phi: ComplexPolynomial
    residual: float
    method: str = "weiss"  # the factorization route; there is one


def gram_polynomial(upsilon: ComplexPolynomial) -> TrigPolynomial:
    """Laurent coefficients of 1 - |upsilon|^2 on the unit circle.

    Nothing is sampled here; `factorize` rejects a modulus above 1.
    """
    c = upsilon.as_array()
    d = upsilon.degree
    auto = np.convolve(c, np.conj(c[::-1]))  # exponents -d..d of |upsilon|^2
    g = -auto
    g[d] += 1.0
    return TrigPolynomial(tuple(g))


def factorize(gram: TrigPolynomial) -> CompletionResult:
    """Polynomial of degree gram.order whose squared circle modulus is gram.

    The nonnegativity check (ValueError below -1e-9: a modulus above 1),
    the Weiss step and the residual check read one set of grid values.
    The leading coefficient is rotated real and nonnegative, pinning the
    free global phase.  Raises CompletionError, carrying the residual
    achieved, when it exceeds DEFAULT_COMPLETION_TOL (read at each call);
    a defect not positive off z = 1 ends there.
    """
    g = gram.as_array()
    d = gram.order
    m = _grid_size(d)
    vals = gram.values_on_grid(m)
    worst = float(vals.min())
    if worst < -_NONNEG_TOL:
        raise ValueError(f"modulus exceeds 1 on the circle (defect {worst:.3e})")
    scale = float(np.max(np.abs(g)))
    if scale == 0.0:
        phi = np.zeros(1, dtype=complex)
    elif d > 0 and abs(g.sum()) <= _ZERO_AT_ONE_TOL * scale:  # a double zero at z = 1
        phi = _weiss_factor(_divide_by_one_minus_z_squared(g, vals), d - 1)
        phi = np.convolve(phi, [1.0, -1.0])
    else:
        phi = _weiss_factor(vals, d)
    # the outer factor has its roots outside the disc and a leading
    # coefficient that can fall to rounding; its reflection keeps the
    # full degree
    phi = _fix_leading_phase(np.conj(phi[::-1]))
    residual = float(np.max(np.abs(np.abs(np.fft.ifft(phi, m, norm="forward")) ** 2 - vals)))
    if not residual <= DEFAULT_COMPLETION_TOL:
        raise CompletionError(
            f"residual {residual:.3e} exceeds tolerance {DEFAULT_COMPLETION_TOL:.3e}", residual
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


def _divide_by_one_minus_z_squared(g: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Grid values of g / |1 - z|^2 from g's values vals, for g with a double zero at z = 1.

    Off z = 1, the value there, sum(g), is pinned: it is subtracted
    before dividing by |1 - z_j|^2 = 4 sin^2(pi j / m), so that a
    rounding-sized g(1) does not swamp the quotient near 1.  At z = 1
    the quotient is its limit g''(0) / 2 = -1/2 Re sum_k k^2 g_k.
    """
    m = len(vals)
    k = np.arange(len(g)) - (len(g) - 1) // 2
    out = np.empty(m)
    out[0] = -0.5 * float(np.dot(k * k, g.real))
    out[1:] = (vals[1:] - g.sum().real) / (4.0 * np.sin(np.pi * np.arange(1, m) / m) ** 2)
    return out


def _weiss_factor(vals: np.ndarray, degree: int) -> np.ndarray:
    """Outer polynomial h of the given degree with |h|^2 = vals on the circle grid.

    Grid values at or below zero, which a factorable defect has only off
    the grid, are raised to the smallest positive one (at most 1) so the
    log stays finite; the residual check then reports how far that got.
    """
    m = len(vals)
    vals = np.maximum(vals, np.min(vals, where=vals > 0.0, initial=1.0))
    half = np.zeros(m, dtype=complex)
    half[: m // 2 + 1] = np.fft.rfft(np.log(vals), norm="forward")
    half[[0, m // 2]] *= 0.5
    return np.fft.fft(np.exp(np.fft.ifft(half, norm="forward")), norm="forward")[: degree + 1]


def _fix_leading_phase(phi: np.ndarray) -> np.ndarray:
    lead = phi[-1]
    if abs(lead) == 0.0:
        return phi
    return phi * (np.conj(lead) / abs(lead))

"""Shared helper: random complementary pairs on the unit circle."""

from __future__ import annotations

import numpy as np

from eigenreflect.completion import factorize, gram_polynomial
from eigenreflect.poly import ComplexPolynomial, eval_on_circle_grid


def random_complementary_pair(
    degree: int, seed: int, peak: float | None = None
) -> tuple[ComplexPolynomial, ComplexPolynomial]:
    """A random polynomial scaled strictly inside the unit circle, completed.

    peak sets the maximum circle modulus of the first polynomial; when
    omitted it is drawn from [0.2, 0.95] so the completion partner stays
    well conditioned.
    """
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    p = ComplexPolynomial(tuple(coeffs))
    m = max(16 * (2 * degree + 1), 64)
    scale = float(np.max(np.abs(eval_on_circle_grid(p, m))))
    target = float(rng.uniform(0.2, 0.95)) if peak is None else peak
    p = ComplexPolynomial(tuple(complex(target / scale) * c for c in p.coeffs))
    completion = factorize(gram_polynomial(p))
    return p, completion.phi


def padded(p: ComplexPolynomial, length: int) -> np.ndarray:
    """Coefficients extended with zeros to a fixed length."""
    out = np.zeros(length, dtype=complex)
    arr = p.as_array()
    out[: len(arr)] = arr
    return out

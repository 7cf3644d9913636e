"""Shared helpers: random complementary pairs on the unit circle, and walk mirrors."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from eigenreflect.circuit import AncillaRotation, CircuitIR, adjoint
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


# (delta, epsilon, plan degree) of the records the mirror tests synthesize
MIRROR_RECORDS = [(math.pi / 2, 1e-3, 21), (math.pi / 4, 1e-2, 35), (math.pi / 16, 1e-3, 189)]


def reference_mirror(head):
    # the adjoint of head's Z-mirror built gate by gate from public pieces,
    # for a plain tuple comparison
    negated = (replace(g, theta=-g.theta) if isinstance(g, AncillaRotation) else g for g in head)
    return adjoint(CircuitIR(tuple(negated), 0)).gates


def theta_negated(plus):
    """The minus branch: the plus angle sequence with every theta negated."""
    return replace(plus, thetas=tuple(-t for t in plus.thetas))

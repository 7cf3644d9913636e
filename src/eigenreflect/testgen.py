"""Seeded synthetic unitaries with a prescribed spectral gap.

Instances are built spectrum-first: the target phase is planted with
the requested multiplicity, every other phase is pushed outside the
exclusion arc with a safety margin, and the eigenbasis comes from a
seeded Gaussian matrix orthonormalized with the usual phase fix so the
result does not depend on LAPACK's sign choices.  Equal seeds give
bit-identical matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["GAP_MARGIN_FRACTION", "SpectrumSpec", "random_gapped_unitary"]

GAP_MARGIN_FRACTION = 0.05  # non-target phases stay this far beyond the arc


@dataclass(frozen=True)
class SpectrumSpec:
    dim: int
    delta: float
    theta: float = 0.0
    target_multiplicity: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if not 1 <= self.target_multiplicity <= self.dim:
            raise ValueError("target_multiplicity must be in [1, dim]")
        if not 0.0 < self.delta <= math.pi:
            raise ValueError(f"delta must lie in (0, pi], got {self.delta!r}")
        if math.isfinite(self.theta) and abs(self.theta) > math.pi:  # as GapSpec wraps it
            object.__setattr__(self, "theta", math.atan2(math.sin(self.theta), math.cos(self.theta)))


def random_gapped_unitary(spec: SpectrumSpec) -> np.ndarray:
    """U = V diag(e^{i phases}) V^dagger honoring the gap promise.

    Non-target phases are theta plus a sign times a uniform draw from
    [1.05 delta, pi], so their circular distance from theta clears the
    arc by the margin.  Raises when the margin pushes past pi and no
    legal phase remains.
    """
    rng = np.random.default_rng(spec.seed)
    extra = spec.dim - spec.target_multiplicity
    lo = (1.0 + GAP_MARGIN_FRACTION) * spec.delta
    if extra > 0:
        if lo > math.pi:
            raise ValueError(
                f"gap {spec.delta:.6g} leaves no room for non-target phases"
            )
        offsets = rng.uniform(lo, math.pi, size=extra)
        signs = rng.choice(np.array([-1.0, 1.0]), size=extra)
        others = np.angle(np.exp(1j * (spec.theta + signs * offsets)))
    else:
        # an empty draw would still validate lo <= pi, so skip it
        others = np.zeros(0)
    phases = np.concatenate([np.full(spec.target_multiplicity, spec.theta), others])

    raw = rng.normal(size=(spec.dim, spec.dim)) + 1j * rng.normal(
        size=(spec.dim, spec.dim)
    )
    q, r = np.linalg.qr(raw)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    q = q * (diag / np.abs(diag))
    return (q * np.exp(1j * phases)) @ q.conj().T

"""Dense realization of ancilla circuits and spectral-norm computation.

Operators are plain complex ndarrays.  The realized space is
(ancilla tensor system) with the ancilla as the leading factor, so a
(2 dim) x (2 dim) matrix splits into four dim x dim blocks indexed by
ancilla bra/ket.  The oracle gate touches the system only when the
ancilla is |1>, matching the shift convention of the angle synthesis.

Everything here is written for desk-scale verification (system dims up
to a few hundred): clarity over throughput, full matrices throughout.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .circuit import AncillaRotation, CircuitIR, ControlledOracle

__all__ = ["UNITARY_TOL", "realize", "pue_block", "spectral_norm"]

UNITARY_TOL = 1e-10


def _require_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("operator must be a square matrix")
    defect = spectral_norm(u.conj().T @ u - np.eye(u.shape[0]))
    if defect > UNITARY_TOL:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    return u


def _rotation_matrix(g: AncillaRotation) -> np.ndarray:
    c, s = math.cos(g.theta), math.sin(g.theta)
    el = cmath.exp(1j * g.lam)
    ep = cmath.exp(1j * g.phi)
    return np.array([[el * ep * c, ep * s], [el * s, -c]], dtype=complex)


def realize(c: CircuitIR, u: np.ndarray) -> np.ndarray:
    """Multiply out a circuit on ancilla-plus-system space.

    Gates listed first act first, so the returned matrix is the product
    of the gate matrices in reverse list order.
    """
    u = _require_unitary(u)
    dim = u.shape[0]
    total = np.eye(2 * dim, dtype=complex)
    eye = np.eye(dim, dtype=complex)
    zero = np.zeros((dim, dim), dtype=complex)
    for g in c.gates:
        if isinstance(g, AncillaRotation):
            step = np.kron(_rotation_matrix(g), eye)
        elif isinstance(g, ControlledOracle):
            body = u if g.exponent == 1 else u.conj().T
            body = cmath.exp(-1j * g.phase_shift) * body
            step = np.block([[eye, zero], [zero, body]])
        else:
            raise TypeError(f"unknown gate {g!r}")
        total = step @ total
    return total


def pue_block(w: np.ndarray, which: str = "top_left") -> np.ndarray:
    """The <a| w |0> sub-block for ancilla bra a in {0, 1}."""
    w = np.asarray(w, dtype=complex)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] % 2 != 0:
        raise ValueError("expected a square matrix of even dimension")
    half = w.shape[0] // 2
    if which == "top_left":
        return w[:half, :half]
    if which == "bottom_left":
        return w[half:, :half]
    raise ValueError(f"unknown block {which!r}")


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value, from the full singular-value decomposition."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    if min(a.shape) == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])

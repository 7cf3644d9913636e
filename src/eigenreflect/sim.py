"""Realization of ancilla circuits and spectral-norm computation.

Operators are plain complex ndarrays.  The realized space is
(ancilla tensor system) with the ancilla as the leading factor, so a
(2 dim) x (2 dim) matrix splits into four dim x dim blocks indexed by
ancilla bra/ket.  The oracle gate touches the system only when the
ancilla is |1>, matching the shift convention of the angle synthesis.

`realize` reads the circuit once, building every rotation's 2 x 2
matrix into one stacked array and each oracle body, exp(-i phase_shift)
U or its adjoint, once per (exponent, phase_shift).  It keeps the
running product, which starts from the identity, as one 2 x (2 dim^2)
array: the row blocks of ancilla bra <0| and <1|, each read flat,
stacked.  A rotation is one 2 x 2 product over the stacked rows,
O(dim^2); an oracle gate multiplies the <1| block, viewed as
dim x 2 dim, by its body in place, one dim x dim by dim x 2 dim product.
U is used only through such products, never diagonalized: the
eigenbasis belongs to the oracle path (`oracle.decompose`), and the
circuit check must not lean on the computation it is compared with.
Verify never multiplies a reflection's composite out: it reads it off
the plus walk's blocks (`oracle.verify_reflection`).
Written for desk-scale verification, system dims up to 1024 (the CLI's
MAX_DIM).
"""

from __future__ import annotations

import cmath

import numpy as np

from .circuit import AncillaRotation, CircuitIR, ControlledOracle

__all__ = ["UNITARY_TOL", "realize", "pue_block", "spectral_norm"]

UNITARY_TOL = 1e-10


def _require_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("operator must be a square matrix")
    defect = _gram_defect(u)
    if defect > UNITARY_TOL:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    return u


def realize(c: CircuitIR, u: np.ndarray) -> np.ndarray:
    """Multiply out a circuit on ancilla-plus-system space.

    Gates listed first act first, so the returned matrix is the product
    of the gate matrices in reverse list order.
    """
    return _apply_gates(c, _require_unitary(u))


def _apply_gates(c: CircuitIR, u: np.ndarray) -> np.ndarray:
    """`realize` for a u already checked unitary (a complex ndarray)."""
    dim = u.shape[0]
    rows = np.eye(2 * dim, dtype=complex).reshape(2, 2 * dim * dim)  # <0| and <1| blocks, flat
    angles: list[tuple[float, float, float]] = []
    steps: list[int | np.ndarray] = []  # a rotation's index in `angles`, or an oracle body
    bodies: dict[tuple[int, float], np.ndarray] = {}
    for g in c.gates:
        if isinstance(g, AncillaRotation):
            steps.append(len(angles))
            angles.append((g.theta, g.phi, g.lam))
        elif isinstance(g, ControlledOracle):
            key = (g.exponent, g.phase_shift)
            if key not in bodies:
                power = u if g.exponent == 1 else u.conj().T
                bodies[key] = cmath.exp(-1j * g.phase_shift) * power
            steps.append(bodies[key])
        else:
            raise TypeError(f"unknown gate {g!r}")
    theta, phi, lam = np.array(angles, dtype=float).reshape(-1, 3).T
    cos, sin = np.cos(theta), np.sin(theta)
    el, ep = np.exp(1j * lam), np.exp(1j * phi)
    mats = np.stack((el * ep * cos, ep * sin, el * sin, -cos), axis=-1).reshape(-1, 2, 2)
    for step in steps:
        if isinstance(step, int):
            rows = mats[step] @ rows
        else:
            bottom = rows[1].reshape(dim, 2 * dim)
            bottom[...] = step @ bottom
    return rows.reshape(2 * dim, 2 * dim)


def pue_block(w: np.ndarray) -> np.ndarray:
    """The <0| w |0> sub-block, the block a walk encodes its polynomial in."""
    w = np.asarray(w, dtype=complex)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] % 2 != 0:
        raise ValueError("expected a square matrix of even dimension")
    half = w.shape[0] // 2
    return w[:half, :half]


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value, from the full singular-value decomposition."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    if min(a.shape) == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _gram_defect(w: np.ndarray) -> float:
    """||w^dagger w - I||, the spectral norm of a Hermitian matrix: its largest |eigenvalue|."""
    if w.size == 0:
        return 0.0
    g = w.conj().T @ w
    g.flat[:: g.shape[0] + 1] -= 1.0
    return float(np.abs(np.linalg.eigvalsh(g)).max())

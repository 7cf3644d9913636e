"""Realization of ancilla circuits and spectral-norm computation.

Operators are plain complex ndarrays.  The realized space is
(ancilla tensor system) with the ancilla as the leading factor, so a
(2 dim) x (2 dim) matrix splits into four dim x dim blocks indexed by
ancilla bra/ket.  The oracle gate touches the system only when the
ancilla is |1>, matching the shift convention of the angle synthesis.

A run of gates whose oracles share one exponent e is the 2 x 2 matrix
polynomial sum_k C_k (x) U**(e k), with C_k from
`circuit.walk_coefficients`.  `realize` cuts the gate list where the
oracle exponent changes, evaluates each run in U or U^dagger by
Paterson-Stockmeyer (`_evaluate_walk`) and multiplies the runs in
order.  U is used only through products, never diagonalized: the
eigenbasis belongs to the oracle path (`oracle.decompose`), and the
circuit check must not lean on the computation it is compared with.
Verify evaluates only the plus walk, from the record's coefficients, and
reads the composite off its blocks (`oracle.verify_reflection`).
Written for desk-scale verification, system dims up to 1024 (the CLI's
MAX_DIM).
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import CircuitIR, ControlledOracle, Gate, walk_coefficients

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
    u = _require_unitary(u)
    w = None
    for run, exponent in _runs(c.gates):
        w_run = _evaluate_walk(walk_coefficients(run), u if exponent != -1 else u.conj().T)
        w = w_run if w is None else w_run @ w
    return w


def _runs(gates: tuple[Gate, ...]):
    """(run, exponent) pairs, cut before each oracle whose exponent differs from the last one's."""
    start, exponent = 0, None
    for i, g in enumerate(gates):
        if isinstance(g, ControlledOracle):
            if exponent not in (None, g.exponent):
                yield gates[start:i], exponent
                start = i
            exponent = g.exponent
    yield gates[start:], exponent


def _evaluate_walk(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k C_k (x) x**k for coeffs[k] = C_k, k <= m, by Paterson-Stockmeyer.

    x, ..., x**s are formed once, s = ceil(sqrt(m + 1)); Horner in x**s runs
    over the chunks B_q = sum_{l < s} C_{qs+l} (x) x**l, W <- W (I (x) x**s) + B_q,
    in W itself, one dim x 2 dim ancilla row block at a time.  About
    (s + 4 (m + 1) / s) dim^3 multiplications against 2 m dim^3 gate by gate
    (Paterson and Stockmeyer, SIAM J. Comput. 2, 60 (1973); Higham, Functions of
    Matrices (2008), 4.2).
    """
    dim, s = x.shape[0], math.isqrt(len(coeffs) - 1) + 1
    chunks = np.concatenate([coeffs, np.zeros((-len(coeffs) % s, 2, 2))]).reshape(-1, s, 2, 2)
    powers = np.empty((dim, s, dim), dtype=complex)  # powers[:, l] = x**(l + 1)
    powers[:, 0] = x
    for l in range(1, s):
        np.matmul(powers[:, l - 1], x, out=powers[:, l])
    w = np.empty((2 * dim, 2 * dim), dtype=complex)
    step = np.zeros((2 * dim, dim), dtype=complex)  # a row block times x**s; none before B_last
    diag = np.arange(dim)
    for q in range(len(chunks) - 1, -1, -1):
        for a in range(2):
            rows = w[a * dim : (a + 1) * dim]  # ancilla bra <a|, as [i, b, j]
            if q < len(chunks) - 1:  # before B_q overwrites the rows
                np.matmul(rows.reshape(2 * dim, dim), powers[:, -1], out=step)
            np.matmul(chunks[q, 1:, a].T, powers[:, :-1], out=rows.reshape(dim, 2, dim))
            rows += step.reshape(dim, 2 * dim)
        w.reshape(2, dim, 2, dim)[:, diag, :, diag] += chunks[q, 0]
    return w


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

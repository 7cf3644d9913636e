"""Realization of ancilla circuits, the unitarity check and Gram defects.

Operators are plain complex ndarrays.  The realized space is
(ancilla tensor system) with the ancilla as the leading factor, so a
(2 dim) x (2 dim) matrix splits into four dim x dim blocks indexed by
ancilla bra/ket.  The oracle gate touches the system only when the
ancilla is |1>, matching the shift convention of the angle synthesis.

A run of gates whose oracles share one exponent e is the 2 x 2 matrix
polynomial sum_k C_k (x) U**(e k), C_k from a product tree
(`circuit.walk_coefficients`).  `realize` cuts the gate list where the
oracle exponent changes, evaluates both block columns of each run in U or
U^dagger by Paterson-Stockmeyer (`_evaluate_walk`, a column a call) and
multiplies the runs in order.  U is used only through products, never diagonalized: the
eigenbasis belongs to the oracle path (`oracle.decompose`), and the
circuit check must not lean on the computation it is compared with.
Verify evaluates only the plus walk's first column (`plus_coefficients`), which fixes
the second, for a whole stack at once, and reads the composite off its blocks
(`oracle.verify_stack`).  Gram defects are Frobenius norms, never below the spectral norm.
Written for desk-scale verification, system dims up to 1024 (the CLI's
MAX_DIM).
"""

from __future__ import annotations

import numpy as np

from .circuit import CircuitIR, ControlledOracle, Gate, walk_coefficients

__all__ = ["UNITARY_TOL", "realize"]

UNITARY_TOL = 1e-10


def _require_unitary(u: np.ndarray) -> np.ndarray:
    """u as complex if each ||u^dagger u - I||_2 <= UNITARY_TOL; a Frobenius one within accepts."""
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        raise ValueError("operator must be a square matrix")
    defect = _gram_defect(u) if np.isfinite(u).all() else np.inf  # no Gram of inf or nan
    if not defect <= UNITARY_TOL and np.isfinite(defect):
        defect = _gram_defect(u, 2)
    if not defect <= UNITARY_TOL:  # written so that a nan defect fails the check too
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    return u


def realize(c: CircuitIR, u: np.ndarray) -> np.ndarray:
    """Multiply out a circuit on ancilla-plus-system space.

    Gates listed first act first, so the returned matrix is the product
    of the gate matrices in reverse list order, each run's block columns evaluated apart.
    """
    u = _require_unitary(u)
    w = None
    for run, exponent in _runs(c.gates):
        x = u if exponent != -1 else u.conj().swapaxes(-1, -2)
        coeffs = walk_coefficients(run)
        w_run = np.concatenate([_evaluate_walk(coeffs[:, :, b], x) for b in range(2)], axis=-1)
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
    """sum_k c_k (x) x**k for coeffs[k] = c_k in C^2, k <= m, by Paterson-Stockmeyer, for a stack x.

    x is (..., dim, dim); the block column [A; B] comes back, (..., 2 dim, dim).  x, ..., x**s
    are formed once, s - 1 products; Horner in x**s over the chunks B_q = sum_{l < s} c_{qs+l}
    (x) x**l, W <- W x**s + B_q, runs in W through the buffer `step`, 2 dim^3 a step, B_q one
    (2 x (s - 1)) by ((s - 1) x dim^2) GEMM an instance: (s + 4) dim^2 entries an instance in all.
    `_split` picks s for the fewest dim^3: 14 at m = 35 against 2 m = 70 gate by gate (Paterson
    and Stockmeyer, SIAM J. Comput. 2, 60 (1973); Higham, Functions of Matrices (2008), 4.2).
    """
    lead, dim, s = x.shape[:-2], x.shape[-1], _split(len(coeffs))
    x = x.reshape(-1, dim, dim)
    chunks = np.concatenate([coeffs, np.zeros((-len(coeffs) % s, 2))]).reshape(-1, s, 2)
    w = np.empty((len(x), 2 * dim, dim), dtype=complex)  # [instance, (a, i), j]
    powers = np.empty((s, len(x), dim, dim), dtype=complex)  # powers[l] = x**(l + 1)
    powers[0] = x
    for l in range(1, s):
        np.matmul(powers[l - 1], x, out=powers[l])
    baby = powers[:-1].reshape(s - 1, len(x), dim * dim).transpose(1, 0, 2)
    step = np.zeros_like(w)  # W times x**s, 0 before B_last
    for q in range(len(chunks) - 1, -1, -1):
        if q < len(chunks) - 1:  # before B_q overwrites W
            np.matmul(w, powers[-1], out=step)
        np.matmul(chunks[q, 1:].T, baby, out=w.reshape(len(x), 2, dim * dim))
        w += step
        w.reshape(len(x), 2, dim * dim)[..., :: dim + 1] += chunks[q, 0][:, None]
    return w.reshape(*lead, 2 * dim, dim)


def _split(count: int) -> int:
    """The s with the fewest products (s - 1) + 2 (ceil(count / s) - 1) for count coefficients."""
    return min(range(1, count + 1), key=lambda s: s - 1 + 2 * (-(-count // s) - 1))


def _gram_defect(w: np.ndarray, ord: str | int = "fro") -> float:
    """The largest ||w^dagger w - I|| of a stack, Frobenius or spectral (ord=2), never above it."""
    if w.size == 0:
        return 0.0
    g = w.conj().swapaxes(-1, -2) @ w
    g.reshape(-1, g.shape[-1] ** 2)[:, :: g.shape[-1] + 1] -= 1.0
    return max(float(np.linalg.norm(x, ord)) for x in g.reshape(-1, *g.shape[-2:]))

"""Realization of ancilla circuits and spectral-norm computation.

Operators are plain complex ndarrays.  The realized space is
(ancilla tensor system) with the ancilla as the leading factor, so a
(2 dim) x (2 dim) matrix splits into four dim x dim blocks indexed by
ancilla bra/ket.  The oracle gate touches the system only when the
ancilla is |1>, matching the shift convention of the angle synthesis.

A run of gates whose oracles share one exponent e is the 2 x 2 matrix
polynomial sum_k C_k (x) U**(e k), C_k from a product tree
(`circuit.walk_coefficients`).  `realize` cuts the gate list where the
oracle exponent changes, evaluates each run in U or U^dagger by
Paterson-Stockmeyer (`_evaluate_walk`) and multiplies the runs in
order.  U is used only through products, never diagonalized: the
eigenbasis belongs to the oracle path (`oracle.decompose`), and the
circuit check must not lean on the computation it is compared with.
Verify evaluates only the plus walk (`plus_coefficients`), for a whole
stack at once, and reads the composite off its blocks (`oracle.verify_stack`).  Gram
defects are Frobenius norms, never below the spectral norm, and need no solve.
Written for desk-scale verification, system dims up to 1024 (the CLI's
MAX_DIM).
"""

from __future__ import annotations

import numpy as np

from .circuit import CircuitIR, ControlledOracle, Gate, walk_coefficients

__all__ = ["UNITARY_TOL", "realize", "pue_block", "spectral_norm"]

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
    of the gate matrices in reverse list order.
    """
    u = _require_unitary(u)
    w = None
    for run, exponent in _runs(c.gates):
        x = u if exponent != -1 else u.conj().swapaxes(-1, -2)
        w_run = np.concatenate(_evaluate_walk(walk_coefficients(run), x), axis=-1)
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
    """sum_k C_k (x) x**k for coeffs[k] = C_k, k <= m, by Paterson-Stockmeyer, for a stack x.

    x is (..., dim, dim); W comes back as its block columns (2, ..., 2 dim, dim), the first
    [A; B].  x, ..., x**s are formed once, s - 1 products, s dim^2 entries an instance; Horner
    in x**s runs over the chunks B_q = sum_{l < s} C_{qs+l} (x) x**l, W <- W (I (x) x**s) + B_q,
    in W itself, a column at a time through the buffer `step`, 4 dim^3 multiplications a step;
    each column's B_q is one (2 x (s - 1)) by ((s - 1) x dim^2) GEMM an instance.  `_split`
    picks s for the fewest dim^3: 14 at m = 21 against 2 m = 42 gate by gate (Paterson and
    Stockmeyer, SIAM J. Comput. 2, 60 (1973); Higham, Functions of Matrices (2008), 4.2).
    """
    lead, dim, s = x.shape[:-2], x.shape[-1], _split(len(coeffs))
    x = x.reshape(-1, dim, dim)
    chunks = np.concatenate([coeffs, np.zeros((-len(coeffs) % s, 2, 2))]).reshape(-1, s, 2, 2)
    w = np.empty((2, len(x), 2 * dim, dim), dtype=complex)  # [ancilla ket b, instance, (a, i), j]
    powers = np.empty((s, len(x), dim, dim), dtype=complex)  # powers[l] = x**(l + 1)
    powers[0] = x
    for l in range(1, s):
        np.matmul(powers[l - 1], x, out=powers[l])
    baby = powers[:-1].reshape(s - 1, len(x), dim * dim).transpose(1, 0, 2)
    step = np.zeros((len(x), 2 * dim, dim), dtype=complex)  # a column times x**s, 0 before B_last
    for q in range(len(chunks) - 1, -1, -1):
        for b in range(2):
            if q < len(chunks) - 1:  # before B_q overwrites the column
                np.matmul(w[b], powers[-1], out=step)
            np.matmul(chunks[q, 1:, :, b].T, baby, out=w[b].reshape(len(x), 2, dim * dim))
            w[b] += step
        w.reshape(2, len(x), 2, dim * dim)[..., :: dim + 1] += chunks[q, 0].T[:, None, :, None]
    return w.reshape(2, *lead, 2 * dim, dim)


def _split(count: int) -> int:
    """The s with the fewest products (s - 1) + 4 (ceil(count / s) - 1) for count coefficients."""
    return min(range(1, count + 1), key=lambda s: s - 1 + 4 * (-(-count // s) - 1))


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


def _gram_defect(w: np.ndarray, ord: str | int = "fro") -> float:
    """The largest ||w^dagger w - I|| of a stack, Frobenius or spectral (ord=2), never above it."""
    if w.size == 0:
        return 0.0
    g = w.conj().swapaxes(-1, -2) @ w
    g.reshape(-1, g.shape[-1] ** 2)[:, :: g.shape[-1] + 1] -= 1.0
    return max(float(np.linalg.norm(x, ord)) for x in g.reshape(-1, *g.shape[-2:]))

"""Seeded inputs for the four benchmark workloads.

Everything here is plain Python and NumPy: the orchestrator builds the
inputs without importing the program, hands them to a worker process as
JSON, and later checks the worker's outputs against them.  The seed
chooses target phases, generator seeds and polynomial coefficients; the
shape of the work (plans, dimensions, degrees, row counts) is fixed per
workload, so every seed asks for the same amount of computation.
synth-ladder has no random input at all: a plan's synthesis depends
only on (delta, epsilon, theta).
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("synth-ladder", "sweep-reuse", "verify-wide", "pair-roundtrip")

# (delta, epsilon) ladder: degrees 35, 49, 65, 91, 135, 189, 275, 385
SYNTH_LADDER = tuple(
    (math.pi / k, eps) for k in (4, 8, 16, 32) for eps in (1e-2, 1e-3)
)
SYNTH_THETA = 0.5
# Plans whose completion partner loses its top coefficients to the
# program's 1e-14 trailing-coefficient trim: their angles rebuild the
# kernel only to 1e-8 .. 3e-7, so their circuits miss 2|Upsilon|^2 - 1
# by up to 2e-6 on every run.  Their synths count as failed operations;
# any other check failure still marks the run incorrect.
SYNTH_KNOWN_INACCURATE = frozenset(
    [(math.pi / 8, 1e-3), (math.pi / 16, 1e-3), (math.pi / 32, 1e-2), (math.pi / 32, 1e-3)]
)

# degrees 35, 50, 65, 85, 100, 135: the epsilon = 1e-2 plans free of the
# trim fault above (degree 189 and every epsilon = 1e-3 plan past degree 90
# have it, and there it moves measured_error by a seed-dependent amount);
# three seeds per plan and dimension, so each plan is verified on six rows
SWEEP_DELTAS = tuple(math.pi / k for k in (4, 6, 8, 10, 12, 16))
SWEEP_EPSILONS = (1e-2,)
SWEEP_DIMS = (4, 16)
SWEEP_SEEDS_PER_PLAN = 3

# (delta, epsilon, dim, multiplicity, nonzero theta): degrees 21-35 at
# dims 96-128; 2 dim stays <= 256, where spectral_norm uses the SVD
VERIFY_WIDE = (
    (math.pi / 2, 1e-3, 128, 1, False),
    (math.pi / 3, 1e-2, 96, 3, True),
    (math.pi / 4, 1e-2, 128, 3, False),
    (math.pi / 3, 1e-3, 112, 1, True),
    (math.pi / 2, 1e-3, 96, 3, True),
    (math.pi / 4, 1e-2, 96, 1, True),
)

PAIR_DEGREES = (50, 75, 100, 125, 150, 175, 200)
PAIR_PEAK = 0.95


def make_inputs(workload: str, seed: int) -> dict:
    """JSON-ready inputs of one round of a workload; equal seeds, equal inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "synth-ladder":
        return {
            "plans": [
                {
                    "delta": d,
                    "epsilon": e,
                    "theta": SYNTH_THETA,
                    "known_inaccurate": (d, e) in SYNTH_KNOWN_INACCURATE,
                }
                for d, e in SYNTH_LADDER
            ]
        }
    if workload == "sweep-reuse":
        return {
            "deltas": list(SWEEP_DELTAS),
            "epsilons": list(SWEEP_EPSILONS),
            "dims": list(SWEEP_DIMS),
            "seeds": _distinct_seeds(rng, SWEEP_SEEDS_PER_PLAN),
        }
    if workload == "verify-wide":
        seeds = _distinct_seeds(rng, len(VERIFY_WIDE))
        return {
            "instances": [
                {
                    "delta": d,
                    "epsilon": e,
                    "theta": _phase(rng) if shifted else 0.0,
                    "dim": dim,
                    "multiplicity": mult,
                    "seed": s,
                }
                for (d, e, dim, mult, shifted), s in zip(VERIFY_WIDE, seeds)
            ]
        }
    if workload == "pair-roundtrip":
        return {"polys": [_encode(random_polynomial(rng, d)) for d in PAIR_DEGREES]}
    raise ValueError(f"unknown workload {workload!r}")


def operations(workload: str, inputs: dict) -> int:
    """Operations one round attempts: synths, sweep rows, verifies, round trips."""
    if workload == "synth-ladder":
        return len(inputs["plans"])
    if workload == "sweep-reuse":
        return len(sweep_keys(inputs))
    if workload == "verify-wide":
        return len(inputs["instances"])
    return len(inputs["polys"])


def sweep_keys(inputs: dict) -> list[tuple[float, float, int, int]]:
    """(delta, epsilon, dim, seed) of every row the sweep must write, in order."""
    return [
        (d, e, dim, s)
        for d in inputs["deltas"]
        for e in inputs["epsilons"]
        for dim in inputs["dims"]
        for s in inputs["seeds"]
    ]


def random_polynomial(rng: np.random.Generator, degree: int) -> np.ndarray:
    """Gaussian complex coefficients scaled to peak modulus 0.95 on a dense grid.

    The grid has 16 (2 degree + 1) points, so the true circle maximum
    exceeds the sampled one by well under 1%: the defect 1 - |p|^2 stays
    above 0.09 and has no zero on the circle.
    """
    coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    peak = float(np.max(np.abs(np.fft.fft(coeffs, 16 * (2 * degree + 1)))))
    return coeffs * (PAIR_PEAK / peak)


def decode(pairs: list) -> np.ndarray:
    """Complex coefficients from [re, im] pairs, as inputs and outputs store them."""
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


def _encode(coeffs: np.ndarray) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in coeffs]


def _phase(rng: np.random.Generator) -> float:
    return float(rng.uniform(-math.pi, math.pi))


def _distinct_seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.choice(2**31, size=count, replace=False)]

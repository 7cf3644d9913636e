"""Command-line front end: plan, synth, verify, sweep.

This module owns every on-disk format: the plan/report/circuit/angle
JSON schemas, the matrix file layout, and the sweep CSV.  All floats
are rendered with 17 significant digits so files round-trip exactly,
dictionary key order is fixed by construction, and every write is
whole-file atomic (temp file in the target directory, then rename).
Given the same config and seed, outputs are byte-identical.

Exit codes: 0 success (verify: bound met), 1 verify ran but the bound
was violated (sweep: on some row), 2 configuration or input error,
3 completion failure, 4 gap violation, 5 target phase absent from the
spectrum, 6 sweep rows that failed to run (their result cells are empty).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .circuit import (
    AncillaRotation,
    CircuitIR,
    ControlledOracle,
    GateCounts,
    Synthesis,
    predicted_counts,
    synthesize,
)
from .completion import CompletionError
from .gqsp import ROTATION_CONVENTION, GQSPAngleSequence
from .oracle import GapViolation, TargetAbsent, VerificationReport, verify_reflection
from .poly import (
    DEFAULT_OVERSAMPLE,
    GapSpec,
    ReflectionPlan,
    build_upsilon,
    max_modulus_outside_gap,
    select_parameters,
)
from .testgen import SpectrumSpec, random_gapped_unitary

__all__ = [
    "EXIT_OK",
    "EXIT_BOUND_VIOLATED",
    "EXIT_CONFIG",
    "EXIT_COMPLETION",
    "EXIT_GAP_VIOLATION",
    "EXIT_TARGET_ABSENT",
    "EXIT_SWEEP_ROWS_FAILED",
    "JobConfig",
    "load_matrix",
    "save_matrix",
    "cmd_plan",
    "cmd_synth",
    "cmd_verify",
    "cmd_sweep",
    "main",
]

EXIT_OK = 0
EXIT_BOUND_VIOLATED = 1
EXIT_CONFIG = 2
EXIT_COMPLETION = 3
EXIT_GAP_VIOLATION = 4
EXIT_TARGET_ABSENT = 5
EXIT_SWEEP_ROWS_FAILED = 6

DEFAULT_COMPLETION_TOL = 1e-10

_SWEEP_COLUMNS = (
    "delta",
    "epsilon",
    "dim",
    "seed",
    "t",
    "n",
    "degree",
    "measured_error",
    "bound",
    "satisfied",
    "completion_residual",
    "wall_time_ms",
)


@dataclass(frozen=True)
class JobConfig:
    """Everything a subcommand needs, after flag/config-file merging."""

    command: str
    gap: GapSpec | None = None
    matrix_path: str | None = None
    spectrum: SpectrumSpec | None = None
    out: str | None = None
    circuit_out: str | None = None
    angles_out: str | None = None
    csv_out: str | None = None
    theta: float = 0.0  # sweep rows' target phase; the other commands read gap
    use_paper_t_formula: bool = False
    oversample: int = DEFAULT_OVERSAMPLE
    completion_tol: float = DEFAULT_COMPLETION_TOL
    deltas: tuple[float, ...] = ()
    epsilons: tuple[float, ...] = ()
    dims: tuple[int, ...] = ()
    seeds: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.matrix_path is not None and self.spectrum is not None:
            raise ValueError(
                "exactly one input source: a matrix file or spectrum parameters"
            )


# ---------------------------------------------------------------- rendering


def _render_scalar(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isnan(f) or math.isinf(f):
            return json.dumps(str(f))  # JSON has no literal for these
        return format(f, ".17g")
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"cannot render {type(v).__name__} as JSON")


def _render_json(v: Any, indent: int = 0) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(v, dict):
        if not v:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(k))}: {_render_json(val, indent + 2)}"
            for k, val in v.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        rows = [f"{inner}{_render_json(x, indent + 2)}" for x in v]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    return _render_scalar(v)


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".eigenreflect-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        _write_atomic(path, text)


# ---------------------------------------------------------------- matrix io


def load_matrix(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    dim = int(data["dim"])
    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data["im"], dtype=float)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(f"matrix file {path!r}: shapes do not match dim={dim}")
    return re + 1j * im


def save_matrix(path: str, u: np.ndarray) -> None:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("expected a square matrix")
    payload = {
        "dim": int(u.shape[0]),
        "re": [[float(x) for x in row] for row in u.real],
        "im": [[float(x) for x in row] for row in u.imag],
    }
    _write_atomic(path, _render_json(payload) + "\n")


# ---------------------------------------------------------------- payloads


def _counts_payload(counts: GateCounts) -> dict[str, int]:
    return {
        "controlled_u": counts.controlled_u,
        "controlled_u_dagger": counts.controlled_u_dagger,
        "single_qubit_rotations": counts.single_qubit_rotations,
        "total": counts.total,
    }


def _plan_payload(plan: ReflectionPlan, t_formula: str) -> dict[str, Any]:
    return {
        "delta": plan.gap.delta,
        "epsilon": plan.gap.epsilon,
        "theta": plan.gap.theta,
        "t": plan.t,
        "n": plan.n,
        "degree": plan.degree,
        "counts": _counts_payload(predicted_counts(plan)),
        "t_formula": t_formula,
    }


def _gate_payload(gate: AncillaRotation | ControlledOracle) -> dict[str, Any]:
    if isinstance(gate, AncillaRotation):
        return {"g": "rot", "theta": gate.theta, "phi": gate.phi, "lambda": gate.lam}
    return {
        "g": "cu" if gate.exponent == 1 else "cu_dag",
        "phase": gate.phase_shift,
    }


def _circuit_payload(circ: CircuitIR) -> dict[str, Any]:
    return {
        "degree": circ.declared_degree,
        "gates": [_gate_payload(g) for g in circ.gates],
        "ancilla_count": 1,
    }


def _branch_payload(seq: GQSPAngleSequence) -> dict[str, Any]:
    return {
        "thetas": list(seq.thetas),
        "phis": list(seq.phis),
        "lambda": seq.lambda_final,
        "degenerate_steps": list(seq.degenerate_steps),
    }


def _angles_payload(syn: Synthesis) -> dict[str, Any]:
    plus, minus = syn.branches
    return {
        "degree": syn.plan.degree,
        "convention": ROTATION_CONVENTION,
        "plus": _branch_payload(plus),
        "minus": _branch_payload(minus),
    }


def _report_payload(report: VerificationReport, t_formula: str) -> dict[str, Any]:
    return {
        "measured_error": report.measured_error,
        "bound": report.bound,
        "bound_satisfied": report.bound_satisfied,
        "counts": _counts_payload(report.counts),
        "predicted_counts": _counts_payload(report.predicted_counts),
        "completion_residual": report.completion_residual,
        "unitarity_residual": report.unitarity_residual,
        "branch_unitarity_residual": report.branch_unitarity_residual,
        "oracle_block_residual": report.oracle_block_residual,
        "target_multiplicity": report.target_multiplicity,
        "params": _plan_payload(report.params, t_formula),
    }


def _kernel_summary(gap: GapSpec, use_paper: bool, oversample: int) -> dict[str, Any]:
    plan = select_parameters(gap, use_paper_t_formula=use_paper)
    upsilon = build_upsilon(plan.t, plan.n)
    peak = max_modulus_outside_gap(upsilon, gap.delta, oversample=oversample)
    return {
        "t": plan.t,
        "n": plan.n,
        "degree": plan.degree,
        "max_modulus_outside_gap": peak,
        "within_epsilon": bool(peak <= gap.epsilon),
    }


def _formula_name(use_paper: bool) -> str:
    return "paper" if use_paper else "corrected"


# ---------------------------------------------------------------- commands


def cmd_plan(cfg: JobConfig) -> int:
    assert cfg.gap is not None
    plan = select_parameters(cfg.gap, use_paper_t_formula=cfg.use_paper_t_formula)
    payload = _plan_payload(plan, _formula_name(cfg.use_paper_t_formula))
    _emit(cfg.out, _render_json(payload) + "\n")
    return EXIT_OK


def cmd_synth(cfg: JobConfig) -> int:
    assert cfg.gap is not None
    syn = synthesize(
        cfg.gap, use_paper_t_formula=cfg.use_paper_t_formula, completion_tol=cfg.completion_tol
    )
    _emit(cfg.circuit_out or "circuit.json", _render_json(_circuit_payload(syn.circuit)) + "\n")
    _emit(cfg.angles_out or "angles.json", _render_json(_angles_payload(syn)) + "\n")
    return EXIT_OK


def cmd_verify(cfg: JobConfig) -> int:
    assert cfg.gap is not None
    if cfg.matrix_path is not None:
        u = load_matrix(cfg.matrix_path)
    elif cfg.spectrum is not None:
        u = random_gapped_unitary(cfg.spectrum)
    else:
        raise ValueError("verify needs a --matrix file or --dim/--seed parameters")
    syn = synthesize(
        cfg.gap, use_paper_t_formula=cfg.use_paper_t_formula, completion_tol=cfg.completion_tol
    )
    report = verify_reflection(u, syn)
    payload = _report_payload(report, _formula_name(cfg.use_paper_t_formula))
    if cfg.use_paper_t_formula:
        # discrepancy experiment: record the kernel quality under both
        # parameter choices side by side
        payload["t_formula_comparison"] = {
            "corrected": _kernel_summary(cfg.gap, False, cfg.oversample),
            "paper": _kernel_summary(cfg.gap, True, cfg.oversample),
        }
    _emit(cfg.out, _render_json(payload) + "\n")
    return EXIT_OK if report.bound_satisfied else EXIT_BOUND_VIOLATED


def cmd_sweep(cfg: JobConfig) -> int:
    buffer = io.StringIO()
    buffer.write(",".join(_SWEEP_COLUMNS) + "\n")
    cache: dict[tuple[float, float], Synthesis] = {}
    failed = violated = 0
    for delta in cfg.deltas:
        for epsilon in cfg.epsilons:
            for dim in cfg.dims:
                for seed in cfg.seeds:
                    row = _sweep_row(cfg, delta, epsilon, dim, seed, cache)
                    buffer.write(",".join(row[name] for name in _SWEEP_COLUMNS) + "\n")
                    failed += row["measured_error"] == ""
                    violated += row["satisfied"] != "true"
    text = buffer.getvalue()
    if cfg.csv_out is None or cfg.csv_out == "-":
        sys.stdout.write(text)
    else:
        _write_atomic(cfg.csv_out, text)
    if failed:
        print(f"sweep: {failed} row(s) failed to run", file=sys.stderr)
        return EXIT_SWEEP_ROWS_FAILED
    return EXIT_BOUND_VIOLATED if violated else EXIT_OK


def _sweep_row(
    cfg: JobConfig,
    delta: float,
    epsilon: float,
    dim: int,
    seed: int,
    cache: dict[tuple[float, float], Synthesis],
) -> dict[str, str]:
    start = time.perf_counter()

    def num(v: float) -> str:
        return format(float(v), ".17g")

    cells = {name: "" for name in _SWEEP_COLUMNS}
    cells["delta"] = num(delta)
    cells["epsilon"] = num(epsilon)
    cells["dim"] = str(dim)
    cells["seed"] = str(seed)
    cells["satisfied"] = "false"
    try:
        key = (delta, epsilon)
        if key not in cache:
            gap = GapSpec(delta=delta, epsilon=epsilon, theta=cfg.theta)
            cache[key] = synthesize(
                gap, use_paper_t_formula=cfg.use_paper_t_formula, completion_tol=cfg.completion_tol
            )
        syn = cache[key]
        cells["t"] = str(syn.plan.t)
        cells["n"] = str(syn.plan.n)
        cells["degree"] = str(syn.plan.degree)
        spec = SpectrumSpec(
            dim=dim, delta=delta, theta=cfg.theta, target_multiplicity=1, seed=seed
        )
        report = verify_reflection(random_gapped_unitary(spec), syn)
        cells["measured_error"] = num(report.measured_error)
        cells["bound"] = num(report.bound)
        cells["satisfied"] = "true" if report.bound_satisfied else "false"
        cells["completion_residual"] = num(report.completion_residual)
    except (ValueError, CompletionError, GapViolation, TargetAbsent) as exc:
        print(
            f"sweep: delta={delta:.6g} epsilon={epsilon:.6g} dim={dim} "
            f"seed={seed} failed: {exc}",
            file=sys.stderr,
        )
    cells["wall_time_ms"] = num((time.perf_counter() - start) * 1e3)
    return cells


# ---------------------------------------------------------------- arguments


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file supplying defaults for any flag")
    p.add_argument("--delta", type=float, default=None, help="gap half-width, radians")
    p.add_argument("--epsilon", type=float, default=None, help="error budget in (0,1)")
    p.add_argument("--theta", type=float, default=None, help="target phase (default 0)")
    p.add_argument(
        "--use-paper-t-formula",
        action="store_true",
        default=None,
        help="use the literal published averaging length instead of the corrected one",
    )
    p.add_argument("--oversample", type=int, default=None, help="grid oversampling factor")
    p.add_argument(
        "--completion-tol",
        type=float,
        default=None,
        help="max allowed completion residual (default 1e-10)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenreflect",
        description="Plan, synthesize, and verify single-ancilla eigenspace "
        "reflection circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="select averaging parameters and predict counts")
    _add_shared_flags(p)
    p.add_argument("--out", default=None, help="plan JSON path ('-' for stdout)")

    p = sub.add_parser("synth", help="synthesize the reflection circuit and angles")
    _add_shared_flags(p)
    p.add_argument("--circuit-out", default=None, help="circuit JSON path")
    p.add_argument("--angles-out", default=None, help="angle JSON path")

    p = sub.add_parser("verify", help="run the full pipeline against a unitary")
    _add_shared_flags(p)
    p.add_argument("--matrix", default=None, help="matrix JSON file to verify against")
    p.add_argument("--dim", type=int, default=None, help="generated instance dimension")
    p.add_argument(
        "--multiplicity", type=int, default=None, help="target multiplicity (default 1)"
    )
    p.add_argument("--seed", type=int, default=None, help="generator seed (default 0)")
    p.add_argument("--out", default=None, help="report JSON path ('-' for stdout)")

    p = sub.add_parser("sweep", help="grid of verify runs, one CSV row each")
    _add_shared_flags(p)
    p.add_argument("--deltas", default=None, help="comma-separated gap half-widths")
    p.add_argument("--epsilons", default=None, help="comma-separated error budgets")
    p.add_argument("--dims", default=None, help="comma-separated dimensions")
    p.add_argument("--seeds", default=None, help="comma-separated seeds")
    p.add_argument("--csv-out", default=None, help="CSV path ('-' for stdout)")

    return parser


def _list_of(kind: type, value: Any) -> tuple[Any, ...]:
    """A comma-separated flag string or a config-file JSON list, as `kind`s."""
    if value is None:
        return ()
    if isinstance(value, str):
        value = [s.strip() for s in value.split(",") if s.strip()]
    return tuple(kind(x) for x in value)


def _merge_with_config(args: argparse.Namespace) -> dict[str, Any]:
    """Config-file values fill in; explicit flags win."""
    merged: dict[str, Any] = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        merged.update(loaded)
    for key, value in vars(args).items():
        if key in ("config", "command"):
            continue
        if value is not None:
            merged[key] = value
    return merged


def _config_from_args(args: argparse.Namespace) -> JobConfig:
    v = _merge_with_config(args)
    command = args.command
    use_paper = bool(v.get("use_paper_t_formula", False))
    oversample = int(v.get("oversample", DEFAULT_OVERSAMPLE))
    completion_tol = float(v.get("completion_tol", DEFAULT_COMPLETION_TOL))
    theta = float(v.get("theta", 0.0))
    if not math.isfinite(theta):
        raise ValueError(f"--theta must be finite, got {theta!r}")

    gap: GapSpec | None = None
    if command in ("plan", "synth", "verify"):
        if v.get("delta") is None or v.get("epsilon") is None:
            raise ValueError("--delta and --epsilon are required")
        gap = GapSpec(delta=float(v["delta"]), epsilon=float(v["epsilon"]), theta=theta)

    if command == "verify" and v.get("matrix") is not None and v.get("dim") is not None:
        raise ValueError("give either --matrix or --dim, not both")

    spectrum: SpectrumSpec | None = None
    if command == "verify" and v.get("matrix") is None and v.get("dim") is not None:
        assert gap is not None
        spectrum = SpectrumSpec(
            dim=int(v["dim"]),
            delta=gap.delta,
            theta=theta,
            target_multiplicity=int(v.get("multiplicity", 1)),
            seed=int(v.get("seed", 0)),
        )

    return JobConfig(
        command=command,
        gap=gap,
        matrix_path=v.get("matrix"),
        spectrum=spectrum,
        out=v.get("out"),
        circuit_out=v.get("circuit_out"),
        angles_out=v.get("angles_out"),
        csv_out=v.get("csv_out"),
        theta=theta,
        use_paper_t_formula=use_paper,
        oversample=oversample,
        completion_tol=completion_tol,
        deltas=_list_of(float, v.get("deltas")),
        epsilons=_list_of(float, v.get("epsilons")),
        dims=_list_of(int, v.get("dims")),
        seeds=_list_of(int, v.get("seeds")),
    )


_HANDLERS = {
    "plan": cmd_plan,
    "synth": cmd_synth,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _HANDLERS[cfg.command](cfg)
    except CompletionError as exc:
        print(f"error: completion failed: {exc}", file=sys.stderr)
        return EXIT_COMPLETION
    except GapViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GAP_VIOLATION
    except TargetAbsent as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TARGET_ABSENT
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())

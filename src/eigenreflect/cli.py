"""Command-line front end: plan, synth, verify, sweep.

This module owns every on-disk format: the plan/report/circuit/angle
JSON schemas, the matrix file layout, and the sweep CSV.  All floats
are rendered with 17 significant digits so files round-trip exactly,
dictionary key order is fixed by construction, and every write is
whole-file atomic (temp file in the target directory, then rename).  The
temp file is created by open() itself, so it gets the mode the process
umask gives, and no write reads or changes the umask.
Given the same config and seed, outputs are byte-identical for a fixed
BLAS thread count (the thread count can change the rounding of matrix
products, hence the last digits of the reported floats).

Exit codes: 0 success (verify: bound met), 1 verify ran but the bound
was violated (sweep: on some row), 2 configuration or input error (such
as a --dim or --dims entry outside 1 to MAX_DIM = 1024), 3 completion failure,
4 gap violation, 5 target phase absent from the spectrum, 6 sweep rows
that failed to run (their result cells are empty).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Sequence

import numpy as np

from .circuit import (
    AncillaRotation,
    CircuitIR,
    GateCounts,
    Synthesis,
    predicted_counts,
    synthesize,
)
from .completion import CompletionError
from .gqsp import ROTATION_CONVENTION, GQSPAngleSequence
from .oracle import GapViolation, TargetAbsent, VerificationReport, verify_reflection, verify_stack
from .poly import (
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

# cap on a generated dimension: verify's walk holds s + 4 dim x dim matrices, 17 MB each
MAX_DIM = 1024

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


# ---------------------------------------------------------------- rendering


_quote = json.encoder.encode_basestring_ascii  # json.dumps(s) of a str s, without its overhead


def _render_values(values: Any, indent: int) -> list[str]:
    # finite floats, the bulk of every file, are formatted here without a call
    return [
        format(x, ".17g") if type(x) is float and math.isfinite(x) else _render_json(x, indent)
        for x in values
    ]


def _render_json(v: Any, indent: int = 0) -> str:
    t = type(v)
    if t is float:
        # JSON has no literal for nan and inf: they are written as strings
        return format(v, ".17g") if math.isfinite(v) else _quote(str(v))
    if t is str:
        return _quote(v)
    if t is int:
        return str(v)
    if t is bool:
        return "true" if v else "false"
    if isinstance(v, dict):
        if not v:
            return "{}"
        rows = [
            f"{_quote(k if type(k) is str else str(k))}: {x}"
            for k, x in zip(v, _render_values(v.values(), indent + 2))
        ]
        inner = "\n" + " " * (indent + 2)
        return "{" + inner + ("," + inner).join(rows) + "\n" + " " * indent + "}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        inner = "\n" + " " * (indent + 2)
        rows = _render_values(v, indent + 2)
        return "[" + inner + ("," + inner).join(rows) + "\n" + " " * indent + "]"
    # numpy scalars and subclasses; np.bool_ is none of these
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _render_json(float(v))
    if isinstance(v, str):
        return _quote(v)
    raise TypeError(f"cannot render {type(v).__name__} as JSON")


# what _render_json writes for each gate's dict at the circuit's indent, each number as %.17g
_ROTATION = (
    '{\n      "g": "rot",\n      "theta": %.17g,\n      "phi": %.17g,\n      "lambda": %.17g\n    }'
)
_CU = '{\n      "g": "cu",\n      "phase": %.17g\n    }'
_CU_DAG = '{\n      "g": "cu_dag",\n      "phase": %.17g\n    }'


def _circuit_text(circ: CircuitIR) -> str:
    """The circuit file's JSON: _render_json's bytes for its payload, from one format.

    Every number is finite, so %.17g writes what _render_json would: the angles
    come from atan2 and cmath.phase after factorize has checked its residual,
    and GapSpec makes the phase theta finite.
    """
    templates, numbers = [], [circ.declared_degree]
    for g in circ.gates:
        if isinstance(g, AncillaRotation):
            templates.append(_ROTATION)
            numbers += (g.theta, g.phi, g.lam)
        else:
            templates.append(_CU if g.exponent == 1 else _CU_DAG)
            numbers.append(g.phase_shift)
    gates = "[\n    " + ",\n    ".join(templates) + "\n  ]" if templates else "[]"
    text = '{\n  "degree": %d,\n  "gates": ' + gates + ',\n  "ancilla_count": 1\n}'
    return text % tuple(numbers)


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".eigenreflect-{os.urandom(8).hex()}.part")
    fh = open(tmp, "x", encoding="utf-8")  # mode 0666 less the umask; if it fails, nothing is ours
    try:
        with fh:
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
    """The matrix a file holds; malformed content is a ValueError naming the file."""
    data = _read_json(path, "matrix file")
    dim = data.get("dim") if isinstance(data, dict) else None
    if type(dim) is not int:  # bool, a subclass of int, is not a dimension
        raise ValueError(f"matrix file {path!r}: expected a JSON object with an integer 'dim'")
    try:
        parts = np.asarray([data["re"], data["im"]], dtype=float)
    except (KeyError, TypeError, ValueError):
        parts = np.zeros(0)  # reported as a shape mismatch below
    # numpy reads true and "1" as 1.0: only JSON numbers are entries
    if parts.shape != (2, dim, dim) or not {
        type(x) for key in ("re", "im") for row in data[key] for x in row
    } <= {int, float}:
        raise ValueError(f"matrix file {path!r}: 're' and 'im' must be {dim} x {dim} numbers")
    if not np.isfinite(parts).all():
        raise ValueError(f"matrix file {path!r}: entries must be finite")
    return parts[0] + 1j * parts[1]


def _read_json(path: str, role: str) -> Any:
    """The JSON document in a file; text that is not JSON is a ValueError naming file and role."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
            raise ValueError(f"{role} {path!r} is not valid JSON: {exc}") from None


def save_matrix(path: str, u: np.ndarray) -> None:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("expected a square matrix")
    payload = {
        "dim": int(u.shape[0]),
        "re": u.real.tolist(),
        "im": u.imag.tolist(),
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


def _kernel_summary(gap: GapSpec, use_paper: bool) -> dict[str, Any]:
    plan = select_parameters(gap, use_paper_t_formula=use_paper)
    upsilon = build_upsilon(plan.t, plan.n)
    peak = max_modulus_outside_gap(upsilon, gap.delta)
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
    plan = select_parameters(cfg.gap, use_paper_t_formula=cfg.use_paper_t_formula)
    payload = _plan_payload(plan, _formula_name(cfg.use_paper_t_formula))
    _emit(cfg.out, _render_json(payload) + "\n")
    return EXIT_OK


def cmd_synth(cfg: JobConfig) -> int:
    syn = synthesize(cfg.gap, use_paper_t_formula=cfg.use_paper_t_formula)
    _emit(cfg.circuit_out or "circuit.json", _circuit_text(syn.circuit) + "\n")
    _emit(cfg.angles_out or "angles.json", _render_json(_angles_payload(syn)) + "\n")
    return EXIT_OK


def cmd_verify(cfg: JobConfig) -> int:
    gap = cfg.gap
    if cfg.matrix is not None:
        u = load_matrix(cfg.matrix)
    else:
        multiplicity = 1 if cfg.multiplicity is None else cfg.multiplicity
        spec = SpectrumSpec(cfg.dim, gap.delta, gap.theta, multiplicity, cfg.seed or 0)
        u = random_gapped_unitary(spec)
    syn = synthesize(gap, use_paper_t_formula=cfg.use_paper_t_formula)
    report = verify_reflection(u, syn)
    payload = _report_payload(report, _formula_name(cfg.use_paper_t_formula))
    if cfg.use_paper_t_formula:  # the discrepancy experiment: both kernels side by side
        payload["t_formula_comparison"] = {
            "corrected": _kernel_summary(gap, False),
            "paper": _kernel_summary(gap, True),
        }
    _emit(cfg.out, _render_json(payload) + "\n")
    return EXIT_OK if report.bound_satisfied else EXIT_BOUND_VIOLATED


def cmd_sweep(cfg: JobConfig) -> int:
    lines = [",".join(_SWEEP_COLUMNS)]
    cache: dict[tuple[float, float], Synthesis] = {}
    failed = violated = 0
    for delta in cfg.deltas:
        for epsilon in cfg.epsilons:
            for dim in cfg.dims:
                size = max(1, 128**2 // dim**2)  # seeds verified as one stack
                for i in range(0, len(cfg.seeds), size):
                    seeds = cfg.seeds[i : i + size]
                    for row in _sweep_rows(cfg, delta, epsilon, dim, seeds, cache):
                        lines.append(",".join(row[name] for name in _SWEEP_COLUMNS))
                        failed += row["measured_error"] == ""
                        violated += row["satisfied"] != "true"
    _emit(cfg.csv_out, "\n".join(lines) + "\n")
    if failed:
        print(f"sweep: {failed} row(s) failed to run", file=sys.stderr)
        return EXIT_SWEEP_ROWS_FAILED
    return EXIT_BOUND_VIOLATED if violated else EXIT_OK


def _sweep_rows(
    cfg: JobConfig,
    delta: float,
    epsilon: float,
    dim: int,
    seeds: Sequence[int],
    cache: dict[tuple[float, float], Synthesis],
    spent: float = 0.0,
) -> list[dict[str, str]]:
    """Rows of seeds verified as one stack, timed at equal shares; if it fails, each seed alone.

    A seed run alone after its stack failed adds its share of that attempt (`spent`).
    """
    start = time.perf_counter()

    def num(v: float) -> str:
        return format(float(v), ".17g")

    grid = {"delta": num(delta), "epsilon": num(epsilon), "dim": str(dim), "satisfied": "false"}
    rows = [{**dict.fromkeys(_SWEEP_COLUMNS, ""), **grid, "seed": str(seed)} for seed in seeds]
    try:
        key = (delta, epsilon)
        if key not in cache:
            gap = GapSpec(delta=delta, epsilon=epsilon, theta=cfg.theta)
            cache[key] = synthesize(gap, use_paper_t_formula=cfg.use_paper_t_formula)
        plan = cache[key].plan
        for cells in rows:
            cells.update(t=str(plan.t), n=str(plan.n), degree=str(plan.degree))
        specs = (SpectrumSpec(dim, delta, cfg.theta, 1, seed) for seed in seeds)
        reports = verify_stack(np.stack([random_gapped_unitary(x) for x in specs]), cache[key])
        for cells, report in zip(rows, reports):
            cells["measured_error"] = num(report.measured_error)
            cells["bound"] = num(report.bound)
            cells["satisfied"] = "true" if report.bound_satisfied else "false"
            cells["completion_residual"] = num(report.completion_residual)
    except (ValueError, CompletionError, GapViolation, TargetAbsent) as exc:
        if len(seeds) > 1:  # each seed alone, charged its share of this attempt
            share = spent + (time.perf_counter() - start) / len(seeds)
            alone = (_sweep_rows(cfg, delta, epsilon, dim, [x], cache, share) for x in seeds)
            return [row for rows in alone for row in rows]
        print(
            f"sweep: delta={delta:.6g} epsilon={epsilon:.6g} dim={dim} "
            f"seed={seeds[0]} failed: {exc}",
            file=sys.stderr,
        )
    share = spent + (time.perf_counter() - start) / len(seeds)
    for cells in rows:
        cells["wall_time_ms"] = format(share * 1e3, ".3f")
    return rows


# ---------------------------------------------------------------- arguments


def _real(x: Any) -> float:
    """x as a float: numbers and numeric strings; not bools, which float() reads as 0 or 1."""
    if isinstance(x, bool):
        raise ValueError(f"{x!r} is not a real number")
    return float(x)


def _integer(x: Any) -> int:
    """x as an int: ints, integral floats such as 4.0 and digit strings; not bools or 4.9."""
    if isinstance(x, bool) or (isinstance(x, float) and not x.is_integer()):
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


def _switch(x: Any) -> bool:
    """A flag given, or a JSON boolean: a string such as "false" must not turn a switch on."""
    if type(x) is not bool:
        raise ValueError(f"{x!r} is not a boolean")
    return x


def _list_of(kind: Callable[[Any], Any], x: Any) -> tuple[Any, ...]:
    """A comma-separated flag string or a config-file JSON list, as `kind`s."""
    if isinstance(x, str):
        x = [s.strip() for s in x.split(",") if s.strip()]
    if not isinstance(x, list):
        raise ValueError(f"{x!r} is neither a list nor a string")
    return tuple(kind(e) for e in x)


_reals, _integers = functools.partial(_list_of, _real), functools.partial(_list_of, _integer)


def _option(
    commands: str,
    convert: Callable[[Any], Any],
    help: str,
    default: Any = None,
    *checks: tuple[str, Callable[[Any], bool]],
) -> Any:
    """A row of the option table: each check is a requirement phrase and the predicate it names."""
    meta = {"commands": commands.split(), "convert": convert, "help": help, "checks": checks}
    return field(default=default, metadata=meta)


_DIM_CAP = (f"at most {MAX_DIM}", lambda d: d <= MAX_DIM)
_POSITIVE = ("at least 1", lambda n: n >= 1)
_SEED_FLOOR = ("at least 0", lambda s: s >= 0)  # numpy's generators take no negative seed


@dataclass(frozen=True)
class JobConfig:
    """Everything a subcommand needs, after flag/config-file merging.

    The fields' metadata is the option table, where each option is declared
    once: the field after `command` named x is the flag `--x-with-dashes` of
    the subcommands its row names, and a flag string or config-file value
    reaches it through the row's converter, then the row's check.
    """

    command: str
    delta: float | None = _option("plan synth verify", _real, "gap half-width, radians")
    epsilon: float | None = _option("plan synth verify", _real, "error budget in (0,1)")
    theta: float = _option(
        "plan synth verify sweep", _real, "target phase (default 0)", 0.0,
        ("finite", math.isfinite),
    )
    use_paper_t_formula: bool = _option(
        "plan synth verify sweep", _switch,
        "use the literal published averaging length instead of the corrected one", False,
    )
    out: str | None = _option("plan verify", os.fspath, "output JSON path ('-' for stdout)")
    circuit_out: str | None = _option("synth", os.fspath, "circuit JSON path")
    angles_out: str | None = _option("synth", os.fspath, "angle JSON path")
    matrix: str | None = _option("verify", os.fspath, "matrix JSON file to verify against")
    dim: int | None = _option(
        "verify", _integer, "generated instance dimension", None, _POSITIVE, _DIM_CAP
    )
    multiplicity: int | None = _option(
        "verify", _integer, "target multiplicity (default 1)", None, _POSITIVE
    )
    seed: int | None = _option("verify", _integer, "generator seed (default 0)", None, _SEED_FLOOR)
    deltas: tuple[float, ...] = _option("sweep", _reals, "comma-separated gap half-widths", ())
    epsilons: tuple[float, ...] = _option("sweep", _reals, "comma-separated error budgets", ())
    dims: tuple[int, ...] = _option(
        "sweep", _integers, "comma-separated dimensions", (), _POSITIVE, _DIM_CAP
    )
    seeds: tuple[int, ...] = _option("sweep", _integers, "comma-separated seeds", (), _SEED_FLOOR)
    csv_out: str | None = _option("sweep", os.fspath, "CSV path ('-' for stdout)")

    def __post_init__(self) -> None:
        if self.command == "sweep":
            for name in ("deltas", "epsilons", "dims", "seeds"):
                if not getattr(self, name):
                    raise ValueError(f"sweep needs a nonempty --{name}")
            for delta in self.deltas:  # a bad grid value fails here, not in its rows
                for epsilon in self.epsilons:
                    GapSpec(delta=delta, epsilon=epsilon, theta=self.theta)
        elif self.delta is None or self.epsilon is None:
            raise ValueError("--delta and --epsilon are required")
        if self.command == "verify" and (self.matrix is None) == (self.dim is None):
            raise ValueError("verify needs exactly one of --matrix and --dim")
        if self.command == "verify" and self.matrix is not None:
            for name in ("multiplicity", "seed"):  # the generator's: a matrix file has neither
                if getattr(self, name) is not None:
                    raise ValueError(f"--{name} applies only to a generated instance (--dim)")
        elif self.command == "verify" and (self.multiplicity or 1) > self.dim:
            raise ValueError(
                f"--multiplicity must be at most --dim ({self.dim}), got {self.multiplicity}"
            )

    @property
    def gap(self) -> GapSpec:
        return GapSpec(delta=self.delta, epsilon=self.epsilon, theta=self.theta)


_OPTIONS = tuple(("--" + f.name.replace("_", "-"), f) for f in fields(JobConfig) if f.metadata)
_KEYS = {f.name for _, f in _OPTIONS}  # a config file may name any row, whatever the subcommand


@functools.cache  # parsing keeps no state on the parser, so one serves every main call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenreflect",
        description="Plan, synthesize, and verify single-ancilla eigenspace "
        "reflection circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        # a flag left out is absent from the namespace, so config-file values fill in;
        # no prefix matching, which would read sweep's --delta as --deltas
        p = sub.add_parser(
            command, help=help_text, argument_default=argparse.SUPPRESS, allow_abbrev=False
        )
        p.add_argument("--config", help="JSON file supplying defaults for any flag")
        for flag, f in _OPTIONS:
            if command in f.metadata["commands"]:
                action = "store_true" if f.metadata["convert"] is _switch else "store"
                p.add_argument(flag, action=action, help=f.metadata["help"])
    return parser


def _config_from_args(args: argparse.Namespace) -> JobConfig:
    """Config-file values fill in, explicit flags win; each value is converted and checked."""
    merged = _read_json(args.config, "config file") if "config" in args else {}
    if not isinstance(merged, dict):
        raise ValueError(f"config file {args.config!r} must hold a JSON object")
    for key in merged:  # in file order, so the key named is the same on every run
        if key not in _KEYS:
            raise ValueError(f"config file {args.config!r} has unknown key {key!r}")
    merged.update(vars(args))
    values: dict[str, Any] = {}
    for flag, f in _OPTIONS:
        if f.name not in merged:
            continue
        try:
            value = f.metadata["convert"](merged[f.name])
        except (TypeError, ValueError, OverflowError):  # float() of a 400-digit integer overflows
            raise ValueError(f"invalid value for {f.name!r}: {merged[f.name]!r}") from None
        for x in value if isinstance(value, tuple) else (value,):
            for requirement, holds in f.metadata["checks"]:
                if not holds(x):
                    raise ValueError(f"{flag} must be {requirement}, got {x!r}")
        values[f.name] = value
    return JobConfig(command=args.command, **values)


_COMMANDS = {
    "plan": (cmd_plan, "select averaging parameters and predict counts"),
    "synth": (cmd_synth, "synthesize the reflection circuit and angles"),
    "verify": (cmd_verify, "run the full pipeline against a unitary"),
    "sweep": (cmd_sweep, "grid of verify runs, one CSV row each"),
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_config_from_args(args))
    except CompletionError as exc:
        print(f"error: completion failed: {exc}", file=sys.stderr)
        return EXIT_COMPLETION
    except GapViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GAP_VIOLATION
    except TargetAbsent as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TARGET_ABSENT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())

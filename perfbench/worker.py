"""One round of one workload, in a process of its own.

Started by run.py with the BLAS/OpenMP thread variables already set and
`src` on the import path.  The worker imports the program, runs one tiny
synth and verify as a warm-up, and reports its set-up time measured from
the moment run.py spawned it.  Then it times one round of the workload
(every operation of the inputs file once), optionally under the tracer,
and writes the program's outputs to the round directory for run.py to
check.  The last line of its standard output is a JSON object with the
round's measurements.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

import eigenreflect
from eigenreflect import cli, completion, gqsp, poly, testgen

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, help="inputs JSON written by run.py")
    parser.add_argument("--outdir", required=True, help="directory for the round's outputs")
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--dump-unitaries", action="store_true")
    args = parser.parse_args()
    out = Path(args.outdir)

    _warm_up(out)
    # CLOCK_MONOTONIC is shared by all processes, so this spans interpreter
    # start, imports and the warm-up
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    inputs = json.loads(Path(args.inputs).read_text())
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(eigenreflect)
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        status, results = RUNNERS[args.workload](inputs, out)
    finally:
        wall_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if results is not None:
        records = [None if r is None else _pair_record(*r) for r in results]
        (out / "pairs.json").write_text(json.dumps(records))
    if args.dump_unitaries:
        _dump_unitaries(args.workload, inputs, out)
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_mb,
        "status": status,
        "bytes_written": sum(f.stat().st_size for f in out.iterdir() if f.name.startswith("cli-")),
    }
    if tracer is not None:
        record["spans"] = tracer.summary()
        record["counters"] = dict(tracer.counters)
    print(json.dumps(record))
    return 0


def _warm_up(out: Path) -> None:
    """One tiny synth and verify through the CLI, so first-call costs are paid."""
    plan = ["--delta", repr(math.pi / 2), "--epsilon", "0.1"]
    codes = (
        cli.main(["synth", *plan, "--circuit-out", str(out / "warm-circuit.json"),
                  "--angles-out", str(out / "warm-angles.json")]),
        cli.main(["verify", *plan, "--dim", "4", "--out", str(out / "warm-report.json")]),
    )
    if codes != (0, 0):
        raise SystemExit(f"warm-up exited with {codes}")


def _plan_flags(item: dict) -> list[str]:
    return ["--delta", repr(item["delta"]), "--epsilon", repr(item["epsilon"]),
            "--theta", repr(item["theta"])]


def _synth_ladder(inputs: dict, out: Path):
    status = []
    for i, plan in enumerate(inputs["plans"]):
        status.append(cli.main([
            "synth", *_plan_flags(plan),
            "--circuit-out", str(out / f"cli-circuit-{i}.json"),
            "--angles-out", str(out / f"cli-angles-{i}.json"),
        ]))
    return status, None


def _sweep_reuse(inputs: dict, out: Path):
    def joined(values):
        return ",".join(repr(v) for v in values)

    code = cli.main([
        "sweep", "--deltas", joined(inputs["deltas"]), "--epsilons", joined(inputs["epsilons"]),
        "--dims", joined(inputs["dims"]), "--seeds", joined(inputs["seeds"]),
        "--csv-out", str(out / "cli-sweep.csv"),
    ])
    return [code], None


def _verify_wide(inputs: dict, out: Path):
    status = []
    for i, inst in enumerate(inputs["instances"]):
        status.append(cli.main([
            "verify", *_plan_flags(inst), "--dim", str(inst["dim"]),
            "--multiplicity", str(inst["multiplicity"]), "--seed", str(inst["seed"]),
            "--out", str(out / f"cli-report-{i}.json"),
        ]))
    return status, None


def _pair_roundtrip(inputs: dict, out: Path):
    status, kept = [], []
    for encoded in inputs["polys"]:
        p = poly.ComplexPolynomial(tuple(complex(re, im) for re, im in encoded))
        try:
            partner = completion.factorize(completion.gram_polynomial(p))
            seq = gqsp.synthesize_angles(p, partner.phi)
            rebuilt = gqsp.reconstruct_polynomials(seq)
        except (completion.CompletionError, ValueError) as exc:
            status.append(f"{type(exc).__name__}: {exc}")
            kept.append(None)
            continue
        status.append(0)
        kept.append((partner.phi, seq, rebuilt))
    return status, kept


def _pair_record(phi, seq, rebuilt) -> dict:
    def pairs(p):
        return [[c.real, c.imag] for c in p.coeffs]

    return {
        "phi": pairs(phi),
        "thetas": list(seq.thetas),
        "phis": list(seq.phis),
        "lambda": seq.lambda_final,
        "p_rec": pairs(rebuilt[0]),
        "q_rec": pairs(rebuilt[1]),
    }


def _dump_unitaries(workload: str, inputs: dict, out: Path) -> None:
    """The generated instances the verify rows ran on, for run.py's own spectra."""
    specs = {}
    if workload == "verify-wide":
        for i, inst in enumerate(inputs["instances"]):
            specs[str(i)] = testgen.SpectrumSpec(
                dim=inst["dim"], delta=inst["delta"], theta=inst["theta"],
                target_multiplicity=inst["multiplicity"], seed=inst["seed"],
            )
    elif workload == "sweep-reuse":
        # the sweep verifies every row at theta = 0 with one target phase
        for j, delta in enumerate(inputs["deltas"]):
            for dim in inputs["dims"]:
                for seed in inputs["seeds"]:
                    specs[f"{j}-{dim}-{seed}"] = testgen.SpectrumSpec(
                        dim=dim, delta=delta, seed=seed
                    )
    unitaries = {key: testgen.random_gapped_unitary(spec) for key, spec in specs.items()}
    np.savez(out / "unitaries.npz", **unitaries)


RUNNERS = {
    "synth-ladder": _synth_ladder,
    "sweep-reuse": _sweep_reuse,
    "verify-wide": _verify_wide,
    "pair-roundtrip": _pair_roundtrip,
}


if __name__ == "__main__":
    sys.exit(main())

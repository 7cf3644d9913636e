#!/usr/bin/env python3
"""Benchmark for eigenreflect: one workload, timed in rounds, outputs checked.

    python3 perfbench/run.py --workload synth-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Each round is a fresh worker
process (perfbench/worker.py) with BLAS/OpenMP threads pinned to one for
that process only; rounds repeat until --seconds have passed.  Every
round's outputs are checked here, in a process that never imports the
program, against computations made from the construction's formulas
(perfbench/checks.py).  Set-up is sampled once per round and by extra
set-up-only workers until there are MIN_SETUP_SAMPLES samples.

The last line of standard output is one JSON object: correct, attempted,
failed, and the metrics named in BENCHMARK.json, end-to-end ones with
--trace 0 and per-layer ones with --trace 1, each the median over
rounds (over set-up samples for setup_s).  The line before it holds the
run's metadata, with a host-throughput probe taken before and after the
rounds.  A copy of both, with every round's spans, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# this process only checks outputs; its own BLAS stays single-threaded,
# which must be set before NumPy loads
os.environ.update({var: "1" for var in THREAD_VARS})
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
PINNED_THREADS = 1
MIN_SETUP_SAMPLES = 7
PROBE_SIZE = 300  # host probe: single-thread eigvals of a fixed matrix
PROBE_REPEATS = 5
TIME_LIMIT_S = 170.0  # the whole run, so that it ends inside 180 s


class BenchError(RuntimeError):
    pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--unpinned", action="store_true",
        help="leave the workers' BLAS/OpenMP threads at the libraries' defaults "
             f"instead of pinning them to {PINNED_THREADS} (for reference runs)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eigenreflect" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/eigenreflect; run from a source checkout",
              file=sys.stderr)
        return 2
    worker_env = _worker_env(args.unpinned)
    try:
        result, metadata = _run(args, worker_env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps({"metadata": metadata, "result": result}, indent=1))
    print(json.dumps({"metadata": {k: v for k, v in metadata.items() if k != "rounds"}}))
    print(json.dumps(result))
    return 0


def _worker_env(unpinned: bool) -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env.pop(var, None)
    if not unpinned:
        env.update({var: str(PINNED_THREADS) for var in THREAD_VARS})
    return env


def _run(args: argparse.Namespace, worker_env: dict[str, str]) -> tuple[dict, dict]:
    inputs = workloads.make_inputs(args.workload, args.seed)
    per_round = workloads.operations(args.workload, inputs)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = BENCH_DIR / "out" / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    inputs_path = work / "inputs.json"
    inputs_path.write_text(json.dumps(inputs))
    checker = RoundChecker(args.workload, inputs)
    probe_ms = [_host_probe_ms()]
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    rounds: list[dict] = []
    setups: list[float] = []
    try:
        while not rounds or time.monotonic() - start < args.seconds:
            if rounds and time.monotonic() + 2 * rounds[-1]["wall_s"] + 10 > deadline:
                break
            rdir = work / f"round-{len(rounds)}"
            rdir.mkdir()
            flags = ["--workload", args.workload, "--inputs", str(inputs_path),
                     "--outdir", str(rdir), "--trace", str(args.trace)]
            if not rounds and args.workload in ("sweep-reuse", "verify-wide"):
                flags.append("--dump-unitaries")
            record = _spawn(flags, worker_env, deadline)
            if len(record["status"]) != (1 if args.workload == "sweep-reuse" else per_round):
                raise BenchError(f"worker reported {len(record['status'])} operations")
            record["failed"], record["oracle_calls"] = checker.check(rdir, record["status"])
            rounds.append(record)
            setups.append(record["setup_s"])
            shutil.rmtree(rdir)
        while len(setups) < MIN_SETUP_SAMPLES:
            rdir = work / f"setup-{len(setups)}"
            rdir.mkdir()
            setups.append(_spawn(["--workload", args.workload, "--inputs", str(inputs_path),
                                  "--outdir", str(rdir), "--setup-only"],
                                 worker_env, deadline)["setup_s"])
        probe_ms.append(_host_probe_ms())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in checker.errors:
        print(f"check failed: {msg}", file=sys.stderr)
    for msg in checker.notes:
        print(f"failed operation: {msg}", file=sys.stderr)
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        values = setups if name == "setup_s" else [_metric(name, r) for r in rounds]
        metrics[name] = {"value": statistics.median(values), "unit": entry["unit"]}
    result = {
        "correct": not checker.errors,
        "attempted": per_round * len(rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    metadata = _metadata(args, worker_env, len(rounds), setups)
    metadata["host_probe_ms"] = probe_ms
    metadata["rounds"] = rounds
    return result, metadata


def _host_probe_ms() -> float:
    """Median time of a fixed single-thread eigvals: the host's throughput at the moment.

    Taken before and after the rounds, so that a run made in a slow spell
    of a shared host can be told from a slower program.
    """
    matrix = np.random.default_rng(0).normal(size=(PROBE_SIZE, PROBE_SIZE))
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        np.linalg.eigvals(matrix)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _spawn(flags: list[str], env: dict[str, str], deadline: float) -> dict:
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), *flags, "--spawned-at", repr(spawned)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a worker ran past the benchmark's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


# metrics read straight from a worker's round record
_RECORD_FIELDS = {
    "wall_s": "wall_s",
    "peak_rss_mb": "peak_rss_mb",
    "oracle_calls": "oracle_calls",
    "process.cpu_s": "cpu_s",
    "trace.wall_s": "wall_s",
    "cli.bytes_written": "bytes_written",
}


def _metric(name: str, record: dict) -> float:
    """A metric of one round: a record field, a tracer counter, or a span statistic."""
    if name in _RECORD_FIELDS:
        return record[_RECORD_FIELDS[name]]
    if name in record.get("counters", {}):
        return record["counters"][name]
    span, field = name.rsplit(".", 1)
    if field not in ("self_ms", "calls") or "spans" not in record:
        raise BenchError(f"BENCHMARK.json names {name!r}, which this run does not measure")
    stats = record["spans"].get(span)
    return 0 if stats is None else stats[field]


class RoundChecker:
    """Checks one round's outputs; an output already checked byte for byte is not redone.

    `errors` collects wrong outputs (the run is then incorrect); `notes`
    the operations counted as failed.
    """

    def __init__(self, workload: str, inputs: dict) -> None:
        self.workload = workload
        self.inputs = inputs
        self.errors: list[str] = []
        self.notes: list[str] = []
        self._verdicts: dict[bytes, tuple] = {}
        self._predicted: dict = {}

    def check(self, rdir: Path, status: list) -> tuple[int, int]:
        """(operations failed, oracle calls) of the round in rdir."""
        try:
            if (rdir / "unitaries.npz").exists():
                self._load_unitaries(rdir / "unitaries.npz")
            return getattr(self, "_" + self.workload.replace("-", "_"))(rdir, status)
        except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
            self._error([f"{type(exc).__name__}: {exc}"], "malformed output")
            return 0, 0

    def _cached(self, where: str, data: bytes, compute):
        key = hashlib.sha256(where.encode() + b"\0" + data).digest()
        if key not in self._verdicts:
            self._verdicts[key] = compute()
        return self._verdicts[key]

    def _fail(self, message: str) -> int:
        if message not in self.notes:
            self.notes.append(message)
        return 1

    def _error(self, messages: list[str], where: str) -> None:
        for msg in messages:
            if f"{where}: {msg}" not in self.errors:
                self.errors.append(f"{where}: {msg}")

    def _load_unitaries(self, path: Path) -> None:
        with np.load(path, allow_pickle=False) as data:
            if self.workload == "verify-wide":
                for i, inst in enumerate(self.inputs["instances"]):
                    pred, errs = checks.spectral_prediction(
                        data[str(i)], inst["delta"], inst["epsilon"], inst["theta"],
                        inst["multiplicity"])
                    self._predicted[i] = pred
                    self._error(errs, f"instance {i}")
            else:
                for j, delta in enumerate(self.inputs["deltas"]):
                    for dim in self.inputs["dims"]:
                        for seed in self.inputs["seeds"]:
                            for eps in self.inputs["epsilons"]:
                                pred, errs = checks.spectral_prediction(
                                    data[f"{j}-{dim}-{seed}"], delta, eps, 0.0, 1)
                                self._predicted[(delta, eps, dim, seed)] = pred
                                self._error(errs, f"sweep instance {(delta, dim, seed)}")

    def _synth_ladder(self, rdir: Path, status: list) -> tuple[int, int]:
        failed = calls = 0
        for i, plan in enumerate(self.inputs["plans"]):
            where = f"synth delta={plan['delta']:.6g} epsilon={plan['epsilon']:g}"
            if status[i] != 0:
                failed += self._fail(f"{where} exited with {status[i]}")
                continue
            circuit_bytes = (rdir / f"cli-circuit-{i}.json").read_bytes()
            angles_bytes = (rdir / f"cli-angles-{i}.json").read_bytes()

            def verdict(plan=plan, c=circuit_bytes, a=angles_bytes):
                circuit = json.loads(c)
                errors, misses = checks.check_synth(
                    circuit, json.loads(a), plan["delta"], plan["epsilon"], plan["theta"],
                    plan["known_inaccurate"])
                return errors, misses, checks.oracle_calls_in_circuit(circuit)

            errors, misses, n_calls = self._cached(where, circuit_bytes + angles_bytes, verdict)
            self._error(errors, where)
            calls += n_calls
            if misses:
                failed += self._fail(f"{where}: known-inaccurate angles: {misses[0]}")
        return failed, calls

    def _sweep_reuse(self, rdir: Path, status: list) -> tuple[int, int]:
        keys = workloads.sweep_keys(self.inputs)
        csv_path = rdir / "cli-sweep.csv"
        # the CSV, not the exit code, says which rows ran
        if not csv_path.exists():
            self._fail(f"sweep exited with {status[0]} and wrote no CSV")
            return len(keys), 0
        text = csv_path.read_bytes()
        failed, calls, errs = self._cached(
            "sweep", text, lambda: checks.check_sweep(text.decode(), keys, self._predicted))
        self._error(errs, "sweep")
        if failed:
            self._fail(f"sweep: {failed} rows have empty result cells")
        return failed, calls

    def _verify_wide(self, rdir: Path, status: list) -> tuple[int, int]:
        failed = calls = 0
        for i, inst in enumerate(self.inputs["instances"]):
            where = f"verify instance {i} (dim {inst['dim']})"
            path = rdir / f"cli-report-{i}.json"
            if status[i] not in (0, 1) or not path.exists():
                failed += self._fail(f"{where} exited with {status[i]}")
                continue
            data = path.read_bytes()
            report = json.loads(data)
            self._error(self._cached(
                where, data, lambda: checks.check_report(report, inst, self._predicted[i])), where)
            calls += report["counts"]["controlled_u"] + report["counts"]["controlled_u_dagger"]
        return failed, calls

    def _pair_roundtrip(self, rdir: Path, status: list) -> tuple[int, int]:
        records = json.loads((rdir / "pairs.json").read_text())
        failed = calls = 0
        for i, (encoded, record) in enumerate(zip(self.inputs["polys"], records)):
            where = f"pair {i} (degree {len(encoded) - 1})"
            if status[i] != 0:
                failed += self._fail(f"{where}: {status[i]}")
                continue
            data = json.dumps(record).encode()
            self._error(self._cached(
                where, data, lambda: checks.check_pair(workloads.decode(encoded), record)), where)
            calls += len(record["thetas"]) - 1
        return failed, calls


def _metadata(args, worker_env: dict[str, str], rounds: int, setups: list[float]) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "round_count": rounds,
        "setup_samples": setups,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {var: worker_env.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas_version,
        "git_sha": _git_sha(ROOT),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in (ROOT / "src" / "eigenreflect").glob("*.py")
        ),
    }


def _git_sha(root: Path) -> str | None:
    """HEAD's commit from the .git directory, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())

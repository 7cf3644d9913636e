#!/usr/bin/env python3
"""Run the standard verification sweep and summarize the worst margins.

Produces the same CSV as `eigenreflect sweep` (and goes through the
same code path), then prints how close the measured errors came to
their bounds, which is the number worth eyeballing after a change, and
lists the rows that failed to run.  The exit code is the sweep's: 0
when every row ran and met its bound, 1 on a bound violation, 6 when
a row failed to run.
"""

import argparse
import csv
import math
import sys
import tempfile
from pathlib import Path

from eigenreflect.cli import EXIT_BOUND_VIOLATED, EXIT_OK, EXIT_SWEEP_ROWS_FAILED
from eigenreflect.cli import main as cli_main

DEFAULT_DELTAS = ",".join(repr(d) for d in (math.pi / 8, math.pi / 4, math.pi / 2))
DEFAULT_EPSILONS = "1e-1,1e-2,1e-3"
DEFAULT_DIMS = "4,16,64"
DEFAULT_SEEDS = "11,12,13"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--deltas", default=DEFAULT_DELTAS)
    parser.add_argument("--epsilons", default=DEFAULT_EPSILONS)
    parser.add_argument("--dims", default=DEFAULT_DIMS)
    parser.add_argument("--seeds", default=DEFAULT_SEEDS)
    parser.add_argument(
        "--csv-out", default=None,
        help="where to keep the CSV (default: a temporary file, summary only)",
    )
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    csv_path = args.csv_out
    if csv_path is None:
        csv_path = str(Path(tempfile.mkdtemp()) / "sweep.csv")
    code = cli_main([
        "sweep",
        "--deltas", args.deltas,
        "--epsilons", args.epsilons,
        "--dims", args.dims,
        "--seeds", args.seeds,
        "--csv-out", csv_path,
    ])
    if code not in (EXIT_OK, EXIT_BOUND_VIOLATED, EXIT_SWEEP_ROWS_FAILED):
        return code  # the sweep wrote no CSV

    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        print("sweep produced no rows")
        return code

    # a row that failed to run has empty result cells; the sweep printed why
    failed = [r for r in rows if r["measured_error"] == ""]
    ran = [r for r in rows if r["measured_error"] != ""]
    violations = [r for r in ran if r["satisfied"] != "true"]
    total_ms = sum(float(r["wall_time_ms"]) for r in rows)

    print(
        f"rows: {len(rows)}   failed to run: {len(failed)}   "
        f"bound violations: {len(violations)}"
    )
    for r in failed:
        print(
            f"failed row: delta={r['delta']}, epsilon={r['epsilon']}, "
            f"dim={r['dim']}, seed={r['seed']}"
        )
    if ran:
        worst = max(ran, key=lambda r: float(r["measured_error"]) / float(r["bound"]))
        ratio = float(worst["measured_error"]) / float(worst["bound"])
        print(
            f"worst error/bound ratio: {ratio:.3e} "
            f"(delta={worst['delta']}, epsilon={worst['epsilon']}, "
            f"dim={worst['dim']}, seed={worst['seed']})"
        )
    print(f"total verify time: {total_ms:.0f}ms")
    if args.csv_out:
        print(f"csv written to {args.csv_out}")
    return code


if __name__ == "__main__":
    sys.exit(main())

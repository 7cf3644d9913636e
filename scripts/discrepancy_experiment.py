#!/usr/bin/env python3
"""Compare the two averaging-length formulas across a (delta, epsilon) grid.

The corrected length keeps the kernel's modulus outside the gap below
the error budget everywhere; the literal published formula rounds the
other way and collapses to t = 1 for wide gaps, where the kernel stops
suppressing anything.  This prints both side by side so the difference
is visible in one screenful.

Exit codes: 0 when the corrected formula meets its budget everywhere,
1 when it misses it somewhere, 2 for a grid value that is not a number,
a delta outside (0, pi] or an epsilon outside (0, 1), a delta so small
that either formula's plan has a degree above circuit.MAX_DEGREE (or an
averaging length that overflows), or an empty grid.
"""

import argparse
import math
import sys

from eigenreflect.circuit import MAX_DEGREE
from eigenreflect.poly import (
    GapSpec,
    build_upsilon,
    max_modulus_outside_gap,
    select_parameters,
)

DEFAULT_DELTAS = (math.pi / 2, math.pi / 4, math.pi / 8, math.pi / 16)
DEFAULT_EPSILONS = (1e-1, 1e-2, 1e-3)


def plan_pair(gap):
    """The corrected and the literal plan, each checked against the degree cap."""
    plans = [select_parameters(gap, use_paper_t_formula=paper) for paper in (False, True)]
    for plan in plans:
        if plan.degree > MAX_DEGREE:
            raise ValueError(
                f"plan degree {plan.degree} exceeds the cap of {MAX_DEGREE}; "
                "widen delta or raise epsilon"
            )
    return plans


def kernel_peak(plan):
    return max_modulus_outside_gap(build_upsilon(plan.t, plan.n), plan.gap.delta)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--deltas", default=",".join(repr(d) for d in DEFAULT_DELTAS),
        help="comma-separated gap half-widths",
    )
    parser.add_argument(
        "--epsilons", default=",".join(repr(e) for e in DEFAULT_EPSILONS),
        help="comma-separated error budgets",
    )
    return parser.parse_args(argv)


def grid(text, flag):
    values = [s.strip() for s in text.split(",") if s.strip()]
    if not values:
        raise ValueError(f"{flag} needs at least one value")
    try:
        return [float(s) for s in values]
    except ValueError:
        raise ValueError(f"{flag} holds a value that is not a number: {text!r}") from None


def main(argv=None):
    args = parse_args(argv)
    try:
        deltas = grid(args.deltas, "--deltas")
        epsilons = grid(args.epsilons, "--epsilons")
        rows = [
            plan_pair(GapSpec(delta, epsilon=epsilon))
            for delta in deltas for epsilon in epsilons
        ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    header = (
        f"{'delta':>10} {'epsilon':>8} | {'t_corr':>6} {'deg':>5} {'peak':>9} "
        f"{'ok':>3} | {'t_lit':>6} {'deg':>5} {'peak':>9} {'ok':>3}"
    )
    print(header)
    print("-" * len(header))
    literal_failures = 0
    for corr_plan, lit_plan in rows:
        gap = corr_plan.gap
        corr_peak = kernel_peak(corr_plan)
        lit_peak = kernel_peak(lit_plan)
        corr_ok = corr_peak <= gap.epsilon
        lit_ok = lit_peak <= gap.epsilon
        literal_failures += 0 if lit_ok else 1
        print(
            f"{gap.delta:10.6f} {gap.epsilon:8.0e} | "
            f"{corr_plan.t:6d} {corr_plan.degree:5d} {corr_peak:9.2e} "
            f"{'yes' if corr_ok else 'NO':>3} | "
            f"{lit_plan.t:6d} {lit_plan.degree:5d} {lit_peak:9.2e} "
            f"{'yes' if lit_ok else 'NO':>3}"
        )
        if not corr_ok:
            print("unexpected: corrected formula misses its budget", file=sys.stderr)
            return 1
    print(
        f"\nliteral formula misses the budget on {literal_failures} of "
        f"{len(rows)} grid points; corrected misses none"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

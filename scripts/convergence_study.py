#!/usr/bin/env python3
"""How fast do the brute-force lattice sums converge, and is the tail
estimate honest?

For each box rule and quantum number, the raw lattice sum is truncated
at a ladder of caps and compared against the closed form.  Each row
records the actual error and the reported tail estimate; `within_tail`
must come out true everywhere, otherwise the error model is broken.
Output is CSV on stdout or --out.
"""

import argparse
import csv
import sys

sys.path.insert(0, "src")

from sumrules import engine, series  # noqa: E402

COLUMNS = ("rule", "n", "max_terms", "value", "closed",
           "abs_err", "tail_estimate", "within_tail")

# tol only sets `converged`, which no residual meets at 0; a rung's sum
# runs to its cap or, past it, to the cutoff where the tail bound falls
# under the roundoff allowance
EXHAUSTIVE_TOL = 0.0

# the box rules: bethe has no lattice sum
RULES = tuple(rule for rule in engine.RULES if rule != "bethe")


def comma_ints(text: str) -> list[int]:
    """'1,2,5' -> [1, 2, 5]; argparse reports the ValueError raised for a
    value that is not an integer >= 1 as a usage error."""
    values = [int(s) for s in text.split(",")]
    if min(values) < 1:
        raise ValueError(f"{text!r} holds a value below 1")
    return values


def run(args: argparse.Namespace) -> int:
    rows = []
    violations = 0
    for rule in RULES:
        for n in args.n:
            closed, brute_args = engine.box_lattice_sum(rule, n)
            for cap in args.caps:
                trace = series.brute_sum(tol=EXHAUSTIVE_TOL, max_terms=cap,
                                         **brute_args)
                err = abs(trace.value - closed)
                ok = err <= trace.tail_estimate
                violations += 0 if ok else 1
                rows.append({
                    "rule": rule, "n": n, "max_terms": cap,
                    "value": format(trace.value, ".17g"),
                    "closed": format(closed, ".17g"),
                    "abs_err": format(err, ".3e"),
                    "tail_estimate": format(trace.tail_estimate, ".3e"),
                    "within_tail": str(ok).lower(),
                })
    handle = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(handle, fieldnames=COLUMNS,
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            handle.close()
    print(f"{len(rows)} rows, {violations} tail violations",
          file=sys.stderr)
    return 1 if violations else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=comma_ints, default="1,2,5,10",
                        help="comma list of quantum numbers")
    parser.add_argument("--caps", type=comma_ints, default="10,30,100,1000",
                        help="comma list of truncation caps")
    parser.add_argument("--out", default=None)
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())

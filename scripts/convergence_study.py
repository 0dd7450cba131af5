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
from dataclasses import dataclass, field

sys.path.insert(0, "src")

from sumrules import series  # noqa: E402
from sumrules.series import Parity  # noqa: E402

COLUMNS = ("rule", "n", "max_terms", "value", "closed",
           "abs_err", "tail_estimate", "within_tail")

# no last term is ever <= 0 * |value|, so neither the convergence test nor
# the roundoff stop fires and every ladder rung runs to its cap
EXHAUSTIVE_TOL = 0.0


@dataclass
class StudyConfig:
    rules: tuple[str, ...] = ("closure", "trk", "monopole")
    n_values: tuple[int, ...] = (1, 2, 5, 10)
    caps: tuple[int, ...] = (100, 1_000, 10_000, 100_000)
    out: str | None = None
    rows: list[dict] = field(default_factory=list)


def lattice_routes(rule: str, n: int):
    """(closed value, brute kwargs) for one rule's raw lattice sum."""
    opposite = series.opposite_parity(n)
    if rule == "closure":
        return series.weighted_k2_sum(4, n), dict(
            p=4, z=float(n), parity=opposite, weight_k2=True)
    if rule == "trk":
        return series.weighted_k2_sum(3, n), dict(
            p=3, z=float(n), parity=opposite, weight_k2=True)
    return series.removed_term_limit_closed(n), dict(
        p=3, z=float(n), parity=Parity.ALL, weight_k2=True, exclude=n)


def run(config: StudyConfig) -> int:
    violations = 0
    for rule in config.rules:
        for n in config.n_values:
            closed, kwargs = lattice_routes(rule, n)
            for cap in config.caps:
                trace = series.brute_sum(tol=EXHAUSTIVE_TOL, max_terms=cap,
                                         **kwargs)
                err = abs(trace.value - closed)
                ok = err <= trace.tail_estimate
                violations += 0 if ok else 1
                config.rows.append({
                    "rule": rule, "n": n, "max_terms": cap,
                    "value": format(trace.value, ".17g"),
                    "closed": format(closed, ".17g"),
                    "abs_err": format(err, ".3e"),
                    "tail_estimate": format(trace.tail_estimate, ".3e"),
                    "within_tail": str(ok).lower(),
                })
    handle = open(config.out, "w", newline="") if config.out else sys.stdout
    try:
        writer = csv.DictWriter(handle, fieldnames=COLUMNS,
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(config.rows)
    finally:
        if config.out:
            handle.close()
    print(f"{len(config.rows)} rows, {violations} tail violations",
          file=sys.stderr)
    return 1 if violations else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", default="1,2,5,10",
                        help="comma list of quantum numbers")
    parser.add_argument("--caps", default="100,1000,10000,100000",
                        help="comma list of truncation caps")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    config = StudyConfig(
        n_values=tuple(int(s) for s in args.n.split(",")),
        caps=tuple(int(s) for s in args.caps.split(",")),
        out=args.out,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())

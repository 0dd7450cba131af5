"""Machine-speed reference: one fixed computation, timed throughout a run.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to ±20% over tens of seconds, as other tenants come and go.  Every
request slows with it, so raw timings of the same code differ from run
to run by more than the regressions the benchmark must catch.  The load
pass therefore also times `reference()` every `INTERVAL_S` seconds,
between requests and outside their latencies, and the end-to-end timings
are scaled by `factor`: REF_S over the run's median reference time.  A
run on a slow stretch has a slow reference too, and the two cancel.

The reference never calls sumrules, so a change to the program moves
the scaled figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# median reference time on the 2-vCPU x86-64 VM the bounds were set on;
# a scaled time reads as the raw time on that machine at that speed
REF_S = 0.015
# seconds of load between two reference samples (the reference costs
# about 3% of the wall time at this spacing)
INTERVAL_S = 0.5

_GRID = np.linspace(1.0, 2.0, 65536)


def reference() -> float:
    """Seconds to run a fixed mix of the kinds of work sumrules does:
    exact Fraction arithmetic (as the residues), a Python float loop (as
    the quadrature and the engine) and numpy sums over 65 536 terms (as
    brute_sum).  About 15 ms on the machine REF_S was measured on."""
    start = time.perf_counter()
    x = Fraction(1, 3)
    for i in range(1, 40):
        x = x * Fraction(2**40 + i, 2**41 - i) + Fraction(1, i)
    total = 0.0
    for i in range(1, 20000):
        total += 1.0 / (i * i + 0.5)
    for _ in range(20):
        total += float(np.sum(1.0 / (_GRID * _GRID + total)))
    return time.perf_counter() - start


def factor(samples) -> float:
    """Scale that turns the run's raw times into times at REF_S speed."""
    return REF_S / statistics.median(samples)

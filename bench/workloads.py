"""Seeded request generators for the two benchmark workloads.

Each workload is an endless stream of `Request`s drawn from one
`random.Random` seeded by (workload, seed), so the same seed
always gives the same requests.  Requests come in blocks of 16 that hold
every request kind in its stated share, in random order.  Each drawn
quantity (n, q, F) walks its own golden-ratio sequence from a random
start, which covers its log range evenly at every run length: the share
of draws above any threshold, such as the F at which delta stark
overflows, is then nearly the same for every seed, so the seed-to-seed
spread reflects the program, not a lucky draw.

`panel` gives each workload a fixed list of requests on log grids over
the same ranges, identical for every seed.  The accuracy metrics are
scored on it, so they read the same on every run and a regression of a
single row shows.

This module imports nothing from `sumrules`; the program sees only the
generated argv lists.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

WORKLOADS = ("box-small-n", "delta-bethe")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# one stark request in this many on delta-bethe draws F from [1e150, 1e300]
_EXTREME_F_EVERY = 20


@dataclass(frozen=True)
class Request:
    """One CLI call and the rows its report must hold, in order.

    `expect` lists (rule, params) per row; params hold the same values
    the argv spells out, so the gate can match every row to its input.
    """

    argv: tuple[str, ...]
    expect: tuple[tuple[str, dict], ...]


class _LogSpread:
    """Log-uniform draws from [lo, hi] along a golden-ratio sequence."""

    def __init__(self, rng: random.Random, lo: float, hi: float) -> None:
        self._u = rng.random()
        self._log_lo = math.log(lo)
        self._log_span = math.log(hi) - math.log(lo)
        self._lo, self._hi = lo, hi

    def __call__(self) -> float:
        self._u = (self._u + _GOLDEN) % 1.0
        return min(self._hi, max(self._lo, math.exp(self._log_lo + self._u * self._log_span)))

    def ints(self, count: int) -> list[int]:
        """`count` draws rounded to integers, sorted and without repeats,
        as the CLI sorts and de-duplicates its grid."""
        return sorted({round(self()) for _ in range(count)})


def _box_request(rule: str, ns: list[int], F: float | None = None) -> Request:
    grid = ",".join(str(n) for n in ns)
    if rule == "stark":
        return Request(("stark", "--model", "isw", "--n", grid, "--F", repr(F)),
                       tuple(("stark", {"n": n, "F": F}) for n in ns))
    rules = ("closure", "trk", "monopole") if rule == "all" else (rule,)
    return Request(("verify", "--model", "isw", "--rule", rule, "--n", grid),
                   tuple((r, {"n": n}) for r in rules for n in ns))


def _box_small_n(rng: random.Random) -> Iterator[Request]:
    """Blocks of 12 verify (3 per rule choice) and 4 stark over 1-4 n each."""
    kinds = [r for r in ("closure", "trk", "monopole", "all") for _ in range(3)]
    kinds += ["stark"] * 4
    n_draw = _LogSpread(rng, 1, 1000)
    f_draw = _LogSpread(rng, 1e-3, 1e3)
    while True:
        counts = [1, 2, 3, 4] * 4
        rng.shuffle(counts)
        block = [_box_request(rule, n_draw.ints(count), f_draw() if rule == "stark" else None)
                 for rule, count in zip(kinds, counts)]
        rng.shuffle(block)
        yield from block


def _delta_bethe(rng: random.Random) -> Iterator[Request]:
    """Blocks of 12 verify over 1-3 q values and 4 stark.

    One stark request in every `_EXTREME_F_EVERY`, at a random place in
    each run of that many, draws F from [1e150, 1e300], where F^2
    overflows from about 1.3e154 on.
    """
    q_draw = _LogSpread(rng, 1e-4, 1e4)
    f_draw = _LogSpread(rng, 1e-3, 1e3)
    f_extreme = _LogSpread(rng, 1e150, 1e300)
    stark_seen = 0
    extreme_slot = rng.randrange(_EXTREME_F_EVERY)
    while True:
        counts = [1, 2, 3] * 4
        rng.shuffle(counts)
        block = []
        for count in counts:
            qs = sorted({q_draw() for _ in range(count)})
            rows = [(rule, {}) for rule in ("closure", "trk", "monopole")]
            rows += [("bethe", {"q": q}) for q in qs]
            block.append(Request(("verify", "--model", "delta",
                                  "--q", ",".join(repr(q) for q in qs)), tuple(rows)))
        for _ in range(4):
            extreme = stark_seen % _EXTREME_F_EVERY == extreme_slot
            F = f_extreme() if extreme else f_draw()
            stark_seen += 1
            if stark_seen % _EXTREME_F_EVERY == 0:
                extreme_slot = rng.randrange(_EXTREME_F_EVERY)
            block.append(Request(("stark", "--model", "delta", "--F", repr(F)),
                                 (("stark", {"F": F}),)))
        rng.shuffle(block)
        yield from block


def _log_grid(lo: float, hi: float, count: int) -> list[float]:
    """`count` log-spaced values from lo to hi, both ends included."""
    step = (math.log(hi) - math.log(lo)) / (count - 1)
    return [lo if i == 0 else hi if i == count - 1 else math.exp(math.log(lo) + i * step)
            for i in range(count)]


def _int_grid(lo: int, hi: int, count: int) -> list[int]:
    """Integers of a log grid, without repeats."""
    return sorted({round(v) for v in _log_grid(lo, hi, count)})


def _panel_box_small_n() -> list[Request]:
    """verify --rule all and stark over four n at a time, n in [1, 1000],
    then single n in [1e3, 1e5], where brute_sum runs to its term cap and
    the closed route loses digits."""
    ns = _int_grid(1, 1000, 64)
    fs = _log_grid(1e-3, 1e3, 16)
    groups = [ns[i::16] for i in range(16)]
    large_fs = _log_grid(1e-3, 1e3, 8)
    return ([_box_request("all", group) for group in groups]
            + [_box_request("stark", group, F) for group, F in zip(groups, fs)]
            + [_box_request("all", [n]) for n in _int_grid(1000, 100_000, 24)]
            + [_box_request("stark", [n], F)
               for n, F in zip(_int_grid(1000, 100_000, 8), large_fs)])


def _panel_delta_bethe() -> list[Request]:
    """verify over three q at a time, q in [1e-4, 1e4], and stark at
    F in [1e-3, 1e3] and in the extreme range [1e150, 1e300]."""
    qs = _log_grid(1e-4, 1e4, 12)
    panel = []
    for group in (qs[i::4] for i in range(4)):
        rows = [(rule, {}) for rule in ("closure", "trk", "monopole")]
        rows += [("bethe", {"q": q}) for q in group]
        panel.append(Request(("verify", "--model", "delta",
                              "--q", ",".join(repr(q) for q in group)), tuple(rows)))
    for F in _log_grid(1e-3, 1e3, 8) + _log_grid(1e150, 1e300, 4):
        panel.append(Request(("stark", "--model", "delta", "--F", repr(F)),
                             (("stark", {"F": F}),)))
    return panel


_GENERATORS = {
    "box-small-n": _box_small_n,
    "delta-bethe": _delta_bethe,
}


def requests(workload: str, seed: int) -> Iterator[Request]:
    """Endless request stream for `workload`, fixed by `seed`."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


_PANELS = {
    "box-small-n": _panel_box_small_n,
    "delta-bethe": _panel_delta_bethe,
}


def panel(workload: str) -> list[Request]:
    """The fixed accuracy panel of `workload`, the same for every seed."""
    if workload not in _PANELS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _PANELS[workload]()

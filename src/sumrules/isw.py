"""Infinite square well in reduced units: hbar = m = 1, well on [0, 1].

Energies are E_n = (n pi)^2 / 2 and eigenfunctions sqrt(2) sin(n pi x).
The position matrix elements reduce to rational functions of n and k
times 1/pi^2, which is what lets every sum rule and the Stark shift
collapse onto the lattice sums in `series`, times the prefactors of
`engine`'s table of checks:

    <n|x|k> = -(8 n k / pi^2) / (k^2 - n^2)^2   for n + k odd, else 0
    <n|x^2|k> = (-1)^(k-n) (8 n k / pi^2) / (k^2 - n^2)^2   for k != n

with diagonals <n|x|n> = 1/2 and <n|x^2|n> = 1/3 - 1/(2 n^2 pi^2).
"""

from __future__ import annotations

import math

from .core import check_state_index

_PI = math.pi


def x_me(n: int, k: int) -> float:
    """<n|x|k>: 1/2 on the diagonal, zero unless n + k is odd."""
    n, k = check_state_index(n), check_state_index(k, "k")
    if n == k:
        return 0.5
    if (n + k) % 2 == 0:
        return 0.0
    return -(8.0 * n * k / _PI**2) / float(k * k - n * n) ** 2


def x2_me(n: int, k: int) -> float:
    """<n|x^2|k>: nonzero for every k, alternating in sign off-diagonal."""
    n, k = check_state_index(n), check_state_index(k, "k")
    if n == k:
        return 1.0 / 3.0 - 1.0 / (2.0 * n * n * _PI**2)
    sign = -1.0 if (k - n) % 2 else 1.0
    return sign * (8.0 * n * k / _PI**2) / float(k * k - n * n) ** 2


def stark_shift2(n: int, F: float) -> float:
    """Second-order shift -F^2 (15 - (n pi)^2) / (24 pi^2 n^4).

    Negative for the ground state, positive from n = 2 up.
    `engine.stark_verify` holds it against both routes of the box stark
    check, built from the k^2-weighted p = 5 lattice sum.
    """
    n = check_state_index(n)

    def shift(field: float) -> float:
        return -field * field * (15.0 - (n * _PI) ** 2) / (24.0 * _PI**2 * n**4)

    value = shift(F)
    if not math.isinf(value):
        return value
    # -F^2 (15 - (n pi)^2) overflowed before the division.  Redo it on
    # the mantissa of F = m 2^e: scaling by 2^(2e) is exact at every
    # step, so this is the value an unbounded exponent would give, and
    # only ldexp can overflow, where the true shift does too.
    m, e = math.frexp(F)
    value = shift(m)
    try:
        return math.ldexp(value, 2 * e)
    except OverflowError:
        return math.copysign(math.inf, value)


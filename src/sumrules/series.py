"""Closed forms and brute-force evaluation of lattice partial-fraction sums.

The central family is

    S_p(z) = sum_{k >= 1} 1 / (k^2 - z^2)^p

together with its restrictions to even or odd k, the k^2-weighted
combinations S_{p-1} + z^2 S_p that appear in energy-weighted sum rules,
and the removed-term limit

    T(n) = lim_{z -> n} [ sum_{k != n} k^2 / (k^2 - z^2)^3 ].

Closed forms start from the partial-fraction expansion of the cotangent,

    S_1(z) = 1/(2 z^2) - pi cot(pi z) / (2 z),

and climb in p through the differentiation identity
S_{p+1}(z) = S_p'(z) / (2 p z).  The derivative is applied exactly on a
small closed family of terms A pi^t z^(-m) X^e (X = cot(pi z) for the
full lattice, X = tan(pi z / 2) for the odd sublattice), so no symbolic
algebra or numerical differentiation is involved.  X comes from sin and
cos of pi times z - round(z), a reduction exact in binary64, so large z
lose no digits and the integer or half-integer z of the box rules give
X = 0 exactly.  Near z = 0 the closed forms lose digits to cancellation,
so |z| < 1/2 switches to the absolutely convergent zeta expansion
S_p(z) = sum_j C(p-1+j, j) zeta_L(2p+2j) z^(2j) over the same lattice L.

The brute route, `brute_sum`, adds the terms themselves.  For integer
z = n those below 2n come as mirror pairs k = n -+ j, whose opposite signs
(odd p) cancel in exact-integer numerators, not in the sum; the rest are
one numpy scan to a cutoff fixed in advance, and a certified midpoint
Euler-Maclaurin tail.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from fractions import Fraction

import numpy as np

from .core import (
    DEFAULT_TOL,
    REL_ERR_FLOOR,
    ConvergenceError,
    DomainError,
    InvalidSpecError,
    PoleError,
    TruncationTrace,
    check_state_index,
    default_max_terms,
)

MAX_P = 6
POLE_GUARD = 1e-8
_SERIES_RADIUS = 0.5  # |z| below this uses the zeta expansion
_PI = math.pi


class Parity(Enum):
    ALL = "all"
    EVEN = "even"
    ODD = "odd"


def _lattice(parity: Parity) -> tuple[int, int]:
    """(first k, step) of a positive-integer lattice."""
    if parity is Parity.ALL:
        return 1, 1
    if parity is Parity.EVEN:
        return 2, 2
    return 1, 2


def _nearest_lattice_point(z: float, parity: Parity) -> int:
    """The point of the lattice nearest to |z|: the nearest pole of S_p."""
    start, step = _lattice(parity)
    return max(start, round((abs(z) - start) / step) * step + start)


def _guard_pole(z: float, parity: Parity) -> None:
    if abs(abs(z) - _nearest_lattice_point(z, parity)) < POLE_GUARD:
        raise PoleError(
            f"z={z} is within {POLE_GUARD} of a pole of the {parity.value}-lattice sum"
        )


# ---------------------------------------------------------------------------
# Term tables: S_p as sums of A pi^t z^(-m) X^e, built once per lattice.
# Key (m, e, t) -> Fraction coefficient A, until _build_tables rounds them.

def _differentiate(table: dict, x_chain: Fraction) -> dict:
    """d/dz of a term family whose X satisfies X' = x_chain * pi * (1 + X^2).

    cot(pi z) has x_chain = -1; tan(pi z / 2) has x_chain = +1/2.
    """
    out: dict = {}

    def add(key, coeff):
        out[key] = out.get(key, Fraction(0)) + coeff
        if out[key] == 0:
            del out[key]

    for (m, e, t), coeff in table.items():
        add((m + 1, e, t), -m * coeff)
        # e X^(e-1) X' = e * x_chain * pi * (X^(e-1) + X^(e+1))
        if e:
            add((m, e - 1, t + 1), e * x_chain * coeff)
            add((m, e + 1, t + 1), e * x_chain * coeff)
    return out


def _build_tables(base: dict, x_chain: Fraction) -> list[tuple]:
    """Tables for p = 1..MAX_P from S_{p+1}(z) = S_p'(z) / (2 p z), each
    a tuple of (A pi^t, m, e) terms: A pi^t is rounded once, here."""
    tables = [base]
    for p in range(1, MAX_P):
        deriv = _differentiate(tables[-1], x_chain)
        tables.append({(m + 1, e, t): c / (2 * p) for (m, e, t), c in deriv.items()})
    return [
        tuple((float(c) * _PI**t, m, e) for (m, e, t), c in table.items())
        for table in tables
    ]


# S_1(z) = (1/2) z^-2 - (1/2) pi z^-1 cot(pi z)
_ALL_TABLES = _build_tables(
    {(2, 0, 0): Fraction(1, 2), (1, 1, 1): Fraction(-1, 2)},
    Fraction(-1),
)
# S_1 over odd k = (1/4) pi z^-1 tan(pi z / 2)
_ODD_TABLES = _build_tables(
    {(1, 1, 1): Fraction(1, 4)},
    Fraction(1, 2),
)


def _eval_table(table: tuple, z: float, x_value: float) -> float:
    total = 0.0
    for coeff, m, e in table:
        total += coeff * z ** (-m) * x_value**e
    return total


def _bernoulli_numbers(count: int) -> list[Fraction]:
    values = [Fraction(1)]
    for m in range(1, count + 1):
        # odd-index values past B_1 vanish, so they are skipped
        acc = sum(math.comb(m + 1, j) * values[j] for j in range(m) if values[j])
        values.append(-acc / (m + 1))
    return values


# zeta(s) = |B_s| (2 pi)^s / (2 s!) at even s, with pi to 50 digits so
# that the only rounding is the final float().  Above the table,
# 1 + 2^-s + ... needs no k past 7: 8^-40 is ~1e-36.
_ZETA_BERNOULLI_MAX = 40
_BERNOULLI = _bernoulli_numbers(_ZETA_BERNOULLI_MAX)
_PI_50 = Fraction("3.14159265358979323846264338327950288419716939937511")
_ZETA_EVEN = {
    s: float(abs(_BERNOULLI[s]) * (2 * _PI_50) ** s / (2 * math.factorial(s)))
    for s in range(2, _ZETA_BERNOULLI_MAX + 1, 2)
}


def _lattice_zeta(s: int, parity: Parity) -> float:
    """zeta(s), s even, restricted to the requested lattice of positive integers."""
    if s <= _ZETA_BERNOULLI_MAX:
        full = _ZETA_EVEN[s]
    else:
        full = math.fsum(float(k) ** -s for k in range(1, 8))
    if parity is Parity.ALL:
        return full
    even = full * 2.0 ** (-s)
    return even if parity is Parity.EVEN else full - even


def _small_z_series(p: int, z: float, parity: Parity) -> float:
    """Zeta expansion of S_p on a lattice, valid for |z| < 1."""
    z2 = z * z
    total = 0.0
    power = 1.0
    for j in range(400):
        term = math.comb(p - 1 + j, j) * _lattice_zeta(2 * p + 2 * j, parity) * power
        total += term
        if abs(term) <= 1e-17 * abs(total):
            return total
        power *= z2
    raise ConvergenceError(f"zeta expansion of S_{p} stalled at z={z}")


def _sin_cos_pi(x: float) -> tuple[float, float]:
    """(sin(pi x), cos(pi x)) from the exact reduction r = x - round(x).

    Past |r| = 1/4 the complement 1/2 - |r|, also exact, keeps the small
    argument on the function that vanishes: half-integers give cos = 0.
    """
    k = round(x)
    r = x - k
    if abs(r) <= 0.25:
        sin, cos = math.sin(_PI * r), math.cos(_PI * r)
    else:
        a = _PI * (0.5 - abs(r))
        sin, cos = math.copysign(math.cos(a), r), math.sin(a)
    return (-sin, -cos) if k % 2 else (sin, cos)


def sum_closed(p: int, z: float, parity: Parity = Parity.ALL) -> float:
    """Closed-form S_p(z) over the full, even, or odd positive lattice.

    Valid for any real z at least POLE_GUARD away from the lattice poles
    (nonzero integers, even or odd integers respectively); z = 0 returns
    the zeta limit, e.g. sum_closed(1, 0) = pi^2/6.
    """
    z = float(z)
    if not isinstance(p, int) or isinstance(p, bool):
        raise InvalidSpecError(f"p must be an integer, got {p!r}")
    if not 1 <= p <= MAX_P:
        raise InvalidSpecError(f"p must lie in 1..{MAX_P}, got {p}")
    if not math.isfinite(z):
        raise InvalidSpecError(f"z must be finite, got {z}")
    _guard_pole(z, parity)
    if parity is Parity.EVEN:
        # even-k terms are 4^-p times the full-lattice terms at z/2
        return 4.0 ** (-p) * sum_closed(p, z / 2.0, Parity.ALL)
    if abs(z) < _SERIES_RADIUS:
        return _small_z_series(p, z, parity)
    if parity is Parity.ALL:
        sin, cos = _sin_cos_pi(z)
        return _eval_table(_ALL_TABLES[p - 1], z, cos / sin)
    sin, cos = _sin_cos_pi(z / 2.0)
    return _eval_table(_ODD_TABLES[p - 1], z, sin / cos)


def opposite_parity(n: int) -> Parity:
    """Lattice of the k of opposite parity to n, the k that x couples n to."""
    return Parity.EVEN if n % 2 else Parity.ODD


def weighted_k2_sum(p: int, n: int) -> float:
    """sum over k of opposite parity to n of k^2 / (k^2 - n^2)^p.

    Uses k^2 = (k^2 - n^2) + n^2 to reduce to lattice sums:
    S_{p-1} + n^2 S_p on the opposite-parity lattice.  Supported for
    p in {3, 4, 5}; the value is the same function of n whichever
    parity branch the integer n selects, e.g. p = 3 gives pi^2/(64 n^2).
    """
    if p not in (3, 4, 5):
        raise InvalidSpecError(f"weighted_k2_sum supports p in 3..5, got {p}")
    n = check_state_index(n)
    parity = opposite_parity(n)
    zn = float(n)
    return sum_closed(p - 1, zn, parity) + zn * zn * sum_closed(p, zn, parity)


def removed_term_limit_closed(n: int) -> float:
    """Closed form of T(n) = lim_{z->n} sum_{k != n} k^2/(k^2 - z^2)^3."""
    n = check_state_index(n)
    n2 = float(n) * float(n)
    return (_PI * _PI / (16.0 * n2)) * (1.0 / 3.0 - 1.0 / (2.0 * n2 * _PI * _PI))


# -- removed-term limit by extrapolation ------------------------------------
#
# T(z; n) = S_2(z) + z^2 S_3(z) - n^2/(n^2 - z^2)^3 stays finite as z -> n
# although each piece diverges like 1/eps^3, 1/eps^2, 1/eps (eps = z - n).
# Those three orders cancel exactly; doing the cancellation in floating
# point throws away all accuracy below eps ~ 1e-3, so the evaluator below
# removes them algebraically.  Writing cot(pi z) = cot(pi eps) and
# csc^2(pi z) = csc^2(pi eps) (periodicity), and splitting off the Laurent
# heads u = cot(P) - 1/P + P/3 and v = csc^2(P) - 1/P^2 - 1/3 (P = pi eps),
# the divergent block collapses to the rational identity
#
#   [1/eps + z/eps^2 - 2 z^2/eps^3] / (16 z^3) + n^2/(eps^3 (2n + eps)^3)
#       = -n (4n + 3 eps) / (16 z^3 (2n + eps)^3),
#
# leaving only smooth remainders proportional to u/P^3 and v/P^2.

def _cot_tail_coeffs(j_max: int) -> list[Fraction]:
    """c_j with cot x = 1/x - sum_{j>=1} c_j x^(2j-1), for j = 2..j_max <= 20."""
    return [
        Fraction(2 ** (2 * j)) * abs(_BERNOULLI[2 * j]) / math.factorial(2 * j)
        for j in range(2, j_max + 1)
    ]


_COT_TAIL = [float(c) for c in _cot_tail_coeffs(14)]


def _u_over_p3(P: float) -> float:
    """(cot P - 1/P + P/3) / P^3 by its Taylor series, |P| <= 1/2."""
    acc, power = 0.0, 1.0
    for c in _COT_TAIL:
        acc -= c * power
        power *= P * P
    return acc


def _v_over_p2(P: float) -> float:
    """(csc^2 P - 1/P^2 - 1/3) / P^2 by its Taylor series, |P| <= 1/2."""
    acc, power = 0.0, 1.0
    for j, c in enumerate(_COT_TAIL, start=2):
        acc += (2 * j - 1) * c * power
        power *= P * P
    return acc


def _removed_term_near(n: int, eps: float) -> float:
    """T(n + eps; n) evaluated without the 1/eps^3 cancellation."""
    if abs(eps) * _PI > 0.5:
        raise InvalidSpecError(f"eps={eps} outside the series-validated window")
    z = n + eps
    P = _PI * eps
    ut = _u_over_p3(P)
    vt = _v_over_p2(P)
    pi2, pi4, pi6, pi8 = _PI**2, _PI**4, _PI**6, _PI**8
    smooth = (
        pi2 * z / 3.0
        - pi2 * eps / 3.0
        + pi4 * eps**3 * ut
        + pi4 * z * vt * eps**2
        - 2.0 * pi4 * z * z * eps * (ut + vt)
        + 2.0 * pi4 * z * z * eps / 9.0
        + (2.0 / 3.0) * pi6 * z * z * eps**3 * (vt - ut)
        - 2.0 * pi8 * z * z * ut * vt * eps**5
    )
    singular = -n * (4.0 * n + 3.0 * eps) / (2.0 * n + eps) ** 3
    return (singular + smooth) / (16.0 * z**3)


def removed_term_sum_limit(
    n: int,
    eps0: float = 0.1,
    rel_tol: float = 1e-13,
    max_levels: int = 12,
) -> float:
    """T(n) by Richardson extrapolation of T(n + eps; n) as eps -> 0.

    Evaluates on the geometric sequence eps0, eps0/2, eps0/4, ... and
    eliminates the Taylor orders eps, eps^2, ... through a Neville
    tableau; accepts once two successive diagonal entries agree to
    rel_tol.  Raises ConvergenceError if the sequence never settles.
    """
    n = check_state_index(n)
    diag_prev = None
    row: list[float] = []
    for i in range(max_levels):
        eps = eps0 * 0.5**i
        new_row = [_removed_term_near(n, eps)]
        for j in range(1, i + 1):
            factor = 2.0**j
            new_row.append(
                (factor * new_row[j - 1] - row[j - 1]) / (factor - 1.0)
            )
        row = new_row
        diag = row[-1]
        if diag_prev is not None:
            if abs(diag - diag_prev) <= rel_tol * max(abs(diag), REL_ERR_FLOOR):
                return diag
        diag_prev = diag
    raise ConvergenceError(
        f"removed-term extrapolation for n={n} did not settle in {max_levels} levels"
    )


# -- brute-force summation ---------------------------------------------------

# Most summands one numpy temporary holds: the scan runs in blocks of at
# most this many terms or pairs.
_CHUNK = 65536
_EPS = float(np.finfo(float).eps)
# eps of the largest terms that the tail bound must fall under at the
# cutoff, and eps of the summed magnitude that roundoff may take: each
# summand is good to a few ulps, a pairwise block sum to log2(_CHUNK) = 16
_CUTOFF_EPS, _ROUNDOFF_EPS = 1.0, 32.0


def checkpoint_indices(n: int) -> list[int]:
    """1-based geometric checkpoint schedule 1, 2, 4, ... capped at n."""
    return [2**i for i in range(max(0, (n - 1).bit_length()))] + [n]


@functools.cache
def _pair_numerator(p: int, w: int) -> tuple[float, ...]:
    """M, highest power first, with N(t) = (1+t)^(2w) (2-t)^p + (-1)^p
    (1-t)^(2w) (2+t)^p = t^(p mod 2) M(t^2): the second product is the
    first at -t, so N is twice the first's powers of the parity of p."""
    first = [1]
    for (a, b), e in (((1, 1), 2 * w), ((2, -1), p)):
        for _ in range(e):  # times (a + b t), in exact ints
            first = [a * lo + b * hi for lo, hi in zip(first + [0], [0] + first)]
    return tuple(float(2 * c) for c in reversed(first[p % 2::2]))


def _pair_terms(j: np.ndarray, n: float, p: int, w: int) -> np.ndarray:
    """f(n + j) + f(n - j) for f(k) = k^(2w) / (k^2 - n^2)^p, as
    n^(2w-p) N(t) / (j (2+t)(2-t))^p with t = j/n: for odd p the terms'
    opposite signs cancel in the exact coefficients of N, not in the sum."""
    t = j / n
    u = t * t
    scale = n ** (2 * w - p)
    lead, *rest = _pair_numerator(p, w)
    num = lead * scale
    for c in rest:
        num = num * u + c * scale
    if p % 2:
        num = num * t
    return num / (j * (4.0 - u)) ** p


def _plain_terms(k, p: int, z2: float, w: int):
    """f(k) = k^(2w) / (k^2 - z^2)^p, for a float or an array of them."""
    k2 = k * k
    return (k2 if w else 1.0) / (k2 - z2) ** p


def _euler_maclaurin(X: float, h: int, p: int, z2: float, w: int) -> tuple[float, float]:
    """((h/24) f'(X), (7h^3/5760) |f'''(X)|): the midpoint correction and
    the first omitted term, from s = x^2 - z^2, f = s^-p or, for w = 1,
    s^(1-p) + z^2 s^-p, (s^m)' = 2m x s^(m-1) and
    (s^m)''' = 12m(m-1) x s^(m-2) + 8m(m-1)(m-2) x^3 s^(m-3)."""
    s = X * X - z2
    d1 = d3 = 0.0
    for m, c in ((1 - p, 1.0), (-p, z2)) if w else ((-p, 1.0),):
        power = c * X * s ** (m - 3)
        d1 += 2 * m * s * s * power
        d3 += m * (m - 1) * (12 * s + 8 * (m - 2) * X * X) * power
    return h * d1 / 24.0, 7.0 * h**3 / 5760.0 * abs(d3)


def _tail(X: float, h: int, p: int, z2: float, w: int, atol: float) -> tuple[float, float]:
    """(sum of f over the lattice points past X = K + h/2, a bound on its
    error): the integral from X over h plus (h/24) f'(X).  Past |z| f is a
    positive series in x^-2, so completely monotone, and the remainder is
    bounded by the next term (DLMF 2.10; Olver, Asymptotics and Special
    Functions, ch. 8).  The series, in z^2/X^2 < 1/4, is integrated term
    by term until a term is under atol h; the rest is under twice the last.
    """
    ratio = z2 / (X * X)
    e = 2 * (p - w) - 1  # the first term integrates to X^-e / e
    term = integral = X**-e / e
    for j in range(60):
        # C(p+j, j+1) / C(p-1+j, j) = (p+j) / (j+1); the exponent gains 2
        term *= ratio * ((p + j) * (e + 2 * j)) / ((j + 1) * (e + 2 * j + 2))
        integral += term
        if term <= atol * h:
            break
    correction, bound = _euler_maclaurin(X, h, p, z2, w)
    return integral / h + correction, 2.0 * term / h + bound


def _scan(pairs: int, run: tuple[int, int], n: int, j0: int, h: int, p: int,
          z2: float, w: int) -> tuple[float, float, list[float], list[int]]:
    """Sum `pairs` mirror pairs j = j0, j0 + h, ... about n, then the run
    (k, count) of plain terms k, k + h, ..., in blocks of at most _CHUNK.
    Returns the total, the sum of |summand|, and the partial sums after
    1, 2, 4, ... _CHUNK summands, each multiple of _CHUNK and the end,
    with the terms each holds, a pair counting as two."""
    k_run, count = run
    count += pairs
    marks = checkpoint_indices(min(count, _CHUNK)) + list(range(2 * _CHUNK, count, _CHUNK))
    marks += [count] if count > _CHUNK else []
    total = abs_total = 0.0
    checkpoints: list[float] = []
    for lo in range(0, count, _CHUNK):
        hi = min(count, lo + _CHUNK)
        parts = []
        if lo < pairs:
            j = np.arange(j0 + h * lo, j0 + h * min(hi, pairs), h, dtype=float)
            parts.append(_pair_terms(j, float(n), p, w))
        if hi > pairs:
            k_lo = k_run + h * max(0, lo - pairs)
            k = np.arange(k_lo, k_run + h * (hi - pairs), h, dtype=float)
            parts.append(_plain_terms(k, p, z2, w))
        values = parts[0] if len(parts) == 1 else np.concatenate(parts)
        partial = values.cumsum()
        checkpoints += [total + float(partial[m - lo - 1]) for m in marks if lo < m <= hi]
        total += float(values.sum())
        abs_total += float(np.abs(values).sum())
    checkpoints[-1] = total  # the pairwise sum, not the running one
    return total, abs_total, checkpoints, [m + min(m, pairs) for m in marks]


def brute_sum(
    p: int,
    z: float,
    parity: Parity = Parity.ALL,
    weight_k2: bool = False,
    exclude: int | None = None,
    tol: float = DEFAULT_TOL,
    max_terms: int | None = None,
) -> TruncationTrace:
    """Direct partial summation of sum_k f(k), f(k) = k^(2w) / (k^2 - z^2)^p,
    over the chosen lattice of spacing h, with an Euler-Maclaurin tail.

    For integer z = n the terms k = n -+ j, 1 <= j < n, are summed as one
    pair (`_pair_terms`); k = n is never summed, and `exclude`, if given,
    must name it.  The terms from 2n on (every term for other z) are a
    plain scan up to a cutoff K, past which `_tail` sums the rest.  K is
    the first lattice point past 2|z| + 4h where the tail bound is under
    _CUTOFF_EPS eps of the largest pair and plain term, a floor under the
    summed magnitude, so K is known before any term is summed.
    `tail_estimate` is the tail bound plus _ROUNDOFF_EPS eps of the summed
    magnitude, and `converged` says it is within tol of |value|.
    `max_terms` caps the terms summed, a pair counting as two; a cap that
    ends the scan before 2|z| + 4h leaves no tail bound: the value is the
    bare partial sum and `tail_estimate` is infinite.
    """
    if p < 1 or not isinstance(p, (int, np.integer)) or isinstance(p, bool):
        raise InvalidSpecError(f"p must be a positive integer, got {p!r}")
    if not math.isfinite(z):
        raise InvalidSpecError(f"z must be finite, got {z}")
    if max_terms is None:
        max_terms = default_max_terms()
    if max_terms < 1:
        raise InvalidSpecError(f"max_terms must be positive, got {max_terms}")
    if 2 * p - (2 if weight_k2 else 0) < 2:
        raise InvalidSpecError("summand does not decay: need 2p - 2w >= 2")

    p, w = int(p), 1 if weight_k2 else 0
    start, h = _lattice(parity)
    z2 = z * z
    az = abs(z)
    nearest = _nearest_lattice_point(z, parity)
    if abs(az - nearest) < 1e-12 and exclude != nearest:
        raise DomainError(f"z={z} lies on the summation lattice; pass exclude={nearest}")
    n = int(az) if az == int(az) else 0  # the pairs need an integer pole
    if exclude is not None and exclude != n:
        raise InvalidSpecError(f"exclude must be the pole k = |z|, got {exclude}")

    j0 = 1 + (start - n - 1) % h  # first j with n + j on the lattice
    pairs = max(0, (n - j0 + h - 1) // h)  # j = j0, j0 + h, ... < n
    first = 2 * n + (start - 2 * n) % h if n else start  # first plain k
    clear = start + h * (math.floor((2.0 * az + 4.0 * h - start) / h) + 1)
    plain_max = max_terms - 2 * pairs  # plain terms the cap leaves

    if plain_max < (clear - first) // h + 1:
        # no tail bound; an odd cap inside the pairs ends on a lower term
        done = min(pairs, max_terms // 2)
        run = (first, plain_max) if done == pairs else (n - j0 - h * done, max_terms % 2)
        value, _, checkpoints, checkpoint_terms = _scan(done, run, n, j0, h, p, z2, w)
        residual, converged = math.inf, False
    else:
        floor = abs(_plain_terms(float(first if n else nearest), p, z2, w))
        if pairs:
            floor += abs(_plain_terms(float(n - j0), p, z2, w)
                         + _plain_terms(float(n + j0), p, z2, w))
        allowance = _CUTOFF_EPS * _EPS * max(floor, REL_ERR_FLOOR)
        X = clear + h / 2.0
        bound = _euler_maclaurin(X, h, p, z2, w)[1]
        if bound > allowance:
            # bound(X) X^(1/a) falls with X, so X -> X (bound(X) / allowance)^a
            # maps points below the crossing above it and back: X3 is above
            a = 1.0 / (2 * p - 2 * w + 3)
            X *= (bound / allowance) ** a
            for _ in range(2):
                X = max(clear + h / 2.0,
                        X * (_euler_maclaurin(X, h, p, z2, w)[1] / allowance) ** a)
        last_cap = first + h * (plain_max - 1)
        X -= h / 2.0
        last = last_cap if X >= last_cap else start + h * math.ceil((X - start) / h)
        total, abs_total, checkpoints, checkpoint_terms = _scan(
            pairs, (first, (last - first) // h + 1), n, j0, h, p, z2, w)
        tail, bound = _tail(last + h / 2.0, h, p, z2, w, allowance / 16.0)
        value = total + tail
        residual = bound + _ROUNDOFF_EPS * _EPS * (abs_total + abs(tail))
        converged = residual <= tol * max(abs(value), REL_ERR_FLOOR)
    return TruncationTrace(
        value=value,
        partial_sums=tuple(checkpoints),
        checkpoint_terms=tuple(checkpoint_terms),
        terms_used=checkpoint_terms[-1],
        tail_estimate=residual,
        converged=converged,
    )

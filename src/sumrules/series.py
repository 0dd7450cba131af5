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
"""

from __future__ import annotations

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

# Chunks double the summed total: 1024, 1024, 2048, ... 32768 terms, then
# _CHUNK per chunk, so a sum that settles early pays for at most twice the
# terms it needed, and every chunk ends on the 1, 2, 4, ... checkpoint grid
# (multiples of _CHUNK past it).
_CHUNK_FLOOR = 1024
_CHUNK = 65536


def checkpoint_indices(n: int) -> list[int]:
    """1-based geometric checkpoint schedule 1, 2, 4, ... capped at n."""
    out = []
    i = 1
    while i < n:
        out.append(i)
        i *= 2
    out.append(n)
    return out


def _term_chunk(
    k: np.ndarray, p: int, z2: float, weight_k2: bool, exclude: int | None
) -> np.ndarray:
    base = k * k - z2
    mask = k == float(exclude) if exclude is not None else None
    if mask is not None:
        base = np.where(mask, 1.0, base)  # dummy to keep the division finite
    values = (k * k if weight_k2 else 1.0) / base**p
    if mask is not None:
        values = np.where(mask, 0.0, values)
    return values


def _tail_integral(
    X: float, step: int, p: int, z2: float, weight_k2: bool
) -> tuple[float, float]:
    """(integral_X^inf of the term function, truncation allowance).

    Expands (x^2 - z^2)^-p in powers of z^2/x^2 and integrates term by
    term; valid once X is safely beyond |z|.  The allowance also covers
    the midpoint rule's error over lattice spacing `step`, through a
    bound on the term function's derivative at X.  Returns (0, crude
    bound) when the expansion is not trusted and (0, inf) once the pole
    sits at or beyond the cutoff, where no finite tail bound exists.
    """
    w = 1 if weight_k2 else 0
    ratio = z2 / (X * X)
    if ratio > 0.5:
        # pole at or past the cutoff: no correction, no finite bound
        return 0.0, math.inf
    base = X * X - z2
    derivative = abs(X ** (2 * w - 1) * (2 * w * base - 2 * p * X * X) / base ** (p + 1))
    midpoint = 2.0 * (step * derivative / 24.0)
    if ratio > 0.25:
        # (1 - ratio)^-p <= 2^p here, so a rescaled power integral bounds
        # the true one; not tight, only reached when max_terms ran out
        exponent = 2 * p - 2 * w - 1
        crude = 2.0 ** (p + 1) * X ** (-exponent) / exponent
        return 0.0, abs(crude) + midpoint
    acc = 0.0
    lead = X ** (-(2 * p - 2 * w - 1))
    term_power = 1.0
    last = math.inf
    for j in range(60):
        exponent = 2 * p + 2 * j - 2 * w - 1
        term = math.comb(p - 1 + j, j) * term_power * lead / exponent
        acc += term
        last = abs(term)
        if last <= 1e-17 * abs(acc):
            break
        term_power *= ratio
    return acc, 2.0 * last + midpoint


def brute_sum(
    p: int,
    z: float,
    parity: Parity = Parity.ALL,
    weight_k2: bool = False,
    exclude: int | None = None,
    tol: float = DEFAULT_TOL,
    max_terms: int | None = None,
) -> TruncationTrace:
    """Direct partial summation of sum_k k^(2w) / (k^2 - z^2)^p.

    Runs over the chosen lattice (skipping `exclude` if given), in numpy
    chunks that double the summed total from _CHUNK_FLOOR terms up to
    _CHUNK terms each, until the last term and the post-correction tail
    residual both drop below tol relative to the running value or
    `max_terms` is hit.  The scan also stops, unconverged, once the last
    term and the truncation part of the residual are below tol but the
    roundoff allowance alone keeps the residual above it: that allowance
    only grows with more terms, so none could converge.  The returned
    value includes a midpoint-integral tail correction; `tail_estimate`
    bounds what that correction can still be missing.
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

    start, step = _lattice(parity)
    z2 = z * z
    az = abs(z)
    # a lattice point sitting exactly on the pole must be excluded
    nearest = _nearest_lattice_point(z, parity)
    if abs(az - nearest) < 1e-12 and exclude != nearest:
        raise DomainError(f"z={z} lies on the summation lattice; pass exclude={nearest}")

    checkpoints: list[float] = []
    checkpoint_terms: list[int] = []
    total = 0.0
    abs_total = 0.0  # roundoff scale: cancellation can leave |total| << this
    chunks = 0
    terms_used = 0
    last_term = math.inf
    converged = False
    k_next = start
    eps = float(np.finfo(float).eps)

    def roundoff() -> float:
        # pairwise chunk sums are good to log2(chunk) ~ 16 ulps of the
        # absolute mass; per-term rounding and the scalar adds between
        # chunks are covered by the rest
        return (32.0 + chunks) * eps * abs_total

    while True:  # max_terms >= 1, so at least one chunk
        count = min(_CHUNK, max(_CHUNK_FLOOR, terms_used), max_terms - terms_used)
        k = k_next + step * np.arange(count, dtype=float)
        values = _term_chunk(k, p, z2, weight_k2, exclude)
        if terms_used == 0:
            # fine-grained checkpoints inside the first chunk
            partial = np.cumsum(values)
            for idx in checkpoint_indices(count):
                checkpoints.append(float(total + partial[idx - 1]))
                checkpoint_terms.append(idx)
            total += float(np.sum(values))
            checkpoints[-1] = total
        else:
            total += float(np.sum(values))
            checkpoints.append(total)
            checkpoint_terms.append(terms_used + count)
        abs_total += float(np.sum(np.abs(values)))
        chunks += 1
        terms_used += count
        k_next = k_next + step * count
        last_term = abs(float(values[-1]))

        capped = terms_used >= max_terms
        clear = k_next - step > 2.0 * az + 4.0 * step  # last summed point well past |z|
        if not (clear or capped):
            continue
        X = (k_next - step) + step / 2.0
        integral, truncation = _tail_integral(X, step, p, z2, weight_k2)
        residual = truncation + roundoff()
        value = total + integral / step
        bound = tol * max(abs(value), REL_ERR_FLOOR)
        if clear and last_term <= bound and truncation <= bound:
            # only roundoff() can still hold the residual over the
            # bound, and it grows with every chunk: stop either way
            converged = residual <= bound
            break
        if capped:
            break
    return TruncationTrace(
        value=value,
        partial_sums=tuple(checkpoints),
        checkpoint_terms=tuple(checkpoint_terms),
        terms_used=terms_used,
        tail_estimate=residual,
        converged=converged,
    )


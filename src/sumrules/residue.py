"""Contour integration of rational integrands by exact residue algebra.

The closed route for continuum sum rules integrates rational functions
along the real axis by closing in the upper half plane:

    integral over R of F(k) dk = 2 pi i * sum of UHP residues,

valid when deg(numerator) <= (total pole order) - 2 so the arc at
infinity vanishes.  For F = N / prod (z - z_j)^(m_j), the residue at
the pole z_i = z0 of order m = m_i is

    Res = [t^(m-1)] N(z0 + t) prod_{j != i} (z0 - z_j + t)^(-m_j),

the t^(m-1) coefficient of a product of truncated Taylor series at the
pole: N's from synthetic division, each other pole's from the binomial
series.  The algebra runs over exact Gaussian rationals held as plain
ints (every input float is a dyadic rational, taken in exactly by
float.as_integer_ratio), so residue sums cancel identically: the
real-line integral comes out with at most one rounding at the final
float conversion, and the reality check on 2 pi i times the residue sum
is exact rather than a roundoff fight.

Two identities halve the exact work of the Bethe contours and leave the
exact residue sum, hence the float, as it was.  Mirror rule: when
f(-conj z) = conj f(z), the residue at -conj(z0) is -conj of the one at
z0, so only UHP poles with Re >= 0 are expanded and each off-axis one
adds 2i Im(Res); any other integrand expands every UHP pole.  Shared
series: the product series of the other poles depends on the poles
alone, and a small cache hands it from one parity channel to the other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .core import ArcDivergenceError, InconsistencyError, InvalidSpecError
from .series import Parity

_IM_TOL = 1e-12  # largest |Im| / |value| of a consistent contour result

# Exact complex number: (a, b, d) stands for (a + b i) / d, with int
# parts and d > 0.  Sums and products leave it unreduced; a gcd
# reduction runs only where a value leaves a function.
_QC = tuple[int, int, int]
_QC_ZERO = (0, 0, 1)
_QC_ONE = (1, 0, 1)


def _qc(z: complex) -> _QC:
    a, da = z.real.as_integer_ratio()
    b, db = z.imag.as_integer_ratio()
    # both denominators are powers of two: the larger is a common one
    if da < db:
        return (a * (db // da), b, db)
    return (a, b * (da // db), da)


def _qc_reduce(x: _QC) -> _QC:
    g = math.gcd(*x)
    return (x[0] // g, x[1] // g, x[2] // g)


def _qc_add(x: _QC, y: _QC) -> _QC:
    if x[2] == y[2]:
        return (x[0] + y[0], x[1] + y[1], x[2])
    return (x[0] * y[2] + y[0] * x[2], x[1] * y[2] + y[1] * x[2], x[2] * y[2])


def _qc_mul(x: _QC, y: _QC) -> _QC:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0], x[2] * y[2])


def _qc_inv(x: _QC) -> _QC:
    # d / (a + b i) = d (a - b i) / (a^2 + b^2)
    a, b, d = x
    return _qc_reduce((d * a, -d * b, a * a + b * b))


@dataclass(frozen=True)
class FactoredRational:
    """Rational function numerator(z) / prod (z - z_j)^(m_j).

    The numerator is a tuple of complex coefficients in ascending
    powers, trailing zeros trimmed.  Poles are kept in factored form: a
    tuple of (location, order) with pairwise distinct locations, none on
    the real axis.
    """

    numerator: tuple[complex, ...]
    poles: tuple[tuple[complex, int], ...]

    def __init__(
        self, numerator: Sequence[complex], poles: Sequence[tuple[complex, int]]
    ) -> None:
        coeffs = tuple(complex(c) for c in numerator) or (0j,)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        cleaned = []
        for location, order in poles:
            location = complex(location)
            if not isinstance(order, int) or isinstance(order, bool) or order < 1:
                raise InvalidSpecError(f"pole order must be a positive integer, got {order!r}")
            if location.imag == 0.0:
                raise InvalidSpecError(f"pole {location} lies on the real axis")
            cleaned.append((location, order))
        locations = [loc for loc, _ in cleaned]
        for i, a in enumerate(locations):
            for b in locations[i + 1:]:
                if a == b:
                    raise InvalidSpecError(f"repeated pole at {a}")
        object.__setattr__(self, "numerator", coeffs)
        object.__setattr__(self, "poles", tuple(cleaned))

    @property
    def degree(self) -> int:
        """Degree of the numerator; the zero polynomial reports 0."""
        return len(self.numerator) - 1

    @property
    def total_pole_order(self) -> int:
        return sum(order for _, order in self.poles)

    def __call__(self, z: complex) -> complex:
        value = 0j
        for c in reversed(self.numerator):
            value = value * z + c
        for location, order in self.poles:
            value /= (z - location) ** order
        return value


def _taylor_at(coefficients: Sequence[_QC], z0: _QC, count: int) -> list[_QC]:
    """First `count` Taylor coefficients at z0 of the polynomial with
    ascending `coefficients`, zero-padded past its degree; each synthetic
    division by (z - z0) leaves the next one as the remainder."""
    out: list[_QC] = []
    rest = list(coefficients)
    while rest and len(out) < count:
        quotient = []
        acc = _QC_ZERO
        for c in reversed(rest):
            acc = _qc_add(_qc_mul(acc, z0), c)
            quotient.append(acc)
        out.append(quotient.pop())
        rest = quotient[::-1]
    return out + [_QC_ZERO] * (count - len(out))


@functools.lru_cache(maxsize=4)
def _other_poles_series(
    poles: tuple[tuple[complex, int], ...], pole_index: int
) -> tuple[_QC, ...]:
    """First m Taylor coefficients in t of prod_{j != i} (d_j + t)^(-m_j),
    d_j = z0 - z_j, at the pole z0 of order m = poles[pole_index].

    It depends on the poles alone, so integrands that share a
    denominator (the two Bethe parity channels) share it.
    """
    location, order = poles[pole_index]
    z0 = _qc(location)
    series: list[_QC] | None = None
    for j, (other, m) in enumerate(poles):
        if j == pole_index:
            continue
        inv = _qc_inv(_qc_add(z0, _qc(-other)))
        # (d + t)^(-m) = sum_k C(m+k-1, k) (-1)^k d^(-m-k) t^k
        power = _QC_ONE
        for _ in range(m):
            power = _qc_mul(power, inv)
        factor = []
        for k in range(order):
            c = (-1) ** k * math.comb(m + k - 1, k)
            factor.append((c * power[0], c * power[1], power[2]))
            power = _qc_mul(power, inv)
        if series is None:
            series = factor
            continue
        product = [_QC_ZERO] * order
        for i, a in enumerate(series):
            for k, b in enumerate(factor[: order - i]):
                product[i + k] = _qc_add(product[i + k], _qc_mul(a, b))
        series = product
    if series is None:
        return (_QC_ONE,) + (_QC_ZERO,) * (order - 1)
    return tuple(_qc_reduce(c) for c in series)


def _residue_at_exact(f: FactoredRational, pole_index: int) -> _QC:
    location, order = f.poles[pole_index]
    # h(z0 + t) = N(z0 + t) prod_{j != i} (d_j + t)^(-m_j); the residue
    # is its t^(m-1) coefficient
    numerator = _taylor_at([_qc(c) for c in f.numerator], _qc(location), order)
    others = _other_poles_series(f.poles, pole_index)
    total = _QC_ZERO
    for i, a in enumerate(numerator):
        total = _qc_add(total, _qc_mul(a, others[order - 1 - i]))
    return total


def _check_conjugate_symmetry(f: FactoredRational) -> None:
    remaining = list(f.poles)
    while remaining:
        location, order = remaining.pop()
        partner = (location.conjugate(), order)
        if partner in remaining:
            remaining.remove(partner)
        else:
            raise InvalidSpecError(
                f"pole set is not conjugate-symmetric: no partner for {location}"
            )


def _has_mirror_symmetry(f: FactoredRational) -> bool:
    """Whether f(-conj z) = conj f(z) holds identically.

    It does for a real, even numerator over a pole set closed under
    z -> -conj z with equal orders.  A conjugate-symmetric pole set that
    is also closed this way is closed under z -> -z, so its total order
    is even and the denominator picks up no sign.
    """
    if any(c.imag != 0 or (p % 2 and c != 0) for p, c in enumerate(f.numerator)):
        return False
    poles = set(f.poles)
    return all((complex(-z.real, z.imag), m) in poles for z, m in f.poles)


def _uhp_residue_sum(f: FactoredRational) -> _QC:
    """Exact sum of the residues of f at its upper-half-plane poles, one
    residue per mirror pair when the mirror rule holds."""
    mirror = _has_mirror_symmetry(f)
    total = _QC_ZERO
    for index, (location, _) in enumerate(f.poles):
        if location.imag <= 0 or (mirror and location.real < 0):
            continue
        res = _residue_at_exact(f, index)
        if mirror and location.real > 0:
            res = (0, 2 * res[1], res[2])
        total = _qc_add(total, res)
    return total


def contour_integral_uhp(f: FactoredRational) -> float:
    """Real-line integral of f by closing through the upper half plane.

    Requires deg(numerator) <= total pole order - 2 (otherwise the arc
    contribution does not vanish) and a conjugate-symmetric pole set so
    f is real on the real axis.  The imaginary part of 2 pi i times the
    residue sum must cancel to |Im| <= _IM_TOL * |value|; anything larger
    signals an inconsistent integrand and raises.
    """
    if f.degree > f.total_pole_order - 2:
        raise ArcDivergenceError(
            f"numerator degree {f.degree} too high for pole order "
            f"{f.total_pole_order}; the closing arc would not vanish"
        )
    _check_conjugate_symmetry(f)
    # 2 pi i (a + b i) / d = (-2 pi b + 2 pi a i) / d; a vanishes
    # identically for integrands real on the axis, so Im(value) is
    # exactly zero then.  Int true division rounds once, correctly.
    a, b, d = _uhp_residue_sum(f)
    value = complex(-2.0 * math.pi * (b / d), 2.0 * math.pi * (a / d))
    magnitude = abs(value)
    if magnitude > 0 and abs(value.imag) > _IM_TOL * magnitude:
        raise InconsistencyError(
            f"contour result {value} has a non-cancelling imaginary part"
        )
    return value.real


def build_bethe_integrand(parity: Parity, q: float, kappa0: float) -> FactoredRational:
    """Rational integrand of the inelastic (momentum-transfer) sum rule.

    Both parity channels share the denominator
    [ (k+q)^2 + kappa0^2 ]^2 [ (k-q)^2 + kappa0^2 ]^2, i.e. double poles
    at +-q +- i kappa0.  The odd channel carries numerator
    k^2 (k^2 + kappa0^2); the even channel carries k^2 (its q^2 weight
    and all shared prefactors stay outside the contour step).  q and
    kappa0 must be finite and > 0; the caller checks them.
    """
    if parity is Parity.ALL:
        raise InvalidSpecError("Bethe integrands are built per parity channel")
    if parity is Parity.ODD:
        numerator = (0.0, 0.0, kappa0 * kappa0, 0.0, 1.0)
    else:
        numerator = (0.0, 0.0, 1.0)
    poles = (
        (complex(q, kappa0), 2),
        (complex(-q, kappa0), 2),
        (complex(q, -kappa0), 2),
        (complex(-q, -kappa0), 2),
    )
    return FactoredRational(numerator, poles)

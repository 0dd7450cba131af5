"""Contour integration of rational integrands by exact residue algebra.

The closed route for continuum sum rules integrates rational functions
along the real axis by closing in the upper half plane:

    integral over R of F(k) dk = 2 pi i * sum of UHP residues,

valid when deg(numerator) <= (total pole order) - 2 so the arc at
infinity vanishes.  Residues at a pole z0 of order m come from

    Res = (1/(m-1)!) d^(m-1)/dz^(m-1) [ (z - z0)^m F(z) ]  at z0,

with the derivatives taken exactly on a (numerator, denominator)
polynomial pair via the quotient rule.  The algebra runs over exact
Gaussian rationals (every input float converts losslessly to a
Fraction), so residue sums cancel identically: the real-line integral
comes out with at most one rounding at the final float conversion, and
the reality check on 2 pi i times the residue sum is exact rather than
a roundoff fight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    ArcDivergenceError,
    InconsistencyError,
    InvalidSpecError,
    check_finite_positive,
)
from .series import Parity

# Exact complex number: (real, imag) as Fractions.  Floats convert
# exactly, so nothing is lost on the way in.
_QC = tuple[Fraction, Fraction]
_QC_ZERO = (Fraction(0), Fraction(0))
_QC_ONE = (Fraction(1), Fraction(0))


def _qc(z: complex) -> _QC:
    return (Fraction(z.real), Fraction(z.imag))


def _qc_add(a: _QC, b: _QC) -> _QC:
    return (a[0] + b[0], a[1] + b[1])


def _qc_mul(a: _QC, b: _QC) -> _QC:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _qc_div(a: _QC, b: _QC) -> _QC:
    norm = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm)


# Polynomials over _QC, ascending powers, as plain tuples.
_QPoly = tuple[_QC, ...]
_QP_ONE: _QPoly = (_QC_ONE,)


def _qp_from(poly: "ComplexPoly") -> _QPoly:
    return tuple(_qc(c) for c in poly.coefficients)


def _qp_add(a: _QPoly, b: _QPoly) -> _QPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = _qc_add(out[i], c)
    return tuple(out)


def _qp_mul(a: _QPoly, b: _QPoly) -> _QPoly:
    out = [_QC_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = _qc_add(out[i + j], _qc_mul(ca, cb))
    return tuple(out)


def _qp_neg(a: _QPoly) -> _QPoly:
    return tuple((-re, -im) for re, im in a)


def _qp_derivative(a: _QPoly) -> _QPoly:
    if len(a) == 1:
        return (_QC_ZERO,)
    return tuple((i * re, i * im) for i, (re, im) in enumerate(a) if i > 0)


def _qp_eval(a: _QPoly, z: _QC) -> _QC:
    acc = _QC_ZERO
    for c in reversed(a):
        acc = _qc_add(_qc_mul(acc, z), c)
    return acc


@dataclass(frozen=True)
class ComplexPoly:
    """Polynomial with complex coefficients, ascending powers."""

    coefficients: tuple[complex, ...]

    def __init__(self, coefficients: Sequence[complex]) -> None:
        coeffs = tuple(complex(c) for c in coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (0j,)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        # the zero polynomial reports degree 0 here; callers treat it as trivial
        return len(self.coefficients) - 1

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc


@dataclass(frozen=True)
class FactoredRational:
    """Rational function numerator(z) / prod (z - z_j)^(m_j).

    Poles are kept in factored form: a tuple of (location, order) with
    pairwise distinct locations, none on the real axis.
    """

    numerator: ComplexPoly
    poles: tuple[tuple[complex, int], ...]

    def __init__(
        self,
        numerator: ComplexPoly | Sequence[complex],
        poles: Sequence[tuple[complex, int]],
    ) -> None:
        if not isinstance(numerator, ComplexPoly):
            numerator = ComplexPoly(numerator)
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
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "poles", tuple(cleaned))

    @property
    def total_pole_order(self) -> int:
        return sum(order for _, order in self.poles)

    def __call__(self, z: complex) -> complex:
        value = self.numerator(z)
        for location, order in self.poles:
            value /= (z - location) ** order
        return value


def _residue_at_exact(f: FactoredRational, pole_index: int) -> _QC:
    location, order = f.poles[pole_index]
    # h(z) = (z - z0)^m f(z) = numer / denom with the pole cancelled
    numer = _qp_from(f.numerator)
    denom = _QP_ONE
    for j, (other, m) in enumerate(f.poles):
        if j == pole_index:
            continue
        neg_root = (Fraction(-other.real), Fraction(-other.imag))
        factor: _QPoly = (neg_root, _QC_ONE)
        for _ in range(m):
            denom = _qp_mul(denom, factor)
    for _ in range(order - 1):
        numer, denom = (
            _qp_add(
                _qp_mul(_qp_derivative(numer), denom),
                _qp_neg(_qp_mul(numer, _qp_derivative(denom))),
            ),
            _qp_mul(denom, denom),
        )
    z0 = _qc(location)
    value = _qc_div(_qp_eval(numer, z0), _qp_eval(denom, z0))
    fact = Fraction(math.factorial(order - 1))
    return (value[0] / fact, value[1] / fact)


def residue_at(f: FactoredRational, pole_index: int) -> complex:
    """Residue of f at f.poles[pole_index] by exact quotient-rule algebra.

    The (m-1)-fold derivative of (z - z0)^m f(z) is carried out on a
    polynomial pair over exact rationals; the returned complex is the
    single rounding step.
    """
    if not 0 <= pole_index < len(f.poles):
        raise InvalidSpecError(f"pole_index {pole_index} out of range")
    re, im = _residue_at_exact(f, pole_index)
    return complex(float(re), float(im))


def _check_conjugate_symmetry(f: FactoredRational) -> None:
    remaining = list(f.poles)
    while remaining:
        location, order = remaining.pop()
        if location.imag == 0:  # unreachable; constructor forbids it
            continue
        partner = (location.conjugate(), order)
        if partner == (location, order):
            continue
        if partner in remaining:
            remaining.remove(partner)
        else:
            raise InvalidSpecError(
                f"pole set is not conjugate-symmetric: no partner for {location}"
            )


def contour_integral_uhp(f: FactoredRational, im_tol: float = 1e-12) -> float:
    """Real-line integral of f by closing through the upper half plane.

    Requires deg(numerator) <= total pole order - 2 (otherwise the arc
    contribution does not vanish) and a conjugate-symmetric pole set so
    f is real on the real axis.  The imaginary part of 2 pi i times the
    residue sum must cancel to |Im| <= im_tol * |value|; anything larger
    signals an inconsistent integrand and raises.
    """
    if f.numerator.degree > f.total_pole_order - 2:
        raise ArcDivergenceError(
            f"numerator degree {f.numerator.degree} too high for pole order "
            f"{f.total_pole_order}; the closing arc would not vanish"
        )
    _check_conjugate_symmetry(f)
    total = _QC_ZERO
    for index, (location, _) in enumerate(f.poles):
        if location.imag > 0:
            total = _qc_add(total, _residue_at_exact(f, index))
    # 2 pi i (a + b i) = -2 pi b + 2 pi a i; a vanishes identically for
    # integrands real on the axis, so Im(value) is exactly zero then.
    value = complex(-2.0 * math.pi * float(total[1]), 2.0 * math.pi * float(total[0]))
    magnitude = abs(value)
    if magnitude > 0 and abs(value.imag) > im_tol * magnitude:
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
    and all shared prefactors stay outside the contour step).
    """
    if parity is Parity.ALL:
        raise InvalidSpecError("Bethe integrands are built per parity channel")
    check_finite_positive(q, "q")
    check_finite_positive(kappa0, "kappa0")
    if parity is Parity.ODD:
        numerator = ComplexPoly((0.0, 0.0, kappa0 * kappa0, 0.0, 1.0))
    else:
        numerator = ComplexPoly((0.0, 0.0, 1.0))
    poles = (
        (complex(q, kappa0), 2),
        (complex(-q, kappa0), 2),
        (complex(q, -kappa0), 2),
        (complex(-q, -kappa0), 2),
    )
    return FactoredRational(numerator, poles)

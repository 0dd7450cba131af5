"""Independent oracles for the tests: wave functions, a full-line
quadrature and an exact residue engine for rational functions.

No entry point of the package needs these; the tests use them to
rebuild matrix elements and contour values from their defining
integrals, and to hold the closed-form Bethe residues to a general
Taylor-series residue computed on Fractions.
"""

import math
from fractions import Fraction

import numpy as np

from sumrules.core import (
    DEFAULT_TOL,
    DomainError,
    InvalidSpecError,
    check_finite_positive,
    check_state_index,
)
from sumrules.quadrature import QuadratureResult, _tan_wrapped, integrate_interval
from sumrules.series import Parity

PI = math.pi


def isw_psi(n: int, x):
    """Box eigenfunction sqrt(2) sin(n pi x); x must lie in [0, 1]."""
    n = check_state_index(n)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise DomainError("x outside the well [0, 1]")
    value = math.sqrt(2.0) * np.sin(n * PI * x)
    return float(value) if value.ndim == 0 else value


def delta_psi_bound(x):
    """Normalized delta-well bound state exp(-|x|)."""
    x = np.asarray(x, dtype=float)
    value = np.exp(-np.abs(x))
    return float(value) if value.ndim == 0 else value


def delta_energy_continuum(k: float) -> float:
    k = check_finite_positive(float(k), "continuum wavenumber")
    return 0.5 * k * k


def delta_psi_continuum(parity: Parity, k: float, x):
    """Delta-normalized delta-well scattering state of the given parity.

    Odd: sin(kx)/sqrt(pi).  Even: (sin(k|x|) - k cos(kx)) / sqrt(pi (1+k^2)),
    which carries the kink at the origin that the well imposes.
    """
    k = check_finite_positive(float(k), "continuum wavenumber")
    x = np.asarray(x, dtype=float)
    if parity is Parity.ODD:
        value = np.sin(k * x) / math.sqrt(PI)
    elif parity is Parity.EVEN:
        value = (np.sin(k * np.abs(x)) - k * np.cos(k * x)) / math.sqrt(
            PI * (1.0 + k * k)
        )
    else:
        raise InvalidSpecError("continuum states are even or odd")
    return float(value) if value.ndim == 0 else value


def integrate_real_line(
    f,
    scale: float = 1.0,
    tol: float = DEFAULT_TOL,
    abs_tol: float = 0.0,
) -> QuadratureResult:
    """Integral of f over (-inf, inf) via the two-sided tan map."""
    check_finite_positive(scale, "scale")
    return integrate_interval(
        _tan_wrapped(f, scale), -0.5 * PI, 0.5 * PI, tol=tol, abs_tol=abs_tol
    )



# Exact Gaussian rational: the pair (re, im) of Fractions.
def _g(z: complex) -> tuple[Fraction, Fraction]:
    return (Fraction(z.real), Fraction(z.imag))


def _g_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _g_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _g_inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


class FactoredRational:
    """Rational function numerator(z) / prod (z - z_j)^(m_j).

    The numerator is a tuple of complex coefficients in ascending
    powers, trailing zeros trimmed; poles is a tuple of (location,
    order) with distinct locations off the real axis.
    """

    def __init__(self, numerator, poles):
        coeffs = tuple(complex(c) for c in numerator) or (0j,)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self.numerator = coeffs
        self.poles = tuple((complex(z), m) for z, m in poles)

    @property
    def degree(self) -> int:
        return len(self.numerator) - 1

    def __call__(self, z: complex) -> complex:
        value = 0j
        for c in reversed(self.numerator):
            value = value * z + c
        for location, order in self.poles:
            value /= (z - location) ** order
        return value


def residue_exact(f: FactoredRational, pole_index: int):
    """Exact residue of f at f.poles[pole_index] as a pair of Fractions.

    At z0 of order m it is the t^(m-1) coefficient of N(z0 + t) times
    prod_{j != i} (z0 - z_j + t)^(-m_j): N's Taylor coefficients by the
    binomial theorem, each other pole's by the binomial series.
    """
    if not 0 <= pole_index < len(f.poles):
        raise InvalidSpecError(f"pole_index {pole_index} out of range")
    location, order = f.poles[pole_index]
    z0 = _g(location)
    powers = [(Fraction(1), Fraction(0))]
    for _ in f.numerator:
        powers.append(_g_mul(powers[-1], z0))
    taylor = []
    for k in range(order):
        c = (Fraction(0), Fraction(0))
        for p in range(k, len(f.numerator)):
            term = _g_mul(_g(f.numerator[p]), powers[p - k])
            c = _g_add(c, (math.comb(p, k) * term[0], math.comb(p, k) * term[1]))
        taylor.append(c)
    series = [(Fraction(1), Fraction(0))] + [(Fraction(0), Fraction(0))] * (order - 1)
    for j, (other, m) in enumerate(f.poles):
        if j == pole_index:
            continue
        inv = _g_inv(_g_add(z0, _g(-other)))
        # (d + t)^(-m) = sum_k C(m+k-1, k) (-1)^k d^(-m-k) t^k
        power = (Fraction(1), Fraction(0))
        for _ in range(m):
            power = _g_mul(power, inv)
        factor = []
        for k in range(order):
            c = (-1) ** k * math.comb(m + k - 1, k)
            factor.append((c * power[0], c * power[1]))
            power = _g_mul(power, inv)
        series = [
            _g_add_all(_g_mul(series[i], factor[k - i]) for i in range(k + 1))
            for k in range(order)
        ]
    return _g_add_all(_g_mul(taylor[k], series[order - 1 - k]) for k in range(order))


def _g_add_all(terms):
    total = (Fraction(0), Fraction(0))
    for t in terms:
        total = _g_add(total, t)
    return total


def residue_at(f: FactoredRational, pole_index: int) -> complex:
    """Residue of f at f.poles[pole_index], each part rounded once."""
    re, im = residue_exact(f, pole_index)
    return complex(float(re), float(im))


def uhp_residue_sum(f: FactoredRational):
    """Exact sum of the residues of f at its upper-half-plane poles."""
    return _g_add_all(
        residue_exact(f, i) for i, (z, _) in enumerate(f.poles) if z.imag > 0
    )


def contour_integral(f: FactoredRational) -> float:
    """Real-line integral of f, real on the axis and at least two
    degrees below its denominator: 2 pi i times the UHP residue sum,
    -2 pi Im of it, rounded once before the product with 2 pi."""
    return -2.0 * PI * float(uhp_residue_sum(f)[1])

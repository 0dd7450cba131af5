"""Attractive delta well in reduced units: hbar = m = 1, kappa_0 = 1.

One bound state psi_0(x) = exp(-|x|) at E_0 = -1/2 plus a two-fold
continuum at E_k = k^2/2.  Odd scattering states never feel the well;
even ones pick up the 1/sqrt(1 + k^2) admixture.  All bound-continuum
matrix elements close in elementary form, e.g.

    <0|x|k, odd> = (4/sqrt(pi)) k / (1 + k^2)^2

so the sum rules turn into half-line integrals of rational functions.

The matrix-element kernels below are plain formulas in the continuum
wavenumber k, a float or an array: each needs every k finite and > 0
and checks nothing, since their callers integrate over quadrature
nodes that are positive by construction.  `bethe_strengths` gives both
parity channels of the Bethe integrand at once, since they share their
denominator, and takes the offset s = k - q from the peak.
"""

from __future__ import annotations

import math

import numpy as np

_PI = math.pi
_EIGHT_OVER_PI = 8.0 / _PI


def bound_energy() -> float:
    return -0.5


def energy_gap(k):
    """E_k - E_0 = (k^2 + 1)/2 at k > 0, the weight in every
    energy-weighted rule."""
    return 0.5 * (k * k + 1.0)


def x_me_bound(k):
    """<0|x|k, odd> = (4/sqrt(pi)) k/(1+k^2)^2 at k > 0; even states
    give zero."""
    return (4.0 / math.sqrt(_PI)) * k / (1.0 + k * k) ** 2


def x2_me_bound(k):
    """<0|x^2|k, even> = 8k / (sqrt(pi (1+k^2)) (1+k^2)^2) at k > 0;
    odd states give zero."""
    return 8.0 * k / (np.sqrt(_PI * (1.0 + k * k)) * (1.0 + k * k) ** 2)


def bethe_strengths(q: float, s):
    """The Bethe channel integrands (E_k - E_0) |<0|e^{iqx}|k>|^2 over odd
    and even final states, as the pair (odd, even), at k = q + s > 0:

        odd:  (8/pi) q^2 k^2 (k^2 + 1) / D^2      even:  (8/pi) q^4 k^2 / D^2

    the gap (k^2 + 1)/2 times the squared elements sqrt(4/pi) 2kq / D (an
    i dropped) and sqrt(4/(pi (1 + k^2))) 2kq^2 / D.  One k*k, and one
    D = ((2q + s)^2 + 1)(s^2 + 1), formed from s so that a node near the
    peak k = q keeps its accuracy at any q.  The numerators come first, so
    a q too large for them gives inf or NaN, never a value short of its peak.
    """
    k = q + s
    k2 = k * k
    d = ((2.0 * q + s) ** 2 + 1.0) * (s * s + 1.0)
    dd = d * d
    qk2 = _EIGHT_OVER_PI * (q * q) * k2
    return qk2 * (k2 + 1.0) / dd, qk2 * (q * q) / dd


def stark_shift2_delta(F: float) -> float:
    """Second-order shift of the bound level: -(5/8) F^2."""
    return -0.625 * F * F

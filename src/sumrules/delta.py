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
nodes that are positive by construction.  `bethe_me` gives both parity
channels of <0|e^{iqx}|k> at once, since they share their denominator.
"""

from __future__ import annotations

import math

import numpy as np

_PI = math.pi
_SQRT_4_OVER_PI = math.sqrt(4.0 / _PI)


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


def bethe_me(q: float, k):
    """<0|e^{iqx}|k> split by parity of the final state, as the pair
    (odd, even), at q > 0 and k > 0, from one D and one k*k.

    With D = ((k+q)^2 + 1)((k-q)^2 + 1):

        odd:  sqrt(4/pi) * 2kq / D          (times i, dropped as phase)
        even: sqrt(4/(pi(1+k^2))) * (-2kq^2) / D
    """
    denom = ((k + q) ** 2 + 1.0) * ((k - q) ** 2 + 1.0)
    odd = _SQRT_4_OVER_PI * 2.0 * k * q / denom
    even = np.sqrt(4.0 / (_PI * (1.0 + k * k))) * (-2.0 * k * q * q) / denom
    return odd, even


def stark_shift2_delta(F: float) -> float:
    """Second-order shift of the bound level: -(5/8) F^2."""
    return -0.625 * F * F

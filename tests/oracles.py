"""Independent oracles for the tests: wave functions, a full-line
quadrature and a single-residue wrapper.

No entry point of the package needs these; the tests use them to
rebuild matrix elements from their defining integrals and to check the
contour route one residue at a time.
"""

import math

import numpy as np

from sumrules.core import (
    DEFAULT_TOL,
    DomainError,
    InvalidSpecError,
    check_finite_positive,
    check_state_index,
)
from sumrules.quadrature import QuadratureResult, _tan_wrapped, integrate_interval
from sumrules.residue import FactoredRational, _residue_at_exact
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


def residue_at(f: FactoredRational, pole_index: int) -> complex:
    """Residue of f at f.poles[pole_index], rounded once from the exact
    Taylor coefficient."""
    if not 0 <= pole_index < len(f.poles):
        raise InvalidSpecError(f"pole_index {pole_index} out of range")
    re, im, d = _residue_at_exact(f, pole_index)
    return complex(re / d, im / d)

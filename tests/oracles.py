"""Independent oracles for the tests: wave functions, an adaptive
quadrature and an exact residue engine for rational functions.

No entry point of the package needs these; the tests use them to
rebuild matrix elements and contour values from their defining
integrals, and to hold the closed-form Bethe residues to a general
Taylor-series residue computed on Fractions.

The adaptive quadrature splits the worst panel first, each panel
evaluated by a 7-point and a separate 15-point Gauss-Legendre rule
whose difference is the panel's error estimate; half lines and the full
line go through a k = scale * tan(theta) map.  It shares no code with
the package's fixed-panel rule.  An integrand may return m rows, an
array of shape (m, N) for N nodes: each row runs its own loop, with its
own panels, totals and stopping test, and the loops run in lockstep,
one integrand call serving one bisection of every unconverged row;
each row's result is bit for bit the one a call with that row alone
would give.
"""

import heapq
import itertools
import math
from fractions import Fraction
from typing import Callable

import numpy as np

from sumrules.core import (
    DEFAULT_TOL,
    REL_ERR_FLOOR,
    DomainError,
    InvalidSpecError,
    Trace,
    check_finite_positive,
    check_state_index,
)
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


MAX_PANELS = 10_000
_INITIAL_PANELS = 8
_FAR_FIELD = 1e13  # |k| beyond which jacobian overflow is treated as zero tail
_ROUNDOFF = 4.0 * float(np.finfo(float).eps)

_GL7_NODES, _GL7_WEIGHTS = np.polynomial.legendre.leggauss(7)
_GL15_NODES, _GL15_WEIGHTS = np.polynomial.legendre.leggauss(15)
_NODES = np.concatenate((_GL7_NODES, _GL15_NODES))


class AdaptiveRows(tuple):
    """The per-row results of an m-row integrand, in row order, with
    the accounting of the call as a whole."""

    __slots__ = ()

    @property
    def evaluations(self) -> int:
        return sum(row.terms_used for row in self)

    @property
    def converged(self) -> bool:
        return all(row.converged for row in self)


def _panel_nodes(lo: list[float], hi: list[float]) -> tuple[list[float], np.ndarray]:
    """Half-widths of the panels [lo[i], hi[i]] and the nodes of all of
    them, panel by panel."""
    lo_, hi_ = np.array(lo), np.array(hi)
    half = 0.5 * (hi_ - lo_)
    mid = 0.5 * (hi_ + lo_)
    return half.tolist(), (mid[:, None] + half[:, None] * _NODES).ravel()


def _initial_panels(lo: float, hi: float) -> tuple:
    """(lower edges, upper edges, half-widths, nodes) of the initial panels."""
    edges = np.linspace(lo, hi, _INITIAL_PANELS + 1).tolist()
    return (edges[:-1], edges[1:], *_panel_nodes(edges[:-1], edges[1:]))


_HALF_LINE_PANELS = _initial_panels(0.0, 0.5 * math.pi)


def _panel(h: float, y: np.ndarray) -> tuple[float, float]:
    """(value, error) of a panel of half-width h from its 22 values.
    One dot per rule: a batched product can round differently."""
    low = h * float(_GL7_WEIGHTS.dot(y[:7]))
    high = h * float(_GL15_WEIGHTS.dot(y[7:]))
    return high, abs(high - low)


class _Row:
    """The panel heap and running totals of one row's adaptive loop."""

    __slots__ = ("heap", "value", "est", "abs_acc", "panels")

    def __init__(self) -> None:
        self.heap: list[tuple[float, int, float, float, float, float]] = []
        self.value = 0.0
        self.est = 0.0
        self.abs_acc = 0.0
        self.panels = _INITIAL_PANELS

    def target(self, tol: float, abs_tol: float) -> float:
        return max(tol * max(abs(self.value), REL_ERR_FLOOR), abs_tol)


def _checked(
    ys: np.ndarray, shape: tuple, xs: np.ndarray, lo: list[float], hi: list[float],
    check_finite: bool,
) -> np.ndarray:
    """Integrand values `ys` at the nodes `xs` of the panels [lo[i], hi[i]],
    as an (m, panels, 22) array once their shape is checked against
    `shape` + xs.shape, and their finiteness too if `check_finite`."""
    if ys.shape != shape + xs.shape or len(shape) > 1 or 0 in shape:
        raise InvalidSpecError("integrand must map an array to an array of the same shape")
    if check_finite:
        finite = np.isfinite(ys)
        if not finite.all():
            # panel of the first node at which any row is bad
            i = int(np.argmin(finite.reshape(-1, xs.size).all(axis=0))) // _NODES.size
            raise DomainError(f"integrand returned a non-finite value on [{lo[i]}, {hi[i]}]")
    return ys.reshape(-1, len(lo), _NODES.size)


def _adaptive(
    g: Callable,
    panels: tuple,
    tol: float,
    abs_tol: float,
    max_panels: int,
    check_finite: bool,
) -> Trace | AdaptiveRows:
    """The adaptive loops of the rows of g, in lockstep, from the
    initial `panels` of `_initial_panels`.  `check_finite` is False
    when g rejects non-finite values itself."""
    if tol <= 0 and abs_tol <= 0:
        raise InvalidSpecError("need a positive tol or abs_tol")
    lo, hi, half, xs = panels
    ys = np.asarray(g(xs), dtype=float)
    shape = ys.shape[:-1]  # () for a 1-D integrand, (m,) for m rows
    ys = _checked(ys, shape, xs, lo, hi, check_finite)

    rows = [_Row() for _ in ys]
    order = itertools.count()  # heap tie-break: of equal errors, the first pushed
    for row, values in zip(rows, ys):
        for a, b, h, y in zip(lo, hi, half, values):
            v, e = _panel(h, y)
            row.value += v
            row.est += e
            row.abs_acc += abs(v)
            heapq.heappush(row.heap, (-e, next(order), a, b, v, e))

    def unfinished(i: int) -> bool:
        row = rows[i]
        return row.est > row.target(tol, abs_tol) and row.panels < max_panels

    # each round splits the worst panel of every unfinished row, with
    # one integrand call over the nodes of all the halves
    active = [i for i in range(len(rows)) if unfinished(i)]
    while active:
        split = [heapq.heappop(rows[i].heap) for i in active]
        lo, hi = [], []
        for _, _, a, b, _, _ in split:
            mid = 0.5 * (a + b)
            lo += (a, mid)
            hi += (mid, b)
        half, xs = _panel_nodes(lo, hi)
        ys = _checked(np.asarray(g(xs), dtype=float), shape, xs, lo, hi, check_finite)
        for j, (i, (_, _, a, b, v, e)) in enumerate(zip(active, split)):
            row, mid = rows[i], lo[2 * j + 1]
            vl, el = _panel(half[2 * j], ys[i, 2 * j])
            vr, er = _panel(half[2 * j + 1], ys[i, 2 * j + 1])
            row.value += vl + vr - v
            row.est += el + er - e
            row.abs_acc += abs(vl) + abs(vr) - abs(v)
            heapq.heappush(row.heap, (-el, next(order), a, mid, vl, el))
            heapq.heappush(row.heap, (-er, next(order), mid, b, vr, er))
            row.panels += 1
        active = [i for i in active if unfinished(i)]

    results = []
    for row in rows:
        # roundoff floor: summing len(heap) panel values cannot beat this
        est = max(row.est, _ROUNDOFF * row.abs_acc)
        results.append(Trace(
            value=row.value,
            bound=est,
            # the initial panels, then two halves per bisection
            terms_used=_NODES.size * (2 * row.panels - _INITIAL_PANELS),
            converged=est <= row.target(tol, abs_tol),
        ))
    return AdaptiveRows(results) if shape else results[0]


def integrate_interval(
    g: Callable,
    lo: float,
    hi: float,
    tol: float = DEFAULT_TOL,
    abs_tol: float = 0.0,
    max_panels: int = MAX_PANELS,
) -> Trace | AdaptiveRows:
    """Adaptive integral of a vectorized integrand over [lo, hi].

    Converges when the summed panel error estimate drops below
    max(tol * |value|, abs_tol); otherwise returns converged=False after
    max_panels panels.  abs_tol = 0 demands pure relative convergence,
    which cannot be met for integrals that are exactly zero; pass a
    small abs_tol for parity-cancellation checks.  An integrand of m
    rows gets the m results, each row held to these targets alone.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidSpecError(f"bad interval [{lo}, {hi}]")
    return _adaptive(g, _initial_panels(lo, hi), tol, abs_tol, max_panels, True)


def _tan_wrapped(f: Callable, scale: float) -> Callable:
    def g(theta: np.ndarray) -> np.ndarray:
        c = np.cos(theta)
        k = scale * np.tan(theta)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            y = np.asarray(f(k), dtype=float) * (scale / (c * c))
        finite = np.isfinite(y)
        if not finite.all():
            # jacobian overflow deep in the tail is a true zero for any
            # integrand decaying at least as fast as 1/k^2
            bad = ~finite
            far = np.abs(k) >= _FAR_FIELD
            y = np.where(bad & far, 0.0, y)
            if (bad & ~far).any():
                raise DomainError("integrand returned a non-finite value at finite k")
        return y

    return g


def integrate_half_line(
    f: Callable,
    scale: float = 1.0,
    tol: float = DEFAULT_TOL,
) -> Trace | AdaptiveRows:
    """Adaptive integral of f over [0, inf) via the k = scale * tan(theta)
    map; for an f of m rows, the m integrals, from one call of f per round.

    `scale` sets where the substitution concentrates nodes (half the
    nodes land below k = scale); any positive value converges, a value
    near the natural width of f converges fastest.
    """
    check_finite_positive(scale, "scale")
    return _adaptive(_tan_wrapped(f, scale), _HALF_LINE_PANELS, tol, 0.0, MAX_PANELS, False)


def integrate_real_line(
    f,
    scale: float = 1.0,
    tol: float = DEFAULT_TOL,
    abs_tol: float = 0.0,
) -> Trace:
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

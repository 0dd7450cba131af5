"""Adaptive panel quadrature for continuum matrix-element integrals.

Semi-infinite integrals are mapped through k = scale * tan(theta), which
takes [0, inf) to [0, pi/2).  The transformed integrand is handled by an
adaptive bisection loop: each panel is evaluated by a 7-point and a
separate 15-point Gauss-Legendre rule (22 evaluations, no node shared),
whose difference serves as the panel error estimate, and the worst panel
is always split first.  Gauss nodes are interior, so the tan singularity
at the endpoint is never evaluated.  Python overhead per integrand call,
not the node count, sets the cost, so the initial panels share one call
and so do the two halves of each bisection.

Integrands must accept numpy arrays (all integrands in this package are
plain ufunc expressions) and should decay at least as fast as 1/k^2.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_TOL,
    REL_ERR_FLOOR,
    DomainError,
    InvalidSpecError,
    check_finite_positive,
)

MAX_PANELS = 10_000
_INITIAL_PANELS = 8
_FAR_FIELD = 1e13  # |k| beyond which jacobian overflow is treated as zero tail

_GL7_NODES, _GL7_WEIGHTS = np.polynomial.legendre.leggauss(7)
_GL15_NODES, _GL15_WEIGHTS = np.polynomial.legendre.leggauss(15)
_NODES = np.concatenate((_GL7_NODES, _GL15_NODES))


@dataclass(frozen=True)
class QuadratureResult:
    """Value and accounting for one adaptive integration."""

    value: float
    est_error: float
    evaluations: int
    converged: bool


def _eval_panels(g: Callable, edges: list[float]) -> list[tuple[float, float]]:
    """(value, error) of each panel between adjacent `edges`, from one
    integrand call over the nodes of all of them."""
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xs = (mid[:, None] + half[:, None] * _NODES).ravel()
    ys = np.asarray(g(xs), dtype=float)
    if ys.shape != xs.shape:
        raise InvalidSpecError("integrand must map an array to an array of the same shape")
    finite = np.isfinite(ys)
    if not np.all(finite):
        i = int(np.argmin(finite)) // _NODES.size  # panel of the first bad node
        raise DomainError(
            f"integrand returned a non-finite value on [{edges[i]}, {edges[i + 1]}]"
        )
    out = []
    for h, y in zip(half.tolist(), ys.reshape(-1, _NODES.size)):
        low = h * float(np.dot(_GL7_WEIGHTS, y[:7]))
        high = h * float(np.dot(_GL15_WEIGHTS, y[7:]))
        out.append((high, abs(high - low)))
    return out


def integrate_interval(
    g: Callable,
    lo: float,
    hi: float,
    tol: float = DEFAULT_TOL,
    abs_tol: float = 0.0,
    max_panels: int = MAX_PANELS,
) -> QuadratureResult:
    """Adaptive integral of a vectorized integrand over [lo, hi].

    Converges when the summed panel error estimate drops below
    max(tol * |value|, abs_tol); otherwise returns converged=False after
    max_panels panels.  abs_tol = 0 demands pure relative convergence,
    which cannot be met for integrals that are exactly zero; pass a
    small abs_tol for parity-cancellation checks.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidSpecError(f"bad interval [{lo}, {hi}]")
    if tol <= 0 and abs_tol <= 0:
        raise InvalidSpecError("need a positive tol or abs_tol")

    edges = np.linspace(lo, hi, _INITIAL_PANELS + 1).tolist()
    heap: list[tuple[float, int, float, float, float, float]] = []
    value = 0.0
    est = 0.0
    abs_acc = 0.0
    evaluations = 0
    counter = 0
    for a, b, (v, e) in zip(edges[:-1], edges[1:], _eval_panels(g, edges)):
        evaluations += 22
        value += v
        est += e
        abs_acc += abs(v)
        heapq.heappush(heap, (-e, counter, a, b, v, e))
        counter += 1

    def target() -> float:
        return max(tol * max(abs(value), REL_ERR_FLOOR), abs_tol)

    panels = _INITIAL_PANELS
    while est > target() and panels < max_panels:
        _, _, a, b, v, e = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        (vl, el), (vr, er) = _eval_panels(g, [a, mid, b])
        evaluations += 44
        value += vl + vr - v
        est += el + er - e
        abs_acc += abs(vl) + abs(vr) - abs(v)
        heapq.heappush(heap, (-el, counter, a, mid, vl, el))
        counter += 1
        heapq.heappush(heap, (-er, counter, mid, b, vr, er))
        counter += 1
        panels += 1

    # roundoff floor: summing len(heap) panel values cannot beat this
    est = max(est, 4.0 * float(np.finfo(float).eps) * abs_acc)
    return QuadratureResult(
        value=value,
        est_error=est,
        evaluations=evaluations,
        converged=est <= target(),
    )


def _tan_wrapped(f: Callable, scale: float) -> Callable:
    def g(theta: np.ndarray) -> np.ndarray:
        c = np.cos(theta)
        k = scale * np.tan(theta)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            y = f(k) * (scale / (c * c))
        y = np.asarray(y, dtype=float)
        bad = ~np.isfinite(y)
        if np.any(bad):
            # jacobian overflow deep in the tail is a true zero for any
            # integrand decaying at least as fast as 1/k^2
            far = np.abs(k) >= _FAR_FIELD
            y = np.where(bad & far, 0.0, y)
            if np.any(bad & ~far):
                raise DomainError("integrand returned a non-finite value at finite k")
        return y

    return g


def integrate_semi_inf(
    f: Callable,
    scale: float = 1.0,
    tol: float = DEFAULT_TOL,
) -> QuadratureResult:
    """Integral of f over [0, inf) via the k = scale * tan(theta) map.

    `scale` sets where the substitution concentrates nodes (half the
    nodes land below k = scale); any positive value converges, a value
    near the natural width of f converges fastest.
    """
    check_finite_positive(scale, "scale")
    return integrate_interval(_tan_wrapped(f, scale), 0.0, 0.5 * math.pi, tol=tol)


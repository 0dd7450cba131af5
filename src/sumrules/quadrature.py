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
An integrand may also return m rows, an array of shape (m, N) for N
nodes: each row is integrated by its own loop, with its own panels,
totals and stopping test, and the loops run in lockstep, so that one
integrand call over the nodes of every unconverged row serves one
bisection of each.  Each row's result is bit for bit the one a call
with that row alone would give.
"""

from __future__ import annotations

import heapq
import itertools
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
_ROUNDOFF = 4.0 * float(np.finfo(float).eps)

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


class QuadratureRows(tuple):
    """The per-row results of an m-row integrand, in row order, with
    the accounting of the call as a whole."""

    __slots__ = ()

    @property
    def evaluations(self) -> int:
        return sum(row.evaluations for row in self)

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
) -> QuadratureResult | QuadratureRows:
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
        results.append(QuadratureResult(
            value=row.value,
            est_error=est,
            # the initial panels, then two halves per bisection
            evaluations=_NODES.size * (2 * row.panels - _INITIAL_PANELS),
            converged=est <= row.target(tol, abs_tol),
        ))
    return QuadratureRows(results) if shape else results[0]


def integrate_interval(
    g: Callable,
    lo: float,
    hi: float,
    tol: float = DEFAULT_TOL,
    abs_tol: float = 0.0,
    max_panels: int = MAX_PANELS,
) -> QuadratureResult | QuadratureRows:
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


def integrate_semi_inf(
    f: Callable,
    scale: float = 1.0,
    tol: float = DEFAULT_TOL,
) -> QuadratureResult | QuadratureRows:
    """Integral of f over [0, inf) via the k = scale * tan(theta) map;
    for an f of m rows, the m integrals, from one call of f per round.

    `scale` sets where the substitution concentrates nodes (half the
    nodes land below k = scale); any positive value converges, a value
    near the natural width of f converges fastest.
    """
    check_finite_positive(scale, "scale")
    return _adaptive(_tan_wrapped(f, scale), _HALF_LINE_PANELS, tol, 0.0, MAX_PANELS, False)

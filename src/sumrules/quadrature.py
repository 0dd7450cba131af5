"""Certified fixed-panel Gauss-Legendre quadrature for the delta well's
rational integrands.

Each row of a delta-well integral over k >= 0 has the shape (c, a) of
c k^2 (k^2 + 1)^a / D(k)^2, D(k) = ((k + q)^2 + 1)((k - q)^2 + 1): the
Bethe channels at their q, the parameter-free rows at q = 0.  The panels
depend on q alone.  In the offset s = k - q they grow from the peak at
s = 0, each of half-width hypot(s, 1)/BETA at its inner edge, out to
k = 0 and to K = 2q + 4; [K, inf) is one more panel, through k = K/t.
Each takes N Gauss-Legendre nodes, and the integrand is called once, on
the nodes' offsets s, so a node near the peak keeps its relative
accuracy at any q.

The error bound is a theorem.  On a panel of half-width h, for f
analytic with |f| <= M inside the Bernstein ellipse E_rho, the error is
at most h (64/15) M rho^(-2N) / (rho^2 - 1) (Trefethen, Approximation
Theory and Approximation Practice, Thm 19.3).  A pole p lies on E_rho_p
(the Joukowski map), and |z - p| >= h (rho_p - rho)(1 - 1/(rho rho_p))/2
on E_rho for rho < rho_p, which bounds M; each panel keeps the least
bound over a few rho, taken in log space.  A row's bound sums the
panels' bounds and adds 8 eps sum |w f h| for rounding.  The bound reads
the shape, and so the poles +-q +- i that the residue route also uses;
the value reads only the integrand.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .core import DEFAULT_TOL, Trace, converged

N = 20
BETA = 2.0
_X, _W = np.polynomial.legendre.leggauss(N)
_T = 0.5 + 0.5 * _X  # the tail's nodes in t, and their weights times K
_TAIL_W = 0.5 * _W / (_T * _T)
# candidate rho per panel: rho_max ** power, rho_max the nearest pole's
_POWERS = np.array([0.5, 0.7, 0.85, 0.95])
_LOG_64_15 = math.log(64.0 / 15.0)
_ROUNDOFF = 8.0 * float(np.finfo(float).eps)


class QuadratureRows(tuple):
    """The traces of the rows of one integration, in row order; they
    share its nodes, so `evaluations` counts each node once."""

    __slots__ = ()
    evaluations = property(lambda self: self[0].terms_used)
    converged = property(lambda self: all(row.converged for row in self))


def _edges(length: float) -> list[float]:
    """Panel edges from 0 out to `length`, growing as hypot(s, 1)/BETA."""
    edges = [0.0]
    while edges[-1] < length:
        edges.append(edges[-1] + 2.0 * math.hypot(edges[-1], 1.0) / BETA)
    edges[-1] = length
    return edges


def _bounds(mid, half, points, exps, log_c) -> np.ndarray:
    """Each row's error bound, summed over the panels [mid - half,
    mid + half].  On panel i, row r's integrand in the panel's variable z
    is exp(log_c[r, i]) prod_j (z - points[i, j])^exps[r, i, j], and the
    points of a negative exponent, the poles, lie off the panel."""
    off = points - mid[:, None]  # (panel, point)
    dist = np.abs(off)
    # caps keep w^2 finite; shrinking w toward 0 only lowers rho_p
    w = off * (1.0 / np.maximum(np.maximum(half[:, None], 1e-6 * dist), 1e-300))
    root = np.sqrt(w * w - 1.0)
    rho_p = np.maximum(np.abs(w + root), np.abs(w - root))
    poles = (exps < 0).any(axis=(0, 1))
    log_rho = np.log(rho_p[:, poles].min(axis=1))[:, None] * _POWERS  # (panel, candidate)
    rho = np.exp(log_rho)
    # E_rho lies within reach = h (rho + 1/rho)/2 of mid, so |z - p| is at
    # most dist + reach at a zero p, and at a pole at least h delta (sharp
    # near the panel) and dist - reach (sharp far from it)
    h = half[:, None, None]
    reach = h * (0.5 * (rho + 1.0 / rho))[:, None, :]
    dist = dist[:, :, None]
    rp, r = rho_p[:, :, None], rho[:, None, :]
    gap = np.maximum(0.5 * h * (rp - r) * (1.0 - 1.0 / (r * rp)), dist - reach)
    log_m = (log_c[:, :, None]
             + np.einsum("rpj,pjc->rpc", np.maximum(exps, 0), np.log(dist + reach))
             + np.einsum("rpj,pjc->rpc", np.minimum(exps, 0),
                         np.log(np.where(poles[:, None], gap, 1.0))))
    # log of h (64/15) rho^(-2N) / (rho^2 - 1), with rho^2 - 1 = rho (rho - 1/rho)
    log_e = (np.log(half)[:, None] + _LOG_64_15 - (2 * N + 1) * log_rho
             - np.log(rho - 1.0 / rho))
    return np.exp(np.min(log_m + log_e, axis=2)).sum(axis=1)


def _factors(q: float, shapes: Sequence[tuple[float, int]]) -> tuple:
    """(points, exps, log_c) of the rows of `shapes` at q: on the panels
    in s (kind 0) and on the tail in t, k = K/t (kind 1), row r's
    integrand is exp(log_c[r, kind]) prod_j (z - points[kind, j])^exps[r, kind, j]
    in the panel's variable z."""
    big_k = 2.0 * q + 4.0
    p = np.array([q + 1j, q - 1j, -q + 1j, -q - 1j])
    # in s: k^2 at s = -q, k^2 + 1 at -q +- i, D at +-i and -2q +- i; in t:
    # c K^3 t^(4 - 2a) (t^2 + K^2)^a / ((q^2 + 1)^4 prod_p (t - K/p)^2)
    points = np.array([np.concatenate(([-q, -q + 1j, -q - 1j], p - q)),
                       np.concatenate(([0.0, 1j * big_k, -1j * big_k], big_k / p))])
    a = np.array([float(shape[1]) for shape in shapes])
    exps = np.empty((len(shapes), 2, 7))
    exps[:, :, 1:3] = a[:, None, None]
    exps[:, :, 3:] = -2.0
    exps[:, 0, 0] = 2.0
    exps[:, 1, 0] = 4.0 - 2.0 * a
    log_c = np.array([math.log(c) if c > 0.0 else -math.inf for c, _ in shapes])
    tail = 3.0 * math.log(big_k) - 8.0 * math.log(math.hypot(q, 1.0))
    return points, exps, log_c[:, None] + np.array([0.0, tail])


def integrate_semi_inf(
    f: Callable,
    shapes: Sequence[tuple[float, int]],
    q: float = 0.0,
    tol: float = DEFAULT_TOL,
) -> QuadratureRows:
    """The integral over k in [0, inf) of each row of f, row r of the
    shape shapes[r] = (c, a) at q >= 0.  f maps the nodes' offsets
    s = k - q, a numpy array, to an array of shape (len(shapes), len(s));
    a non-finite value leaves its row non-finite and unconverged.  Each
    row's trace counts the nodes as its terms; only its `converged` reads
    tol.
    """
    edges = np.array([-e for e in _edges(q)[:0:-1]] + _edges(q + 4.0))  # to K = 2q + 4
    mid = 0.5 * edges[1:] + 0.5 * edges[:-1]
    half = 0.5 * edges[1:] - 0.5 * edges[:-1]
    keep = half > 0.0  # a q below twice the smallest float leaves a 0-width panel
    mid, half = mid[keep], half[keep]
    # far past the q range the nodes, values and bounds overflow; they
    # are reported as inf or NaN, and the row as unconverged
    with np.errstate(all="ignore"):
        big_k = 2.0 * q + 4.0
        s = np.concatenate(((mid[:, None] + half[:, None] * _X).ravel(), big_k / _T - q))
        weights = np.concatenate(((half[:, None] * _W).ravel(), big_k * _TAIL_W))
        values = np.asarray(f(s), dtype=float).reshape(len(shapes), s.size)

        points, exps, log_c = _factors(q, shapes)
        kind = np.arange(len(mid) + 1) // len(mid)  # 0 on the panels, then 1 on the tail
        tail = np.array([0.5])
        bounds = _bounds(np.concatenate((mid, tail)), np.concatenate((half, tail)),
                         points[kind], exps[:, kind], log_c[:, kind])
        # one dot per row: a batched product can round differently
        rows = []
        for row, bound in zip(values, bounds):
            value = float(row.dot(weights))
            bound = float(bound + _ROUNDOFF * np.abs(row).dot(weights))
            rows.append(Trace(value, bound, s.size, converged(value, bound, tol)))
        return QuadratureRows(rows)

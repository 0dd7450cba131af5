"""Shared error types, input checks and the brute route's trace record.

Everything numerical in this package runs in reduced units (hbar = m = 1,
and well width a = 1 for the box model or kappa0 = 1 for the delta model).
This module holds what every other module shares: the error hierarchy,
the checks on state indices and on positive scalars, the brute routes'
trace record and convergence rule, and the relative-error rule every
check is judged by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

DEFAULT_TOL = 1e-9
REL_ERR_FLOOR = 1e-300


class SumRuleError(Exception):
    """Base class for errors raised by this package."""


class InvalidSpecError(SumRuleError, ValueError):
    """Model or rule specification violates a precondition."""


class DomainError(SumRuleError, ValueError):
    """Function evaluated outside its mathematical domain."""


class PoleError(SumRuleError, ValueError):
    """Closed-form evaluation requested too close to a real pole."""


class ConvergenceError(SumRuleError, RuntimeError):
    """An iterative limit or extrapolation failed to settle."""


class InconsistencyError(SumRuleError, RuntimeError):
    """Two routes that must agree internally did not."""


def check_state_index(n, name: str = "n") -> int:
    """n as an int; InvalidSpecError unless it is an integer >= 1."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise InvalidSpecError(f"{name} must be an integer >= 1, got {n!r}")
    return int(n)


def check_finite_positive(value: float, name: str) -> float:
    """value unchanged; InvalidSpecError unless it is finite and > 0."""
    if not (math.isfinite(value) and value > 0.0):
        raise InvalidSpecError(f"{name} must be finite and > 0, got {value}")
    return value


class ModelKind(Enum):
    ISW = "isw"
    DELTA = "delta"


@dataclass(frozen=True)
class Trace:
    """Record of one brute route: a lattice sum or a quadrature.

    `value` is the route's estimate and `bound` a bound on its error, in
    the raw sum's or integral's units.  `terms_used` counts the terms of
    the weighted sum that gave `value`: lattice terms, a mirror pair
    counting as two, or quadrature nodes.  `converged` is the verdict of
    `converged` below at the caller's tol.  A lattice sum also keeps its
    raw partial sums at geometrically spaced checkpoints, ending with the
    final one, and the terms summed at each; a quadrature keeps none.
    """

    value: float
    bound: float
    terms_used: int
    converged: bool
    partial_sums: tuple[float, ...] = ()
    checkpoint_terms: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if len(self.checkpoint_terms) != len(self.partial_sums):
            raise InvalidSpecError("checkpoint_terms must match partial_sums")
        if self.terms_used < 0:
            raise InvalidSpecError("terms_used must be nonnegative")
        if self.bound < 0:
            raise InvalidSpecError("bound must be nonnegative")


def converged(value: float, bound: float, tol: float) -> bool:
    """The one convergence rule of every brute route: `bound` is within
    tol of |value|, floored at REL_ERR_FLOOR.  An infinite bound, that of
    a sum cut short by its term cap, never converges."""
    return bound < math.inf and bound <= tol * max(abs(value), REL_ERR_FLOOR)


def rel_err(analytic: float, value: float) -> float:
    """|analytic - value| / max(|analytic|, REL_ERR_FLOOR): the floor keeps
    an exact zero target from blowing up the ratio."""
    return abs(analytic - value) / max(abs(analytic), REL_ERR_FLOOR)

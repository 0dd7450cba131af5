"""Shared error types, input checks and the brute-force truncation record.

Everything numerical in this package runs in reduced units (hbar = m = 1,
and well width a = 1 for the box model or kappa0 = 1 for the delta model).
This module holds what every other module shares: the error hierarchy,
the checks on state indices and on positive scalars, the brute-force
truncation record and the relative-error rule every check is judged by.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

DEFAULT_TOL = 1e-9
REL_ERR_FLOOR = 1e-300

DEFAULT_MAX_TERMS = 10_000_000
KMAX_ENV_VAR = "SUMRULE_KMAX"


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


def default_max_terms() -> int:
    """Truncation cap for brute-force sums; SUMRULE_KMAX overrides."""
    raw = os.environ.get(KMAX_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_TERMS
    try:
        value = int(raw)
    except ValueError as exc:
        raise InvalidSpecError(f"{KMAX_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise InvalidSpecError(f"{KMAX_ENV_VAR} must be positive, got {value}")
    return value


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
class TruncationTrace:
    """Record of one brute-force partial summation.

    `value` is the returned estimate: the raw partial sum plus an
    integral tail correction.  `partial_sums` holds raw partial sums at
    geometrically spaced checkpoints (always ending with the final one),
    and `checkpoint_terms` the number of terms summed at each of them.
    `tail_estimate` bounds the residual error left after the correction,
    so `converged` means it fell within the requested tolerance of
    |value|.
    """

    value: float
    partial_sums: tuple[float, ...]
    checkpoint_terms: tuple[int, ...]
    terms_used: int
    tail_estimate: float
    converged: bool

    def __post_init__(self) -> None:
        if not self.partial_sums:
            raise InvalidSpecError("partial_sums must be nonempty")
        if len(self.checkpoint_terms) != len(self.partial_sums):
            raise InvalidSpecError("checkpoint_terms must match partial_sums")
        if self.terms_used < 0:
            raise InvalidSpecError("terms_used must be nonnegative")
        if self.tail_estimate < 0:
            raise InvalidSpecError("tail_estimate must be nonnegative")


def rel_err(analytic: float, value: float) -> float:
    """|analytic - value| / max(|analytic|, REL_ERR_FLOOR): the floor keeps
    an exact zero target from blowing up the ratio."""
    return abs(analytic - value) / max(abs(analytic), REL_ERR_FLOOR)

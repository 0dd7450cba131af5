"""Exactly solvable quantum sum rules, verified two independent ways.

Two models in reduced units (infinite square well on [0, 1]; single
attractive delta well with kappa_0 = 1), four sum rules (closure,
Thomas-Reiche-Kuhn, monopole, Bethe) and second-order Stark shifts.
Each quantity is computed along a closed analytic route and a
brute-force numerical route; `engine.verify` compares both against the
analytic right-hand side.
"""

from .core import (
    ConvergenceError,
    DomainError,
    InconsistencyError,
    InvalidSpecError,
    ModelKind,
    PoleError,
    SumRuleError,
    Trace,
)
from .engine import (
    RuleVerification,
    SumRuleSpec,
    analytic_rhs,
    bethe_components,
    stark_verify,
    verify,
)
from .series import Parity

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DomainError",
    "InconsistencyError",
    "InvalidSpecError",
    "ModelKind",
    "Parity",
    "PoleError",
    "RuleVerification",
    "SumRuleError",
    "SumRuleSpec",
    "Trace",
    "analytic_rhs",
    "bethe_components",
    "stark_verify",
    "verify",
    "__version__",
]

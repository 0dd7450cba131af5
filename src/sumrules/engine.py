"""Dual-route sum-rule verification.

Every rule is checked along two independent numerical routes and both
are compared against the analytic right-hand side:

  closed   lattice sums collapsed through cotangent identities (box) or
           half-line moments and contour residues (delta well)
  brute    direct truncated summation with a tail correction (box) or
           fixed-panel quadrature of the defining integral (delta well)

Every check but bethe, Stark shifts included, is a row of its model's
table, whose two routes `_check` builds for `verify` and `stark_verify`
alike; the one `RuleVerification` returned only passes if both routes do.
Bethe is the sum of two channel records from `bethe_components`, one
per parity, each with its rational closed form as the analytic value,
the residue as closed route and the quadrature as brute route.  One
contour call gives both channels' residues, and one two-row
integration both quadratures.  Every delta-well quadrature is the
certified fixed-panel rule of `quadrature`: its error bound reads the
integrand's rational shape, and so the poles +-q +- i that the residue
route also uses, while its value reads only the integrand.
The two routes share nothing past the matrix elements, which is the
point: agreement is evidence the algebra and the numerics are each
right, disagreement raises or flags instead of averaging away.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

from . import delta, isw, quadrature, residue, series
from .core import (
    DEFAULT_TOL,
    InconsistencyError,
    InvalidSpecError,
    ModelKind,
    TruncationTrace,
    check_finite_positive,
    check_state_index,
    rel_err,
)
from .quadrature import QuadratureResult
from .series import Parity

_PI = math.pi

# Residue and quadrature evaluate the same Bethe component integrals;
# they must agree even when the rule itself is being stressed.
_CROSS_CHECK_TOL = 1e-8


RULES = ("closure", "trk", "monopole", "bethe")


@dataclass(frozen=True)
class SumRuleSpec:
    """One rule, named by one of RULES: closure is sum_k |<n|x|k>|^2,
    and trk, monopole and bethe weight |<n|op|k>|^2 by E_k - E_n for
    op = x, x^2 and exp(iqx).  `n` is the box quantum number and is
    ignored by the delta well, whose initial state is always the single
    bound level.  `q` is required by and only by bethe.
    """

    rule: str
    n: int = 1
    q: float | None = None

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise InvalidSpecError(f"unknown rule {self.rule!r}; expected one of {RULES}")
        object.__setattr__(self, "n", check_state_index(self.n))
        if self.rule == "bethe":
            if self.q is None:
                raise InvalidSpecError("bethe needs a momentum transfer q")
            object.__setattr__(self, "q", check_finite_positive(float(self.q), "q"))
        elif self.q is not None:
            raise InvalidSpecError("q is only meaningful for bethe")


@dataclass(frozen=True)
class RuleVerification:
    """One check of a rule, Stark shift or lattice sum: the analytic
    target, the value along each route, and the brute route's trace.

    `rule` is the name the report prints ("trk", "stark", "series.sum").
    `closed` comes through identities (cotangent chains or exact moments
    and residues), `brute` from the truncated sum or quadrature that
    `trace` records.  `model` is None for a bare lattice sum, which
    belongs to neither model.  `components` holds the (odd, even)
    channel records a bethe row sums; it is None for every other check,
    and no verdict reads it.
    The relative errors and the verdict are derived: the check passes
    when both routes are within `tol` of `analytic`.
    """

    rule: str
    model: ModelKind | None
    params: Mapping[str, float]
    analytic: float
    closed: float
    brute: float
    trace: TruncationTrace | QuadratureResult
    tol: float
    components: tuple[RuleVerification, RuleVerification] | None = None

    @property
    def rel_err_closed(self) -> float:
        return rel_err(self.analytic, self.closed)

    @property
    def rel_err_brute(self) -> float:
        return rel_err(self.analytic, self.brute)

    @property
    def passed(self) -> bool:
        # a NaN route compares false, so it never passes
        return self.rel_err_closed <= self.tol and self.rel_err_brute <= self.tol


def half_line_moment(w: int, p: int) -> float:
    """Exact integral of k^(2w) / (1 + k^2)^p over [0, inf).

    Equals Gamma(w + 1/2) Gamma(p - w - 1/2) / (2 Gamma(p)); needs
    p > w + 1/2 for convergence.
    """
    if w < 0 or p < 1:
        raise InvalidSpecError(f"need w >= 0 and p >= 1, got w={w}, p={p}")
    if 2 * p <= 2 * w + 1:
        raise InvalidSpecError(f"moment diverges for w={w}, p={p}")
    return math.gamma(w + 0.5) * math.gamma(p - w - 0.5) / (2.0 * math.gamma(p))


# Every check but bethe is a row of each model's table; `_check` scales
# both routes by 1 for a rule and by -F^2 for stark.  Box rows: (p,
# prefactor(n), offset) of offset + prefactor(n) * L(n), L being the p
# lattice sum of `box_lattice_sum`.  -0.0 is no offset: 0.0 + -0.0 is +0.0.
_BOX_CHECKS = {
    "closure": (4, lambda n: 64.0 * n * n / _PI**4, 0.25),
    "trk": (3, lambda n: 32.0 * n * n / _PI**2, -0.0),
    "monopole": (3, lambda n: 32.0 * n * n / _PI**2, -0.0),
    "stark": (5, lambda n: 2.0 * (8.0 * n / _PI**2) ** 2, -0.0),
}
# Delta-well rows: (c, p) of the closed route (c / pi) * half_line_moment(1, p),
# and the quadrature integrand over k >= 0, of the quadrature's shape (c / pi, 4 - p).
_DELTA_CHECKS = {
    "closure": (16.0, 4, lambda k: delta.x_me_bound(k) ** 2),
    "trk": (8.0, 3, lambda k: delta.energy_gap(k) * delta.x_me_bound(k) ** 2),
    "monopole": (32.0, 4, lambda k: delta.energy_gap(k) * delta.x2_me_bound(k) ** 2),
    "stark": (32.0, 5, lambda k: delta.x_me_bound(k) ** 2 / delta.energy_gap(k)),
}


@functools.cache
def _delta_quadratures() -> dict[str, QuadratureResult]:
    """The quadrature of each delta row of _DELTA_CHECKS, from one
    four-row integration per process: they have no input, and their
    callers read `converged` at their own tol."""
    checks = _DELTA_CHECKS.values()
    rows = quadrature.integrate_semi_inf(
        lambda k: [integrand(k) for _, _, integrand in checks],
        [(c / _PI, 4 - p) for c, p, _ in checks],
    )
    return dict(zip(_DELTA_CHECKS, rows))


def analytic_rhs(spec: SumRuleSpec, model: ModelKind) -> float:
    """Right-hand side of the rule in reduced units."""
    if not isinstance(model, ModelKind):
        raise InvalidSpecError(f"model must be a ModelKind, got {model!r}")
    if model is ModelKind.ISW:
        if spec.rule == "bethe":
            raise InvalidSpecError("the box has no Bethe rule here; use the delta well")
        if spec.rule == "trk":
            return 0.5
        x2 = isw.x2_me(spec.n, spec.n)
        return x2 if spec.rule == "closure" else 2.0 * x2
    if spec.rule == "bethe":
        return 0.5 * spec.q * spec.q
    return 1.0 if spec.rule == "monopole" else 0.5


def bethe_component_closed(parity: Parity, q: float) -> float:
    """Rational closed form of one parity channel of the Bethe sum.

    odd:  (q^2/2) (1 + q^2/2) / (1 + q^2)
    even: (q^2/2) (q^2/2) / (1 + q^2)

    The channels sum to q^2/2 identically.
    """
    half_q2 = 0.5 * q * q
    if parity is Parity.ODD:
        return half_q2 * (1.0 + half_q2) / (1.0 + q * q)
    if parity is Parity.EVEN:
        return half_q2 * half_q2 / (1.0 + q * q)
    raise InvalidSpecError("Bethe components are even or odd")


def _bethe_residues(q: float):
    """Yield the (odd, even) residue routes at q, from one contour call.
    The even prefactor's q**4 raises OverflowError above q ~ 1.2e77, so it
    is formed only when the caller asks for the even channel, after the
    odd one has passed its cross-check."""
    odd, even = residue.contour_integral_uhp(q)
    yield 4.0 * q * q / _PI * odd
    yield 4.0 * q**4 / _PI * even


def _bethe_quadratures(q: float, tol: float):
    """The (odd, even) Bethe channel quadratures at q, one integration
    of the two rows of `delta.bethe_strengths`, in their shapes."""
    q2 = q * q
    shapes = ((8.0 / _PI * q2, 1), (8.0 / _PI * q2 * q2, 0))
    return quadrature.integrate_semi_inf(
        functools.partial(delta.bethe_strengths, q), shapes, q, tol)


def bethe_components(
    q: float, tol: float = DEFAULT_TOL
) -> tuple[RuleVerification, RuleVerification]:
    """The (odd, even) Bethe channels at q, one record each: analytic
    is the channel's rational closed form, closed its residue and brute
    its quadrature, whose result is the trace.  Both quadratures are
    the rows of one two-row integration.

    Raises InconsistencyError if residue and quadrature values for the
    same channel drift apart by more than an internal guard tolerance;
    that can only mean a bug, not a hard integral.
    """
    q = check_finite_positive(float(q), "q")
    check_finite_positive(tol, "tol")
    quads = _bethe_quadratures(q, tol)
    channels = []
    for parity, quad, res in zip((Parity.ODD, Parity.EVEN), quads, _bethe_residues(q)):
        dev = rel_err(res, quad.value)
        if not dev <= _CROSS_CHECK_TOL:  # a NaN deviation fails too
            raise InconsistencyError(
                f"Bethe {parity.value} channel at q={q}: residue {res!r} vs "
                f"quadrature {quad.value!r} (rel dev {dev:.3e})"
            )
        channels.append(RuleVerification(
            f"bethe.{parity.value}", ModelKind.DELTA, {"q": q},
            bethe_component_closed(parity, q), res, quad.value, quad, tol,
        ))
    return tuple(channels)


def box_lattice_sum(rule: str, n: int) -> tuple[float, dict]:
    """The raw lattice sum behind box check `rule` (a key of _BOX_CHECKS)
    at state n: its closed value, and the `series.brute_sum` arguments
    that sum it term by term.
    """
    p = _BOX_CHECKS[rule][0]
    if rule != "monopole":
        return series.weighted_k2_sum(p, n), dict(
            p=p, z=n, parity=series.opposite_parity(n), weight_k2=True
        )
    # x^2 couples to every k, so the sum runs over the full lattice with
    # the k = n term struck out.
    return series.removed_term_limit_closed(n), dict(
        p=p, z=n, parity=Parity.ALL, weight_k2=True, exclude=n
    )


def _check(
    rule: str, model: ModelKind, params: dict, analytic: float, scale: float,
    tol: float, max_terms: int | None,
) -> RuleVerification:
    """Both routes of the row of `rule` in the table of `model` (at box
    state params["n"]), each times `scale`, held against `analytic`."""
    check_finite_positive(tol, "tol")
    if model is ModelKind.ISW:
        _, prefactor, offset = _BOX_CHECKS[rule]
        closed, brute_args = box_lattice_sum(rule, params["n"])
        trace = series.brute_sum(**brute_args, tol=tol, max_terms=max_terms)
        factor = scale * prefactor(params["n"])
        closed, brute = offset + factor * closed, offset + factor * trace.value
    else:
        c, p, _ = _DELTA_CHECKS[rule]
        trace = _delta_quadratures()[rule].at(tol)
        closed, brute = scale * (c / _PI) * half_line_moment(1, p), scale * trace.value
    return RuleVerification(rule, model, params, analytic, closed, brute, trace, tol)


def verify(
    spec: SumRuleSpec,
    model: ModelKind,
    tol: float = DEFAULT_TOL,
    max_terms: int | None = None,
) -> RuleVerification:
    """Check one rule along both routes against its analytic value.

    A rule but bethe is its model's table row, on the box a lattice sum
    with its diagonal terms.  The delta well's initial state is always
    the single bound level; bethe's routes and trace are the sums of
    its two channel records, which it keeps in `components`.
    """
    analytic = analytic_rhs(spec, model)
    if spec.rule != "bethe":
        params = {"n": spec.n} if model is ModelKind.ISW else {}
        return _check(spec.rule, model, params, analytic, 1.0, tol, max_terms)
    odd, even = bethe_components(spec.q, tol=tol)
    trace = QuadratureResult(
        value=odd.brute + even.brute,
        est_error=odd.trace.est_error + even.trace.est_error,
        evaluations=odd.trace.evaluations,  # the channels share their nodes
        converged=odd.trace.converged and even.trace.converged,
    )
    return RuleVerification(
        spec.rule, model, {"q": spec.q}, analytic,
        odd.closed + even.closed, trace.value, trace, tol, (odd, even),
    )


def stark_verify(
    model: ModelKind,
    n: int | None = None,
    F: float = 1.0,
    tol: float = DEFAULT_TOL,
    max_terms: int | None = None,
) -> RuleVerification:
    """Compare the closed-form second-order shift with the summed one.

    `n` names the unperturbed state: a quantum number for the box
    (default 1), and None for the delta well, whose only discrete state
    is the bound level.  Both routes are the model's stark row, the same
    lattice sum or moment and quadrature as the rules, times -F^2.
    """
    F = float(F)
    if not math.isfinite(F):
        raise InvalidSpecError(f"field strength must be finite, got {F!r}")
    if model is ModelKind.ISW:
        n = check_state_index(1 if n is None else n, "box state")
        analytic, params = isw.stark_shift2(n, F), {"n": n, "F": F}
    elif model is ModelKind.DELTA:
        if n is not None:
            raise InvalidSpecError(f"the delta well has one bound state; got state {n!r}")
        analytic, params = delta.stark_shift2_delta(F), {"F": F}
    else:
        raise InvalidSpecError(f"model must be a ModelKind, got {model!r}")
    return _check("stark", model, params, analytic, -F * F, tol, max_terms)

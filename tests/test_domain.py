"""An earned-PASS judge over the accepted domain.

Every row of a fixed grid runs through `engine` and is held against its
exact right side.  Each row must have no NaN field and a brute route
within its own bound in the rule's units plus 8 ulp; a row that passes
must have a converged trace and that bound under tol times the right
side.  The box rows' right sides are the textbook ones `bench/gate.py`
uses, computed by mpmath at 40 digits; mpmath is a test-only
dependency, and without it those tests skip.  The delta well's Bethe
channels are rational in q, so their exact values are Fractions.
"""

import math
from fractions import Fraction

import pytest

from sumrules.core import ModelKind
from sumrules.engine import SumRuleSpec, bethe_components, stark_verify, verify

from test_engine import _BOX_HEX, _DELTA_RULE_HEX

try:
    import mpmath
except ImportError:
    mpmath = None
needs_mpmath = pytest.mark.skipif(mpmath is None, reason="mpmath is not installed")

# 13 log-spaced n over [1, 1e5]
NS = sorted({round(10 ** (5 * i / 12)) for i in range(13)})
TOLS = (1e-2, 1e-3, 1e-6, 1e-9, 1e-12)
RULES = ("closure", "trk", "monopole", "stark")

# raw lattice-sum tail estimates scale into rule units by the matrix
# elements' prefactor, the stark one times F^2, as in bench/gate.py
PREFACTOR = {
    "closure": lambda n: 64.0 * n * n / math.pi**4,
    "trk": lambda n: 32.0 * n * n / math.pi**2,
    "monopole": lambda n: 32.0 * n * n / math.pi**2,
    "stark": lambda n: 2.0 * (8.0 * n / math.pi**2) ** 2,
}


def exact(rule: str, n: int, F: float | None):
    """The rule's right side at box state n, as a 40-digit mpf."""
    with mpmath.workdps(40):
        pi2 = mpmath.pi**2
        x2 = mpmath.mpf(1) / 3 - 1 / (2 * n * n * pi2)  # <n|x^2|n>
        if rule == "closure":
            return +x2
        if rule == "monopole":
            return 2 * x2
        if rule == "trk":
            return mpmath.mpf(1) / 2
        F = mpmath.mpf(F)
        return -F * F * (15 - n * n * pi2) / (24 * pi2 * mpmath.mpf(n) ** 4)


def judge(rule: str, n: int, F: float | None, tol: float) -> None:
    """Run one box row and assert the judge's invariants."""
    if F is None:
        check = verify(SumRuleSpec(rule, n=n), ModelKind.ISW, tol)
    else:
        check = stark_verify(ModelKind.ISW, n, F, tol)
    trace = check.trace
    fields = (check.closed, check.brute, check.rel_err_closed, check.rel_err_brute,
              trace.value, trace.tail_estimate)
    assert not any(math.isnan(v) for v in fields), (rule, n, tol, fields)
    target = exact(rule, n, F)
    scale = PREFACTOR[rule](n) * (1.0 if F is None else F * F)
    with mpmath.workdps(40):
        error = abs(mpmath.mpf(check.brute) - target)
        allowed = (mpmath.mpf(trace.tail_estimate) * mpmath.mpf(scale)
                   + 8 * mpmath.mpf(math.ulp(float(target))))
        assert error <= allowed, (rule, n, tol, float(error), float(allowed))
    if check.passed:
        assert trace.converged, (rule, n, tol)
        assert trace.tail_estimate * scale <= tol * abs(float(target)), (rule, n, tol)


@needs_mpmath
@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("rule", RULES)
def test_box_rows_earn_their_verdicts(rule, tol):
    for n in NS:
        judge(rule, n, 1.0 if rule == "stark" else None, tol)


@needs_mpmath
@pytest.mark.parametrize("rule, n, F", sorted({row[:3] for row in _BOX_HEX},
                                              key=lambda row: (row[0], row[1], row[2] or 0)))
def test_frozen_box_records_are_within_their_bounds(rule, n, F):
    """The frozen float.hex records of test_engine, at the default tol,
    are judged the same way."""
    judge(rule, n, F, 1e-9)


# 41 log-spaced q over [1e-4, 1e4]; the three q at which the adaptive
# quadrature that preceded the fixed-panel rule missed its own bound; and
# q above the range the bench draws from
BETHE_QS = [1e-4 * 1e8 ** (j / 40) for j in range(41)] + [
    19.881398211747452, 42.04238735157813, 42.42448915822579, 1e5, 1e6, 1e10]


def bethe_exact(rule: str, q: float) -> Fraction:
    """The channel's closed form (q^2/2)(1 + q^2/2)/(1 + q^2) (odd) or
    (q^2/2)^2/(1 + q^2) (even), exactly at the float q."""
    half_q2 = Fraction(q) ** 2 / 2
    return half_q2 * (1 + half_q2 if rule == "bethe.odd" else half_q2) / (1 + 2 * half_q2)


def judge_quadrature(value: float, trace, exact: Fraction, tol: float, passed: bool) -> None:
    """A quadrature route against its exact value: within est_error plus
    8 ulp, and a PASS only with a converged trace whose bound is under
    tol times the exact value."""
    allowed = Fraction(trace.est_error) + 8 * Fraction(math.ulp(float(exact)))
    assert abs(Fraction(value) - exact) <= allowed, (value, float(exact), trace)
    if passed:
        assert trace.converged and trace.est_error <= tol * exact, (value, trace)


@pytest.mark.parametrize("tol", TOLS)
def test_bethe_channels_earn_their_verdicts(tol):
    for q in BETHE_QS:
        for channel in bethe_components(q, tol):  # no request raises
            exact = bethe_exact(channel.rule, q)
            judge_quadrature(channel.brute, channel.trace, exact, tol, channel.passed)
            assert channel.passed


@pytest.mark.parametrize("name, q", [row[:2] for row in _DELTA_RULE_HEX])
def test_frozen_delta_records_are_within_their_bounds(name, q):
    """The frozen float.hex records of test_engine's certified rule: the
    raw integral of each parameter-free row is its right side, times
    -1/F^2 for stark; each Bethe record is its channel."""
    if q is None:
        check = (stark_verify(ModelKind.DELTA, F=1.0) if name == "stark"
                 else verify(SumRuleSpec(name), ModelKind.DELTA))
        exact = Fraction(abs(check.analytic))
        trace = check.trace
    else:
        channel = bethe_components(q)[0 if name == "odd" else 1]
        exact, trace = bethe_exact(channel.rule, q), channel.trace
    judge_quadrature(trace.value, trace, exact, 1e-9, True)

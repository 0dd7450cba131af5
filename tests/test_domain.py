"""An earned-PASS judge over the accepted domain.

Every row of a fixed grid runs through `engine` and is held against its
exact right side.  Each row must have no NaN field, finite routes and
bound, and a brute route within its own bound in the rule's units,
`check.bound`, plus 8 ulp.  A row that passes must have a converged
trace, that bound under tol times the right side, and both routes within
tol of the right side plus 8 ulp, judged exactly; a PASS that compares
an underflowed 0 with 0 is not earned.  The box rows' right sides are
the textbook ones `bench/gate.py` uses, computed by mpmath at 40 digits;
mpmath is a test-only dependency, and without it those tests skip.  The
delta well's right sides are rational (in q for the Bethe channels), so
their exact values are Fractions.  The lattice sums near a pole are held
to their bound against an mpmath sum.
"""

import math
from fractions import Fraction

import pytest

from sumrules.core import ModelKind
from sumrules.engine import SumRuleSpec, bethe_components, stark_verify, verify
from sumrules.series import brute_sum

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


def item_4(why: str):
    """A strict xfail: a Stark row that F^2 overflows or underflows, which
    ROADMAP item 4 (Stark verified as the F-free dE/F^2) mends."""
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item 4: {why}")


def judge(check, exact: Fraction) -> None:
    """Assert the judge's invariants on one row, `exact` its right side."""
    where = (check.rule, dict(check.params), check.tol)
    fields = (check.closed, check.brute, check.bound, check.rel_err_closed,
              check.rel_err_brute, check.trace.value)
    assert not any(math.isnan(v) for v in fields), (where, fields)
    assert all(math.isfinite(v) for v in fields[:3]), (where, fields)
    slack = 8 * Fraction(math.ulp(float(exact)))
    error = abs(Fraction(check.brute) - exact)
    assert error <= Fraction(check.bound) + slack, (where, float(error), check.bound)
    if check.passed:
        tol = Fraction(check.tol)
        assert check.trace.converged, where
        assert check.bound <= tol * abs(exact), where
        # rel_err reads the float analytic, a few ulps off the exact value
        for route in (check.closed, check.brute):
            assert abs(Fraction(route) - exact) <= tol * abs(exact) + slack, (where, route)
            assert route != 0 or exact == 0, (where, "a 0 route passes a nonzero right side")


def to_fraction(value) -> Fraction:
    """An mpf exactly: man_exp gives |value| = man 2^exp."""
    man, exp = value.man_exp
    return Fraction(-man if value < 0 else man) * Fraction(2) ** exp


def box_exact(rule: str, n: int, F: float | None) -> Fraction:
    """The rule's right side at box state n, from a 40-digit mpf."""
    with mpmath.workdps(40):
        pi2 = mpmath.pi**2
        x2 = mpmath.mpf(1) / 3 - 1 / (2 * n * n * pi2)  # <n|x^2|n>
        if rule == "closure":
            value = x2
        elif rule == "monopole":
            value = 2 * x2
        elif rule == "trk":
            value = mpmath.mpf(1) / 2
        else:
            F = mpmath.mpf(F)
            value = -F * F * (15 - n * n * pi2) / (24 * pi2 * mpmath.mpf(n) ** 4)
        return to_fraction(+value)


def judge_box(rule: str, n: int, F: float | None, tol: float) -> None:
    """Run one box row and judge it."""
    if F is None:
        check = verify(SumRuleSpec(rule, n=n), ModelKind.ISW, tol)
    else:
        check = stark_verify(ModelKind.ISW, n, F, tol)
    judge(check, box_exact(rule, n, F))


@needs_mpmath
@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("rule", RULES)
def test_box_rows_earn_their_verdicts(rule, tol):
    for n in NS:
        judge_box(rule, n, 1.0 if rule == "stark" else None, tol)


@needs_mpmath
@pytest.mark.parametrize("F, ns", [
    pytest.param(1e-200, NS, id="1e-200",
                 marks=item_4("F^2 underflows, and the routes pass by comparing 0 with 0")),
    pytest.param(1e154, NS[1:], id="1e154-n-from-2",
                 marks=item_4("-F^2 times the prefactor overflows: routes inf against 6.46e305")),
])
def test_box_stark_at_extreme_fields(F, ns):
    for n in ns:
        judge_box("stark", n, F, 1e-9)


@needs_mpmath
@pytest.mark.parametrize("rule, n, F", sorted({row[:3] for row in _BOX_HEX},
                                              key=lambda row: (row[0], row[1], row[2] or 0)))
def test_frozen_box_records_are_within_their_bounds(rule, n, F):
    """The frozen float.hex records of test_engine, at the default tol,
    are judged the same way."""
    judge_box(rule, n, F, 1e-9)


# right sides of the parameter-free delta rows, the Stark shift's over -F^2
DELTA_EXACT = {"closure": Fraction(1, 2), "trk": Fraction(1, 2), "monopole": Fraction(1),
               "stark": Fraction(5, 8)}


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("rule", ["closure", "trk", "monopole"])
def test_delta_rows_earn_their_verdicts(rule, tol):
    judge(verify(SumRuleSpec(rule), ModelKind.DELTA, tol), DELTA_EXACT[rule])


@pytest.mark.parametrize("F", [
    1e-3, 1.0, 1e3,
    pytest.param(1e160, marks=item_4("analytic -inf, and rel_err NaN")),
    pytest.param(1e-200, marks=item_4("F^2 underflows, and the routes pass by comparing 0 with 0")),
])
def test_delta_stark_earns_its_verdict(F):
    for tol in TOLS:
        judge(stark_verify(ModelKind.DELTA, F=F, tol=tol), -DELTA_EXACT["stark"] * Fraction(F) ** 2)


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


@pytest.mark.parametrize("tol", TOLS)
def test_bethe_channels_earn_their_verdicts(tol):
    for q in BETHE_QS:
        for channel in bethe_components(q, tol):  # no request raises
            judge(channel, bethe_exact(channel.rule, q))
            assert channel.passed


@pytest.mark.parametrize("name, q", [row[:2] for row in _DELTA_RULE_HEX])
def test_frozen_delta_records_are_within_their_bounds(name, q):
    """The frozen float.hex records of test_engine's certified rule, at
    the default tol, are judged the same way, and pass: the stark record
    at F = 1, and each Bethe record as its channel."""
    if q is None:
        check = (stark_verify(ModelKind.DELTA, F=1.0) if name == "stark"
                 else verify(SumRuleSpec(name), ModelKind.DELTA))
        exact = -DELTA_EXACT[name] if name == "stark" else DELTA_EXACT[name]
    else:
        check = bethe_components(q)[0 if name == "odd" else 1]
        exact = bethe_exact(check.rule, q)
    judge(check, exact)
    assert check.passed


def lattice_sum_exact(p: int, z: float) -> Fraction:
    """sum_k 1/(k^2 - z^2)^p over k >= 1 at 40 digits: every term up to
    2|z| + 10 summed directly, so that the spike next to the pole is, and
    an Euler-Maclaurin nsum of the smooth rest (nsum's default method
    misses 1e-5 of the p = 1 rest at z = 1000.0000001)."""
    with mpmath.workdps(40):
        z2 = mpmath.mpf(z) ** 2
        top = 2 * math.ceil(abs(z)) + 10
        value = (mpmath.fsum(1 / (mpmath.mpf(k) ** 2 - z2) ** p for k in range(1, top + 1))
                 + mpmath.nsum(lambda k: 1 / (k * k - z2) ** p, [top + 1, mpmath.inf],
                               method="euler-maclaurin"))
        return to_fraction(value)


@needs_mpmath
@pytest.mark.parametrize("p, z", [(1, 10.00001), (2, 7.0001), (3, 0.999),
                                  (1, 1000.0000001), (2, 1000.0000001), (3, 1000.0000001)])
def test_lattice_sum_near_a_pole_within_its_bound(p, z):
    """Non-integer z next to a pole: k^2 - z^2 formed as (k - z)(k + z),
    exact near the pole, keeps the rounding of z^2 out of the spike term."""
    trace = brute_sum(p, z)
    error = abs(Fraction(trace.value) - lattice_sum_exact(p, z))
    assert trace.converged
    assert error <= Fraction(trace.bound), (float(error), trace.bound)

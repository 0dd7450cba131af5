"""An earned-PASS judge over the accepted domain.

Every row of a fixed grid runs through `engine` and is held against its
exact right side.  Each row must have no NaN field, finite routes and
bound, and a brute route within its own bound in the rule's units,
`check.bound`, plus 8 ulp.  A row that passes must have a converged
trace, that bound under tol times the right side, and both routes within
tol of the right side plus 8 ulp, judged exactly; a PASS that compares
an underflowed 0 with 0 is not earned, and neither is one judged by a
subnormal right side, which carries too few digits for any tol.  The box
rows' right sides are the textbook ones `bench/gate.py` uses, computed by
mpmath at 40 digits; mpmath is a test-only dependency, and without it
those tests skip.  The delta well's right sides are rational (in q for
the Bethe channels), so their exact values are Fractions.  The `series`
lattice sums are held against 40-digit partial-fraction values: the
brute sum to its bound plus 8 ulp, the closed form to 1e-12.
"""

import functools
import math
import sys
from fractions import Fraction

import pytest

from sumrules.core import ModelKind
from sumrules.engine import SumRuleSpec, bethe_components, stark_verify, verify
from sumrules.series import MAX_P, Parity, brute_sum, sum_closed

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


# the normal binary64 magnitudes
NORMAL = (Fraction(sys.float_info.min), Fraction(sys.float_info.max))
# the box Stark field whose right sides are subnormal at every n frozen
# in test_engine: test_box_stark_at_extreme_fields judges their PASS
SUBNORMAL_F = 1e-160


def judge(check, exact: Fraction, known_subnormal: bool = False) -> None:
    """Assert the judge's invariants on one row, `exact` its right side;
    a `known_subnormal` row skips the normal-range one, which a strict
    xfail holds."""
    where = (check.rule, dict(check.params), check.tol)
    fields = (check.closed, check.brute, check.bound, check.rel_err_closed,
              check.rel_err_brute, check.trace.value)
    assert not any(math.isnan(v) for v in fields), (where, fields)
    assert all(math.isfinite(v) for v in fields[:3]), (where, fields)
    slack = 8 * Fraction(math.ulp(float(exact)))
    error = abs(Fraction(check.brute) - exact)
    assert error <= Fraction(check.bound) + slack, (where, float(error), check.bound)
    if check.passed:
        assert known_subnormal or exact == 0 or NORMAL[0] <= abs(exact) <= NORMAL[1], (
            where, "a right side outside the normal floats passes", float(exact))
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


def judge_box(rule: str, n: int, F: float | None, tol: float,
              known_subnormal: bool = False) -> None:
    """Run one box row and judge it."""
    if F is None:
        check = verify(SumRuleSpec(rule, n=n), ModelKind.ISW, tol)
    else:
        check = stark_verify(ModelKind.ISW, n, F, tol)
    judge(check, box_exact(rule, n, F), known_subnormal)


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
    pytest.param(SUBNORMAL_F, [1, 2, 7], id="1e-160",
                 marks=item_4("-F^2 is subnormal: n = 7 passes at rel_err 0 with "
                              "routes 9.88e-324 against an exact 8.24e-324")),
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
    judge_box(rule, n, F, 1e-9, known_subnormal=F == SUBNORMAL_F)


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


@functools.cache
def _full_lattice(z: float, dps: int) -> tuple:
    """S_p(z) = sum_{k >= 1} 1/(k^2 - z^2)^p, p = 1..MAX_P, as mpfs at dps
    digits, z >= 0.  The partial fractions of 1/((k - z)(k + z))^p are
    A_j/(k - z)^j + (-1)^j A_j/(k + z)^j, A_j = (-1)^(p-j) C(2p-j-1, p-j)
    (2z)^(j-2p); summed over k they give Hurwitz zetas, and digammas at
    j = 1.  The terms k <= m = floor(z) are summed directly, so that each
    zeta or digamma is taken at a positive 1 - frac(z) or 1 + z."""
    with mpmath.workdps(dps):
        z = mpmath.mpf(z)
        if z == 0:
            return tuple(mpmath.zeta(2 * p) for p in range(1, MAX_P + 1))
        m = int(z)
        f = z - m
        near = [0] * (MAX_P + 1)  # sum_{k <= m} (k - z)^-j
        for k in range(1, m + 1):
            t = power = 1 / (k - z)
            for j in range(1, MAX_P + 1):
                near[j] += power
                power *= t
        # sum_k (k - z)^-j + (-1)^j (k + z)^-j
        pair = [None, near[1] + mpmath.digamma(1 + z) - mpmath.digamma(1 - f)]
        pair += [near[j] + mpmath.zeta(j, 1 - f) + (-1) ** j * mpmath.zeta(j, 1 + z)
                 for j in range(2, MAX_P + 1)]
        return tuple(
            mpmath.fsum((-1) ** (p - j) * math.comb(2 * p - j - 1, p - j)
                        * (2 * z) ** (j - 2 * p) * pair[j] for j in range(1, p + 1))
            for p in range(1, MAX_P + 1))


def lattice_exact(z: float, parity: Parity) -> list[Fraction]:
    """S_p(z) over the lattice of `parity`, p = 1..MAX_P, to 40 digits:
    the even lattice's is 4^-p S_p(z/2), the odd's the rest.  Near z = 0
    the partial fractions cancel up to 12 log10(1/|z|) digits, which are
    carried too."""
    z = abs(z)
    dps = 45 + (math.ceil(-12 * math.log10(z)) if 0 < z < 1 else 0)
    with mpmath.workdps(dps):
        if parity is Parity.ALL:
            values = _full_lattice(z, dps)
        else:
            even = [s / 4**p for p, s in enumerate(_full_lattice(z / 2, dps), 1)]
            values = even if parity is Parity.EVEN else [
                s - e for s, e in zip(_full_lattice(z, dps), even)]
        return [to_fraction(v) for v in values]


@needs_mpmath
@pytest.mark.parametrize("p, z", [(1, 10.00001), (2, 7.0001), (3, 0.999),
                                  (1, 1000.0000001), (2, 1000.0000001), (3, 1000.0000001)])
def test_lattice_sum_near_a_pole_within_its_bound(p, z):
    """Non-integer z next to a pole: k^2 - z^2 formed as (k - z)(k + z),
    exact near the pole, keeps the rounding of z^2 out of the spike term."""
    trace = brute_sum(p, z)
    error = abs(Fraction(trace.value) - lattice_exact(z, Parity.ALL)[p - 1])
    assert trace.converged
    assert error <= Fraction(trace.bound), (float(error), trace.bound)


# ROADMAP items 10 and 14: z = 0, inside the zeta expansion's radius 1/2,
# 1e-6 to 1e-2 either side of a pole of the lattice, and far out
@needs_mpmath
@pytest.mark.parametrize("z", [0.0, 1e-3, 0.3, 0.49, "pole+1e-6", "pole-1e-4", "pole+1e-2",
                               100.5, 1000.5])
@pytest.mark.parametrize("parity", list(Parity), ids=lambda parity: parity.value)
def test_series_rows_earn_their_values(parity, z):
    """brute_sum within its bound plus 8 ulp, and sum_closed within
    1e-12, of the 40-digit S_p(z) at every p."""
    if isinstance(z, str):
        z = (8 if parity is Parity.EVEN else 7) + float(z.removeprefix("pole"))
    for p, exact in enumerate(lattice_exact(z, parity), 1):
        trace = brute_sum(p, z, parity)
        error = abs(Fraction(trace.value) - exact)
        slack = 8 * Fraction(math.ulp(float(exact)))
        assert error <= Fraction(trace.bound) + slack, (p, z, float(error), trace.bound)
        closed = sum_closed(p, z, parity)
        assert abs(Fraction(closed) - exact) <= Fraction(1e-12) * abs(exact), (p, z, closed)

"""An earned-PASS judge over the box half of the accepted domain.

Every row of a fixed grid runs through `engine` and is held against its
textbook right side, the one `bench/gate.py` uses, computed by mpmath at
40 digits.  Each row must have no NaN field and a brute route within its
own bound in the rule's units plus 8 ulp; a row that passes must have a
converged trace and that bound under tol times the right side.
mpmath is a test-only dependency; without it these tests skip.
"""

import math

import pytest

from sumrules.core import ModelKind
from sumrules.engine import SumRuleSpec, stark_verify, verify

from test_engine import _BOX_HEX

mpmath = pytest.importorskip("mpmath")

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


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("rule", RULES)
def test_box_rows_earn_their_verdicts(rule, tol):
    for n in NS:
        judge(rule, n, 1.0 if rule == "stark" else None, tol)


@pytest.mark.parametrize("rule, n, F", sorted({row[:3] for row in _BOX_HEX},
                                              key=lambda row: (row[0], row[1], row[2] or 0)))
def test_frozen_box_records_are_within_their_bounds(rule, n, F):
    """The frozen float.hex records of test_engine, at the default tol,
    are judged the same way."""
    judge(rule, n, F, 1e-9)

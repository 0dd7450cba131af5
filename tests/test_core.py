"""The verification record's arithmetic and the shared record types."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumrules.core import InvalidSpecError, Trace, converged
from sumrules.engine import RuleVerification
from sumrules.series import checkpoint_indices

TRACE = Trace(0.0, 0.0, 1, True, (0.0,), (1,))


def record(analytic, closed, brute, tol):
    return RuleVerification("prop", None, {}, analytic, closed, brute, 0.0, TRACE, tol)


finite = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    analytic=st.one_of(st.just(0.0), finite),
    closed=st.one_of(st.just(math.nan), finite),
    brute=st.one_of(st.just(math.nan), finite),
    tol=st.floats(1e-15, 1.0),
)
def test_report_arithmetic_recomputable(analytic, closed, brute, tol):
    check = record(analytic, closed, brute, tol)
    for value, err in ((closed, check.rel_err_closed), (brute, check.rel_err_brute)):
        if math.isnan(value):
            assert math.isnan(err)
        else:
            # a zero analytic divides by the floor, not by zero
            assert err == abs(analytic - value) / max(abs(analytic), 1e-300)
            assert math.isfinite(err)
    assert check.passed == (check.rel_err_closed <= tol and check.rel_err_brute <= tol)
    if math.isnan(closed) or math.isnan(brute):
        assert not check.passed


def test_report_zero_analytic_does_not_divide_by_zero():
    check = record(0.0, 0.0, 1e-12, 1e-9)
    assert check.rel_err_closed == 0.0
    assert math.isfinite(check.rel_err_brute)
    assert not check.passed


def test_trace_validation():
    with pytest.raises(InvalidSpecError):
        Trace(0.0, 0.0, 1, True, (0.0,), ())
    with pytest.raises(InvalidSpecError):
        Trace(0.0, 0.0, -1, True, (0.0,), (0,))
    with pytest.raises(InvalidSpecError):
        Trace(0.0, -1.0, 1, True, (0.0,), (1,))


def test_converged_rule():
    assert converged(-4.0, 1e-9, 2.5e-10)  # bound <= tol |value|, inclusive
    assert not converged(-4.0, 1e-9, 2.4e-10)
    assert converged(0.0, 1e-310, 1e-9)  # a zero value is floored at REL_ERR_FLOOR
    assert not converged(0.0, 1e-308, 1e-9)
    # tol |value| overflows to inf here, which an inf bound would meet
    assert not converged(1e300, math.inf, 1e300)
    assert not converged(1.0, math.nan, 1.0)
    assert not converged(math.nan, 0.0, 1.0)


def test_checkpoint_indices_schedule():
    assert list(checkpoint_indices(1)) == [1]
    assert list(checkpoint_indices(7)) == [1, 2, 4, 7]
    assert list(checkpoint_indices(8)) == [1, 2, 4, 8]
    idx = checkpoint_indices(100)
    assert idx[-1] == 100
    assert all(a < b for a, b in zip(idx, idx[1:]))


def test_star_import_resolves_every_public_name():
    import sumrules

    namespace: dict = {}
    exec("from sumrules import *", namespace)
    missing = [name for name in sumrules.__all__ if name not in namespace]
    assert missing == []
    assert len(set(sumrules.__all__)) == len(sumrules.__all__)

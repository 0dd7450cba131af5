"""The verification record's arithmetic, the shared record types, and
the term-cap setting."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumrules.core import (
    DEFAULT_MAX_TERMS,
    InvalidSpecError,
    KMAX_ENV_VAR,
    TruncationTrace,
    default_max_terms,
)
from sumrules.engine import RuleVerification
from sumrules.series import checkpoint_indices

TRACE = TruncationTrace(0.0, (0.0,), (1,), 1, 0.0, True)


def record(analytic, closed, brute, tol):
    return RuleVerification("prop", None, {}, analytic, closed, brute, TRACE, tol)


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


def test_truncation_trace_validation():
    with pytest.raises(InvalidSpecError):
        TruncationTrace(0.0, (), (), 0, 0.0, True)
    with pytest.raises(InvalidSpecError):
        TruncationTrace(0.0, (0.0,), (), 1, 0.0, True)
    with pytest.raises(InvalidSpecError):
        TruncationTrace(0.0, (0.0,), (0,), -1, 0.0, True)
    with pytest.raises(InvalidSpecError):
        TruncationTrace(0.0, (0.0,), (1,), 1, -1.0, True)


def test_checkpoint_indices_schedule():
    assert list(checkpoint_indices(1)) == [1]
    assert list(checkpoint_indices(7)) == [1, 2, 4, 7]
    assert list(checkpoint_indices(8)) == [1, 2, 4, 8]
    idx = checkpoint_indices(100)
    assert idx[-1] == 100
    assert all(a < b for a, b in zip(idx, idx[1:]))


def test_kmax_env_override(monkeypatch):
    monkeypatch.delenv(KMAX_ENV_VAR, raising=False)
    assert default_max_terms() == DEFAULT_MAX_TERMS
    monkeypatch.setenv(KMAX_ENV_VAR, "5000")
    assert default_max_terms() == 5000
    monkeypatch.setenv(KMAX_ENV_VAR, "zero")
    with pytest.raises(InvalidSpecError):
        default_max_terms()
    monkeypatch.setenv(KMAX_ENV_VAR, "-3")
    with pytest.raises(InvalidSpecError):
        default_max_terms()


def test_star_import_resolves_every_public_name():
    import sumrules

    namespace: dict = {}
    exec("from sumrules import *", namespace)
    missing = [name for name in sumrules.__all__ if name not in namespace]
    assert missing == []
    assert len(set(sumrules.__all__)) == len(sumrules.__all__)

"""Report arithmetic, the shared record types, and the term-cap setting."""

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
    make_report,
)
from sumrules.series import checkpoint_indices


@settings(max_examples=50, deadline=None)
@given(
    analytic=st.floats(-1e6, 1e6, allow_nan=False),
    numeric=st.floats(-1e6, 1e6, allow_nan=False),
)
def test_report_arithmetic_recomputable(analytic, numeric):
    rep = make_report("prop", analytic, numeric, tol=1e-9)
    assert rep.abs_err == abs(analytic - numeric)
    assert rep.rel_err == rep.abs_err / max(abs(analytic), 1e-300)
    assert rep.passed == (rep.rel_err <= 1e-9)


def test_report_zero_analytic_does_not_divide_by_zero():
    rep = make_report("zero", 0.0, 1e-12)
    assert math.isfinite(rep.rel_err)
    assert not rep.passed


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

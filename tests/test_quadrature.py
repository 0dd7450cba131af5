"""Adaptive quadrature against integrals with known values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumrules.core import DomainError, InvalidSpecError
from sumrules.quadrature import (
    QuadratureResult,
    QuadratureRows,
    integrate_interval,
    integrate_semi_inf,
)

from oracles import integrate_real_line


def test_finite_interval_polynomial():
    r = integrate_interval(lambda x: 3.0 * x * x, 0.0, 2.0, tol=1e-12)
    assert r.converged
    assert r.value == pytest.approx(8.0, rel=1e-13, abs=0)


def test_finite_interval_oscillatory():
    r = integrate_interval(np.sin, 0.0, math.pi, tol=1e-12)
    assert r.value == pytest.approx(2.0, rel=1e-12)


def test_semi_inf_lorentzian():
    r = integrate_semi_inf(lambda k: 1.0 / (1.0 + k * k), tol=1e-12)
    assert r.converged
    assert r.value == pytest.approx(math.pi / 2, rel=1e-12)


def test_semi_inf_gaussian():
    r = integrate_semi_inf(lambda k: np.exp(-k * k), tol=1e-12)
    assert r.value == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-12, abs=0)


def test_semi_inf_slow_tail():
    # 1/(1+k)^2 integrates to 1, the slowest decay the map must handle
    r = integrate_semi_inf(lambda k: (1.0 + k) ** -2, tol=1e-11)
    assert r.value == pytest.approx(1.0, rel=1e-11)


def test_real_line_lorentzian():
    r = integrate_real_line(lambda k: 1.0 / (1.0 + k * k), tol=1e-12)
    assert r.value == pytest.approx(math.pi, rel=1e-12)


def test_real_line_even_rational():
    # int 1/(k^2+1)^2 = pi/2 over the full line
    r = integrate_real_line(lambda k: (1.0 + k * k) ** -2, tol=1e-12)
    assert r.value == pytest.approx(math.pi / 2, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(0.05, 50.0))
def test_scale_invariance(scale):
    """Any positive scale converges to the same value; only the node
    placement changes."""
    r = integrate_semi_inf(lambda k: 1.0 / (1.0 + k * k), scale=scale, tol=1e-11)
    assert r.value == pytest.approx(math.pi / 2, rel=1e-10)


@pytest.mark.parametrize("width", [0.1, 1.0, 10.0])
def test_est_error_is_conservative(width):
    exact = math.pi / (2.0 * width)
    r = integrate_semi_inf(
        lambda k: 1.0 / (width * width + k * k), scale=width, tol=1e-10
    )
    assert abs(r.value - exact) <= max(r.est_error, 1e-14 * exact)


def test_odd_integrand_needs_abs_tol():
    # an exactly zero integral cannot satisfy a pure relative target
    r = integrate_real_line(lambda k: k / (1.0 + k**4), abs_tol=1e-12)
    assert r.converged
    assert abs(r.value) < 1e-12


def test_evaluations_counted():
    r = integrate_interval(lambda x: x, 0.0, 1.0, tol=1e-9)
    assert r.evaluations >= 8 * 22
    assert r.evaluations % 22 == 0


def test_unconverged_flagged_not_raised():
    # high-frequency oscillation with too small a panel budget
    r = integrate_interval(
        lambda x: np.sin(1000.0 * x), 0.0, 1.0, tol=1e-13, max_panels=9,
    )
    assert not r.converged
    assert math.isfinite(r.value)


def test_nan_integrand_rejected():
    with pytest.raises(DomainError):
        integrate_interval(lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0)


def test_nan_in_right_half_of_bisected_panel_names_that_half():
    # the eight initial panels of [0, 8] are [0, 1], [1, 2], ...; 0.75 is
    # the centre node of [0.5, 1] but no node of [0, 1], so they evaluate
    # cleanly, and the first bisection, of the sqrt kink's panel [0, 1],
    # meets the NaN
    def g(x):
        return np.where(np.abs(x - 0.75) < 0.01, np.nan, np.sqrt(x))

    with pytest.raises(DomainError, match=r"\[0\.5, 1\.0\]"):
        integrate_interval(g, 0.0, 8.0, tol=1e-12)


def test_nan_at_finite_k_rejected_on_half_line():
    with pytest.raises(DomainError):
        integrate_semi_inf(lambda k: np.where(k < 5.0, np.nan, 0.0))


def test_bad_interval_rejected():
    with pytest.raises(InvalidSpecError):
        integrate_interval(lambda x: x, 1.0, 0.0)
    with pytest.raises(InvalidSpecError):
        integrate_interval(lambda x: x, 0.0, math.inf)
    with pytest.raises(InvalidSpecError):
        integrate_interval(lambda x: x, 0.0, 1.0, tol=0.0)


def test_bad_scale_rejected():
    with pytest.raises(InvalidSpecError):
        integrate_semi_inf(lambda k: k, scale=0.0)
    with pytest.raises(InvalidSpecError):
        integrate_real_line(lambda k: k, scale=-1.0)


# rows that stop in different rounds at tol 1e-12: 1/(1+k^2), exp(-k^2), exp(-k)
HALF_LINE_ROWS = (
    lambda k: 1.0 / (1.0 + k * k),
    lambda k: np.exp(-k * k),
    lambda k: np.exp(-k),
)


def test_rows_equal_their_one_row_calls():
    rows = integrate_semi_inf(lambda k: [f(k) for f in HALF_LINE_ROWS], tol=1e-12)
    alone = [integrate_semi_inf(f, tol=1e-12) for f in HALF_LINE_ROWS]
    assert isinstance(rows, QuadratureRows)
    assert list(rows) == alone
    assert len({r.evaluations for r in alone}) == 3  # three stopping rounds
    assert rows.evaluations == sum(r.evaluations for r in alone)
    assert rows.converged
    assert [r.value for r in rows] == pytest.approx(
        [math.pi / 2, math.sqrt(math.pi) / 2, 1.0], rel=1e-11
    )


def test_rows_converged_only_when_every_row_is():
    def g(x):
        return np.array((x, np.sin(1000.0 * x)))

    rows = integrate_interval(g, 0.0, 1.0, tol=1e-13, max_panels=9)
    alone = [
        integrate_interval(lambda x, i=i: g(x)[i], 0.0, 1.0, tol=1e-13, max_panels=9)
        for i in range(2)
    ]
    assert list(rows) == alone
    assert [r.converged for r in rows] == [True, False]
    assert not rows.converged
    assert rows.evaluations == alone[0].evaluations + alone[1].evaluations


def test_one_row_of_one_is_a_sequence():
    rows = integrate_semi_inf(lambda k: np.exp(-k * k)[None, :], tol=1e-12)
    assert list(rows) == [integrate_semi_inf(lambda k: np.exp(-k * k), tol=1e-12)]


@pytest.mark.parametrize("bad_row", range(3))
def test_non_finite_value_in_any_row_rejected(bad_row):
    def f(k):
        out = [g(k) for g in HALF_LINE_ROWS]
        out[bad_row] = np.where(k < 5.0, np.nan, out[bad_row])
        return out

    with pytest.raises(DomainError, match="at finite k"):
        integrate_semi_inf(f, tol=1e-12)
    with pytest.raises(DomainError, match=r"on \[0\.0, 0\.125\]"):
        integrate_interval(f, 0.0, 1.0, tol=1e-12)


@pytest.mark.parametrize("shape", [
    lambda n: (3, 2, n),   # rows of rows
    lambda n: (0, n),      # no row
    lambda n: (2, n + 1),  # a value too many
    lambda n: (n + 1,),
    lambda n: (),
])
def test_wrong_output_shape_rejected(shape):
    with pytest.raises(InvalidSpecError, match="same shape"):
        integrate_interval(lambda x: np.ones(shape(x.size)), 0.0, 1.0)


def test_row_count_must_not_change_between_calls():
    calls = []

    def g(x):
        calls.append(x.size)
        return np.ones((len(calls) + 1, x.size)) * np.sqrt(x)

    with pytest.raises(InvalidSpecError, match="same shape"):
        integrate_interval(g, 0.0, 1.0, tol=1e-12)
    assert len(calls) == 2


def test_result_is_plain_record():
    r = QuadratureResult(1.0, 0.0, 22, True)
    assert (r.value, r.est_error, r.evaluations, r.converged) == (1.0, 0.0, 22, True)

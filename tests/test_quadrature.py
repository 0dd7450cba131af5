"""Quadrature against integrals with known values: the package's
certified fixed-panel rule, and the tests' adaptive oracle."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumrules import engine, quadrature
from sumrules.core import DomainError, InvalidSpecError
from sumrules.engine import half_line_moment
from sumrules.quadrature import QuadratureResult, QuadratureRows, integrate_semi_inf

from oracles import AdaptiveRows, integrate_half_line, integrate_interval, integrate_real_line


def test_finite_interval_polynomial():
    r = integrate_interval(lambda x: 3.0 * x * x, 0.0, 2.0, tol=1e-12)
    assert r.converged
    assert r.value == pytest.approx(8.0, rel=1e-13, abs=0)


def test_finite_interval_oscillatory():
    r = integrate_interval(np.sin, 0.0, math.pi, tol=1e-12)
    assert r.value == pytest.approx(2.0, rel=1e-12)


def test_semi_inf_lorentzian():
    r = integrate_half_line(lambda k: 1.0 / (1.0 + k * k), tol=1e-12)
    assert r.converged
    assert r.value == pytest.approx(math.pi / 2, rel=1e-12)


def test_semi_inf_gaussian():
    r = integrate_half_line(lambda k: np.exp(-k * k), tol=1e-12)
    assert r.value == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-12, abs=0)


def test_semi_inf_slow_tail():
    # 1/(1+k)^2 integrates to 1, the slowest decay the map must handle
    r = integrate_half_line(lambda k: (1.0 + k) ** -2, tol=1e-11)
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
    r = integrate_half_line(lambda k: 1.0 / (1.0 + k * k), scale=scale, tol=1e-11)
    assert r.value == pytest.approx(math.pi / 2, rel=1e-10)


@pytest.mark.parametrize("width", [0.1, 1.0, 10.0])
def test_est_error_is_conservative(width):
    exact = math.pi / (2.0 * width)
    r = integrate_half_line(
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
        integrate_half_line(lambda k: np.where(k < 5.0, np.nan, 0.0))


def test_bad_interval_rejected():
    with pytest.raises(InvalidSpecError):
        integrate_interval(lambda x: x, 1.0, 0.0)
    with pytest.raises(InvalidSpecError):
        integrate_interval(lambda x: x, 0.0, math.inf)
    with pytest.raises(InvalidSpecError):
        integrate_interval(lambda x: x, 0.0, 1.0, tol=0.0)


def test_bad_scale_rejected():
    with pytest.raises(InvalidSpecError):
        integrate_half_line(lambda k: k, scale=0.0)
    with pytest.raises(InvalidSpecError):
        integrate_real_line(lambda k: k, scale=-1.0)


# rows that stop in different rounds at tol 1e-12: 1/(1+k^2), exp(-k^2), exp(-k)
HALF_LINE_ROWS = (
    lambda k: 1.0 / (1.0 + k * k),
    lambda k: np.exp(-k * k),
    lambda k: np.exp(-k),
)


def test_rows_equal_their_one_row_calls():
    rows = integrate_half_line(lambda k: [f(k) for f in HALF_LINE_ROWS], tol=1e-12)
    alone = [integrate_half_line(f, tol=1e-12) for f in HALF_LINE_ROWS]
    assert isinstance(rows, AdaptiveRows)
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
    rows = integrate_half_line(lambda k: np.exp(-k * k)[None, :], tol=1e-12)
    assert list(rows) == [integrate_half_line(lambda k: np.exp(-k * k), tol=1e-12)]


@pytest.mark.parametrize("bad_row", range(3))
def test_non_finite_value_in_any_row_rejected(bad_row):
    def f(k):
        out = [g(k) for g in HALF_LINE_ROWS]
        out[bad_row] = np.where(k < 5.0, np.nan, out[bad_row])
        return out

    with pytest.raises(DomainError, match="at finite k"):
        integrate_half_line(f, tol=1e-12)
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


# The package's certified rule.  Each row of an integral has the shape
# c k^2 (k^2 + 1)^a / D(k)^2, D(k) = ((k + q)^2 + 1)((k - q)^2 + 1).


def _shape(q, a):
    """k^2 (k^2 + 1)^a / D(k)^2 at complex k, as a function of s = k - q."""
    def f(s):
        k = q + s
        return k * k * (k * k + 1.0) ** a / (((k + q) ** 2 + 1.0) * ((k - q) ** 2 + 1.0)) ** 2

    return f


@pytest.mark.parametrize("q", [0.0, 0.3, 7.0, 1e4])
@pytest.mark.parametrize("a", [-1, 0, 1])
def test_factored_shapes_match_the_integrands(q, a):
    """The bound's zeros, poles and constant, on the panels in s and on
    the tail in t (k = K/t, times dk/dt = -K/t^2 in magnitude), give the
    integrand itself at complex points."""
    points, exps, log_c = quadrature._factors(q, [(2.5, a)])
    big_k = 2.0 * q + 4.0
    f = _shape(q, a)
    for z in (0.3 + 0.2j, -1.7 + 0.4j, 2.0 - 3.0j):
        for kind, want in ((0, 2.5 * f(z)), (1, 2.5 * f(big_k / z - q) * big_k / z**2)):
            got = np.exp(log_c[0, kind]) * np.prod((z - points[kind]) ** exps[0, kind])
            assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("x0, y0", [(0.0, 0.2), (0.0, 0.4), (0.0, 0.6), (0.9, 0.3)])
def test_panel_bound_holds_where_the_rule_misses(x0, y0):
    """On one panel, [-1, 1], 20-point Gauss-Legendre misses
    1/((x - x0)^2 + y0^2) by a visible amount near its poles x0 +- i y0;
    the theorem's bound covers the miss, within a factor that stays
    near 1e4 at these rho (1.2 to 1.8)."""
    exact = (math.atan((1.0 - x0) / y0) + math.atan((1.0 + x0) / y0)) / y0
    x, w = np.polynomial.legendre.leggauss(quadrature.N)
    miss = abs(float(w.dot(1.0 / ((x - x0) ** 2 + y0 ** 2))) - exact)
    bound = quadrature._bounds(
        np.array([0.0]), np.array([1.0]), np.array([[x0 + 1j * y0, x0 - 1j * y0]]),
        np.array([[[-1.0, -1.0]]]), np.array([[0.0]]))[0]
    assert miss > 1e-12 * exact
    assert miss <= bound <= 1e5 * miss


@pytest.mark.parametrize("p", [3, 4, 5])
def test_parameter_free_shapes_within_their_bound(p):
    r, = integrate_semi_inf(lambda k: [k * k / (1.0 + k * k) ** p], [(1.0, 4 - p)])
    exact = half_line_moment(1, p)
    assert abs(r.value - exact) <= r.est_error + 2 * math.ulp(exact)
    assert r.est_error <= 4e-15 * exact
    assert r.evaluations == 80 and r.converged


def test_rows_share_nodes_and_equal_their_one_row_calls():
    q = 42.04238735157813
    both = engine._bethe_quadratures(q, 1e-9)
    q2 = q * q  # the engine's products, so that the bounds match bit for bit
    shapes = ((8.0 / math.pi * q2, 1), (8.0 / math.pi * q2 * q2, 0))
    kernel = engine.delta.bethe_strengths
    alone = [integrate_semi_inf(lambda s, i=i: [kernel(q, s)[i]], [shapes[i]], q, 1e-9)[0]
             for i in range(2)]
    assert isinstance(both, QuadratureRows)
    assert list(both) == alone
    assert both.evaluations == both[0].evaluations == both[1].evaluations == 300


def test_node_counts_are_fixed_by_q():
    counts = [engine._bethe_quadratures(q, 1e-9).evaluations
              for q in (1e-4, 1.0, 100.0, 1e4, 1e10)]
    assert counts == [100, 100, 340, 580, 1380]


def test_value_does_not_read_tol():
    rows = [engine._bethe_quadratures(19.881398211747452, tol) for tol in (1e-2, 1e-9, 1e-17)]
    assert [(r.value, r.est_error) for r in rows[0]] == [(r.value, r.est_error) for r in rows[2]]
    assert [r.converged for r in rows] == [True, True, False]
    for row in rows[1]:
        assert row.converged == (row.est_error <= 1e-9 * abs(row.value))


def test_non_finite_value_leaves_the_row_unconverged():
    def f(s):
        return [np.where(s > 2.0, np.nan, 1.0 / (1.0 + s * s) ** 2), 1.0 / (1.0 + s * s) ** 2]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bad, good = integrate_semi_inf(f, [(1.0, -2), (1.0, -2)])
    assert math.isnan(bad.value) and not bad.converged
    assert good.converged


@pytest.mark.parametrize("q", [5e-324, 1e-310, 1e-300, 1e-100, 1e49, 1e50, 1e77, 1e154,
                               1e300, 1.7976931348623157e308])
def test_no_warning_at_any_q(q):
    """Tiny q gives exact zeros; past the q range the rows come back
    non-finite and unconverged, and no RuntimeWarning escapes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = engine._bethe_quadratures(q, 1e-9)
    for row in rows:
        assert math.isnan(row.value) or row.est_error <= 4e-15 * row.value
        assert row.converged == math.isfinite(row.value)
    exact = Fraction(q) ** 2 / 2
    if q < 1e-200:
        assert [row.value for row in rows] == [0.0, 0.0]
    elif q <= 1e49:
        assert abs(Fraction(rows[0].value + rows[1].value) - exact) <= 4e-15 * exact

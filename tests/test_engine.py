"""The dual-route verification engine across every supported rule."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumrules import engine, isw
from sumrules.core import DEFAULT_TOL, InconsistencyError, InvalidSpecError, ModelKind
from sumrules.engine import (
    SumRuleSpec,
    analytic_rhs,
    bethe_component_closed,
    bethe_components,
    half_line_moment,
    oscillator_strengths,
    stark_verify,
    verify,
)
from sumrules.quadrature import QuadratureResult
from sumrules.series import Parity

PI = math.pi

CLOSURE = SumRuleSpec("closure")
TRK = SumRuleSpec("trk")
MONOPOLE = SumRuleSpec("monopole")

# raw lattice tail estimates scale into rule units through these
ISW_PREFACTOR = {
    "closure": lambda n: 64.0 * n * n / PI**4,
    "trk": lambda n: 32.0 * n * n / PI**2,
    "monopole": lambda n: 32.0 * n * n / PI**2,
}


def test_spec_validation():
    assert engine.RULES == ("closure", "trk", "monopole", "bethe")
    with pytest.raises(InvalidSpecError):
        SumRuleSpec("quadrupole")  # unknown name
    with pytest.raises(InvalidSpecError):
        SumRuleSpec("all")  # a CLI choice, not a rule
    with pytest.raises(InvalidSpecError):
        SumRuleSpec("trk", 0)
    with pytest.raises(InvalidSpecError):
        SumRuleSpec("bethe")  # q missing
    with pytest.raises(InvalidSpecError):
        SumRuleSpec("bethe", 1, -2.0)
    with pytest.raises(InvalidSpecError):
        SumRuleSpec("trk", 1, 1.0)  # q meaningless for trk
    spec = SumRuleSpec("bethe", 1, 2)
    assert (spec.rule, spec.n, spec.q) == ("bethe", 1, 2.0)


def test_analytic_rhs_values():
    assert analytic_rhs(CLOSURE, ModelKind.ISW) == pytest.approx(
        1.0 / 3.0 - 1.0 / (2.0 * PI**2), rel=1e-15, abs=0
    )
    assert analytic_rhs(TRK, ModelKind.ISW) == 0.5
    assert analytic_rhs(MONOPOLE, ModelKind.ISW) == pytest.approx(
        2.0 * (1.0 / 3.0 - 1.0 / (2.0 * PI**2)), rel=1e-15, abs=0
    )
    assert analytic_rhs(CLOSURE, ModelKind.DELTA) == 0.5
    assert analytic_rhs(TRK, ModelKind.DELTA) == 0.5
    assert analytic_rhs(MONOPOLE, ModelKind.DELTA) == 1.0
    bethe = SumRuleSpec("bethe", q=2.0)
    assert analytic_rhs(bethe, ModelKind.DELTA) == 2.0
    with pytest.raises(InvalidSpecError):
        analytic_rhs(bethe, ModelKind.ISW)


def test_half_line_moment_frozen_values():
    assert half_line_moment(1, 3) == pytest.approx(PI / 16.0, rel=1e-15, abs=0)
    assert half_line_moment(1, 4) == pytest.approx(PI / 32.0, rel=1e-15, abs=0)
    assert half_line_moment(1, 5) == pytest.approx(5.0 * PI / 256.0, rel=1e-15, abs=0)
    assert half_line_moment(0, 1) == pytest.approx(PI / 2.0, rel=1e-15, abs=0)
    with pytest.raises(InvalidSpecError):
        half_line_moment(1, 1)  # divergent
    with pytest.raises(InvalidSpecError):
        half_line_moment(-1, 3)


def test_lhs_isw_examples():
    """The left side of each box rule along the closed route."""
    check = verify(CLOSURE, ModelKind.ISW)
    assert check.closed == pytest.approx(1.0 / 3.0 - 1.0 / (2.0 * PI**2), rel=1e-14, abs=0)
    check = verify(SumRuleSpec("trk", n=2), ModelKind.ISW)
    assert check.closed == pytest.approx(0.5, rel=1e-14, abs=0)
    check = verify(MONOPOLE, ModelKind.ISW)
    assert check.closed == pytest.approx(
        2.0 * (1.0 / 3.0 - 1.0 / (2.0 * PI**2)), rel=1e-13, abs=0
    )
    assert check.components is None


def test_lhs_isw_rejects_bethe():
    with pytest.raises(InvalidSpecError):
        verify(SumRuleSpec("bethe", q=1.0), ModelKind.ISW)


def test_lhs_delta_examples():
    assert verify(CLOSURE, ModelKind.DELTA).closed == pytest.approx(0.5, rel=1e-14, abs=0)
    assert verify(MONOPOLE, ModelKind.DELTA).brute == pytest.approx(1.0, rel=1e-11)
    check = verify(SumRuleSpec("bethe", q=1.0), ModelKind.DELTA)
    assert check.components is not None
    assert check.components.odd_closed == pytest.approx(0.375, rel=1e-13, abs=0)
    assert check.components.even_closed == pytest.approx(0.125, rel=1e-13, abs=0)
    assert check.closed == pytest.approx(0.5, rel=1e-12, abs=0)


@pytest.mark.parametrize("rule", ["closure", "trk", "monopole"])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 20])
def test_isw_saturation(rule, n):
    """Closed path hits the analytic value at 1e-12; the brute path
    lands within its own (rescaled) tail estimate."""
    spec = SumRuleSpec(rule, n=n)
    report = verify(spec, ModelKind.ISW, tol=1e-9)
    assert report.passed
    assert report.rel_err_closed < 1e-12
    scaled_tail = ISW_PREFACTOR[rule](n) * report.trace.tail_estimate
    assert abs(report.brute - report.analytic) <= scaled_tail + 1e-13 * abs(report.analytic)


@pytest.mark.parametrize("rule", ["closure", "trk", "monopole"])
def test_delta_saturation(rule):
    report = verify(SumRuleSpec(rule), ModelKind.DELTA, tol=1e-9)
    assert report.passed
    assert report.rel_err_closed < 1e-12
    assert abs(report.brute - report.analytic) <= report.trace.est_error + 1e-13


def test_verify_report_structure():
    report = verify(SumRuleSpec("trk", n=3), ModelKind.ISW)
    assert report.rule_id == "isw.trk"
    assert report.params == {"n": 3}
    assert report.analytic == 0.5
    assert report.tol == DEFAULT_TOL
    assert report.rel_err_closed == abs(report.closed - 0.5) / 0.5
    assert report.rel_err_brute == abs(report.brute - 0.5) / 0.5
    assert report.brute == (32.0 * 3 * 3 / PI**2) * report.trace.value
    bethe = verify(SumRuleSpec("bethe", q=2.0), ModelKind.DELTA)
    assert bethe.rule_id == "delta.bethe"
    assert bethe.params == {"q": 2.0}
    with pytest.raises(InvalidSpecError):
        verify(TRK, "isw")


def test_verify_forced_failure():
    report = verify(SumRuleSpec("trk"), ModelKind.ISW, tol=1e-30, max_terms=50)
    assert not report.passed


@pytest.mark.parametrize("q", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
def test_bethe_split(q):
    parts = bethe_components(q)
    target = 0.5 * q * q
    # closed channel split is exact algebra
    assert parts.total_closed == pytest.approx(target, rel=1e-12, abs=0)
    assert parts.total_residue == pytest.approx(target, rel=1e-9)
    assert parts.total_quadrature == pytest.approx(target, rel=1e-9)
    # channels individually match their closed forms
    assert parts.odd_residue == pytest.approx(parts.odd_closed, rel=1e-9)
    assert parts.even_residue == pytest.approx(parts.even_closed, rel=1e-9, abs=0)
    assert parts.odd_quadrature == pytest.approx(parts.odd_closed, rel=1e-9)
    assert parts.even_quadrature == pytest.approx(parts.even_closed, rel=1e-9, abs=0)


BETHE_Q_GRID = [1e-4 * 1e8 ** (j / 40) for j in range(41)]  # log grid over [1e-4, 1e4]


def _bethe_bound_misses(qs, tol):
    """(q, channel, err / est_error) wherever a Bethe quadrature channel
    misses its closed form by more than its own error estimate."""
    misses = []
    for q in qs:
        for parity in (Parity.ODD, Parity.EVEN):
            quad = engine._bethe_quadrature_component(parity, q, tol)
            err = abs(quad.value - bethe_component_closed(parity, q))
            if err > quad.est_error:
                misses.append((q, parity.value, err / quad.est_error))
    return misses


def test_bethe_quadrature_inside_est_error():
    for tol in (1e-6, 1e-9, 1e-12):
        assert _bethe_bound_misses(BETHE_Q_GRID, tol) == []
    # the loose tols hold below the width-1 peak's trouble spot too
    for tol in (1e-2, 1e-3):
        assert _bethe_bound_misses([q for q in BETHE_Q_GRID if q < 158.0], tol) == []


@pytest.mark.xfail(
    strict=True,
    reason="the tan map puts the k = q peak on an initial panel edge: "
    "err/est_error reaches 247 at tol 1e-2 and 2730 at tol 1e-3",
)
@pytest.mark.parametrize("tol", [1e-2, 1e-3])
def test_bethe_quadrature_inside_est_error_at_loose_tol_large_q(tol):
    assert _bethe_bound_misses([q for q in BETHE_Q_GRID if q >= 158.0], tol) == []


# float.hex of (value, est_error) and the evaluation count of every
# delta-well quadrature, frozen before the panels were batched into one
# integrand call per bisection; batching must not move a bit
_DELTA_QUAD_HEX = [
    ("closure", None, 1e-09, "0x1.0000000000000p-1", "0x1.0000000000000p-51", 176),
    ("trk", None, 1e-09, "0x1.fffffffffffffp-2", "0x1.fffffffffffffp-52", 176),
    ("monopole", None, 1e-09, "0x1.0000000000000p+0", "0x1.0000000000000p-50", 176),
    ("stark", None, 1e-09, "0x1.3ffffffffffffp-1", "0x1.3ffffffffffffp-51", 176),
    ("odd", 0.0001, 1e-09, "0x1.5798ee0636110p-28", "0x1.5798ee0636110p-78", 176),
    ("even", 0.0001, 1e-09, "0x1.cd2b29302991ap-56", "0x1.cd2b29302991ap-106", 176),
    ("odd", 0.0123, 1e-09, "0x1.3d410e9c9779cp-14", "0x1.3d410e9c9779cp-64", 176),
    ("even", 0.0123, 1e-09, "0x1.892a2e927e557p-28", "0x1.892a2e927e557p-78", 176),
    ("odd", 1.0, 1e-09, "0x1.7ffffffffffffp-2", "0x1.0a72900000000p-42", 176),
    ("even", 1.0, 1e-09, "0x1.fffffffffffffp-4", "0x1.4a8ba40000000p-43", 176),
    ("odd", 345.6, 1e-09, "0x1.d2905c28694acp+14", "0x1.f02ffb8000000p-20", 880),
    ("even", 345.6, 1e-09, "0x1.d28e5c298238cp+14", "0x1.f02c02c000000p-20", 880),
    ("odd", 10000.0, 1e-09, "0x1.7d78404000722p+24", "0x1.c079340000000p-10", 1320),
    ("even", 10000.0, 1e-09, "0x1.7d783fc000723p+24", "0x1.c0793f0000000p-10", 1320),
    ("closure", None, 0.001, "0x1.0000000000000p-1", "0x1.0000000000000p-51", 176),
    ("trk", None, 0.001, "0x1.fffffffffffffp-2", "0x1.fffffffffffffp-52", 176),
    ("monopole", None, 0.001, "0x1.0000000000000p+0", "0x1.0000000000000p-50", 176),
    ("stark", None, 0.001, "0x1.3ffffffffffffp-1", "0x1.3ffffffffffffp-51", 176),
    ("odd", 0.0001, 0.001, "0x1.5798ee0636110p-28", "0x1.5798ee0636110p-78", 176),
    ("even", 0.0001, 0.001, "0x1.cd2b29302991ap-56", "0x1.cd2b29302991ap-106", 176),
    ("odd", 0.0123, 0.001, "0x1.3d410e9c9779cp-14", "0x1.3d410e9c9779cp-64", 176),
    ("even", 0.0123, 0.001, "0x1.892a2e927e557p-28", "0x1.892a2e927e557p-78", 176),
    ("odd", 1.0, 0.001, "0x1.7ffffffffffffp-2", "0x1.0a72900000000p-42", 176),
    ("even", 1.0, 0.001, "0x1.fffffffffffffp-4", "0x1.4a8ba40000000p-43", 176),
    ("odd", 345.6, 0.001, "0x1.d2905bc2a7470p+14", "0x1.e6a3860a7f6c0p+1", 616),
    ("even", 345.6, 0.001, "0x1.d28e5bc3bfda6p+14", "0x1.e6c1899c03fe0p+1", 616),
    ("odd", 10000.0, 0.001, "0x1.7d9ceacde7ebcp+23", "0x1.1e2bab0604590p+12", 616),
    ("even", 10000.0, 0.001, "0x1.7d907b4f6c091p+23", "0x1.1decab42aaab0p+12", 616),
]


@pytest.mark.parametrize("name, q, tol, value_hex, est_hex, evaluations", _DELTA_QUAD_HEX)
def test_delta_quadratures_are_frozen_bit_for_bit(name, q, tol, value_hex, est_hex, evaluations):
    if name == "stark":
        result = stark_verify(ModelKind.DELTA, F=1.0, tol=tol).trace
    elif q is None:
        result = verify(SumRuleSpec(name), ModelKind.DELTA, tol=tol).trace
    else:
        result = engine._bethe_quadrature_component(Parity(name), q, tol)
    assert (result.value.hex(), result.est_error.hex(), result.evaluations) == (
        value_hex, est_hex, evaluations
    )


def test_bethe_small_q_limits():
    """B_o exhausts the rule and B_e dies out as q -> 0."""
    q = 1e-3
    target = 0.5 * q * q
    assert bethe_component_closed(Parity.ODD, q) / target == pytest.approx(
        1.0, abs=1e-5
    )
    assert bethe_component_closed(Parity.EVEN, q) / target == pytest.approx(
        0.0, abs=1e-5
    )
    parts = bethe_components(q)
    assert parts.odd_residue / target == pytest.approx(1.0, abs=1e-5)
    assert parts.even_residue / target == pytest.approx(0.0, abs=1e-5)


def test_bethe_cross_check_guard(monkeypatch):
    """A corrupted quadrature value must raise, not average away."""
    real = engine.quadrature.integrate_semi_inf

    def corrupted(f, **kwargs):
        result = real(f, **kwargs)
        return QuadratureResult(
            result.value * 1.001, result.est_error, result.evaluations,
            result.converged,
        )

    monkeypatch.setattr(engine.quadrature, "integrate_semi_inf", corrupted)
    with pytest.raises(InconsistencyError):
        bethe_components(1.0)


def test_diagonal_handling():
    """Closure carries the k = n term; energy-weighted rules do not
    care whether it is included because the gap factor kills it."""
    n = 2
    direct = sum(isw.x_me(n, k) ** 2 for k in range(1, 400))
    assert direct == pytest.approx(analytic_rhs(SumRuleSpec("closure", n=n), ModelKind.ISW), rel=1e-9)
    # strip the diagonal and the sum falls short by exactly (1/2)^2
    assert direct - isw.x_me(n, n) ** 2 == pytest.approx(direct - 0.25, rel=1e-12, abs=0)
    # the k = n contribution to TRK/monopole is identically zero
    assert (isw.energy(n) - isw.energy(n)) * isw.x2_me(n, n) ** 2 == 0.0


def test_oscillator_strengths_isw():
    table = oscillator_strengths(ModelKind.ISW, 1, 10_000)
    assert table.n == 1
    k2, f12 = table.entries[0]
    assert k2 == 2.0
    assert f12 == pytest.approx(256.0 / (27.0 * PI**2), rel=1e-14, abs=0)
    assert table.sum == pytest.approx(math.fsum(f for _, f in table.entries), rel=1e-14, abs=0)
    assert table.sum < 1.0
    assert 1.0 - table.sum <= table.tail_bound


def test_oscillator_strengths_monotone_after_n():
    """All terms with k > n are positive, so partial sums only grow;
    negative strengths occur only for k < n."""
    table = oscillator_strengths(ModelKind.ISW, 4, 2000)
    below = [f for k, f in table.entries if k < 4]
    above = [f for k, f in table.entries if k > 4]
    assert all(f < 0 for f in below)
    assert all(f > 0 for f in above)
    partial = 0.0
    partials = []
    for _, f in table.entries:
        partial += f
        partials.append(partial)
    tail = [p for (k, _), p in zip(table.entries, partials) if k > 4]
    assert all(a < b for a, b in zip(tail, tail[1:]))


def test_oscillator_strengths_delta():
    table = oscillator_strengths(ModelKind.DELTA)
    assert table.entries == ()
    assert table.sum == pytest.approx(1.0, rel=1e-9)


def test_oscillator_strengths_validation():
    with pytest.raises(InvalidSpecError):
        oscillator_strengths(ModelKind.ISW, 0)
    with pytest.raises(InvalidSpecError):
        oscillator_strengths(ModelKind.ISW, 5, 6)
    with pytest.raises(InvalidSpecError):
        oscillator_strengths("isw", 1)


def test_stark_verify_isw():
    report = stark_verify(ModelKind.ISW, 1, 1.0)
    assert report.passed
    assert report.analytic == pytest.approx(-(15.0 - PI**2) / (24.0 * PI**2), rel=1e-14, abs=0)
    assert report.rel_err_closed < 1e-12
    assert report.rel_err_brute < 1e-10
    assert report.rule_id == "isw.stark2"
    assert report.params == {"n": 1, "F": 1.0}


def test_stark_verify_isw_sign_flip():
    assert stark_verify(ModelKind.ISW, 1, 2.0).analytic < 0
    for n in range(2, 7):
        assert stark_verify(ModelKind.ISW, n, 2.0).analytic > 0


def test_stark_verify_delta():
    report = stark_verify(ModelKind.DELTA, None, 1.0)
    assert report.passed
    assert report.analytic == -0.625
    assert report.rel_err_closed < 1e-12
    assert report.rel_err_brute < 1e-10
    assert stark_verify(ModelKind.DELTA, F=2.0).analytic == -2.5


@settings(max_examples=20, deadline=None)
@given(F=st.floats(0.01, 50.0), sign=st.sampled_from([-1.0, 1.0]))
def test_ground_state_stark_negativity(F, sign):
    assert isw.stark_shift2(1, sign * F) < 0
    assert stark_verify(ModelKind.DELTA, F=sign * F).analytic < 0


def test_stark_verify_validation():
    with pytest.raises(InvalidSpecError):
        stark_verify(ModelKind.ISW, 0, 1.0)
    with pytest.raises(InvalidSpecError):
        stark_verify(ModelKind.ISW, "bound", 1.0)
    with pytest.raises(InvalidSpecError):
        stark_verify(ModelKind.DELTA, 3, 1.0)
    with pytest.raises(InvalidSpecError):
        stark_verify(ModelKind.DELTA, "bound", 1.0)  # the state is None
    with pytest.raises(InvalidSpecError):
        stark_verify(ModelKind.ISW, 1, math.inf)
    with pytest.raises(InvalidSpecError):
        stark_verify("delta")

"""The dual-route verification engine across every supported rule."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumrules import delta, engine, isw, quadrature
from sumrules.core import DEFAULT_TOL, InconsistencyError, InvalidSpecError, ModelKind, Trace
from sumrules.engine import (
    SumRuleSpec,
    analytic_rhs,
    bethe_component_closed,
    bethe_components,
    half_line_moment,
    stark_verify,
    verify,
)
from sumrules.quadrature import QuadratureRows
from sumrules.series import Parity

from oracles import integrate_half_line

PI = math.pi

CLOSURE = SumRuleSpec("closure")
TRK = SumRuleSpec("trk")
MONOPOLE = SumRuleSpec("monopole")

STARK_FIELDS = (1e-3, 0.5, 3.0, 1e3)


def saturation_checks(rule, model, n=None):
    """(check at tol 1e-9, F^2) pairs: one with F^2 = 1 for a sum rule,
    one per field of STARK_FIELDS for stark."""
    if rule == "stark":
        return [(stark_verify(model, n, F, tol=1e-9), F * F) for F in STARK_FIELDS]
    spec = SumRuleSpec(rule) if n is None else SumRuleSpec(rule, n=n)
    return [(verify(spec, model, tol=1e-9), 1.0)]


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


def test_analytic_rhs_rejects_a_model_name():
    # a bare string once fell through to the delta well's values
    with pytest.raises(InvalidSpecError, match="ModelKind"):
        analytic_rhs(SumRuleSpec("closure", n=2), "isw")
    with pytest.raises(InvalidSpecError, match="ModelKind"):
        analytic_rhs(SumRuleSpec("bethe", q=2.0), "isw")
    with pytest.raises(InvalidSpecError, match="ModelKind"):
        verify(SumRuleSpec("closure", n=2), "isw")


BAD_SCALARS = (0.0, -1.0, math.nan, math.inf)


@pytest.mark.parametrize("bad", BAD_SCALARS)
def test_entry_points_reject_bad_q(bad):
    with pytest.raises(InvalidSpecError, match="q must be finite and > 0"):
        SumRuleSpec("bethe", q=bad)
    with pytest.raises(InvalidSpecError, match="q must be finite and > 0"):
        bethe_components(bad)


@pytest.mark.parametrize("bad", BAD_SCALARS)
def test_entry_points_reject_bad_tol(bad):
    """A tol that no route can meet is a bad request, on every library
    entry point as on the command line: it never reaches a sum."""
    with pytest.raises(InvalidSpecError, match="tol must be finite and > 0"):
        bethe_components(1.0, tol=bad)
    for spec, model in (
        (SumRuleSpec("trk", n=3), ModelKind.ISW),
        (TRK, ModelKind.DELTA),
        (SumRuleSpec("bethe", q=1.0), ModelKind.DELTA),
    ):
        with pytest.raises(InvalidSpecError, match="tol must be finite and > 0"):
            verify(spec, model, tol=bad)
    for model in ModelKind:
        with pytest.raises(InvalidSpecError, match="tol must be finite and > 0"):
            stark_verify(model, tol=bad)


def test_half_line_moment_frozen_values():
    assert half_line_moment(3) == pytest.approx(PI / 16.0, rel=1e-15, abs=0)
    assert half_line_moment(4) == pytest.approx(PI / 32.0, rel=1e-15, abs=0)
    assert half_line_moment(5) == pytest.approx(5.0 * PI / 256.0, rel=1e-15, abs=0)


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
    odd, even = check.components
    assert odd.analytic == pytest.approx(0.375, rel=1e-13, abs=0)
    assert even.analytic == pytest.approx(0.125, rel=1e-13, abs=0)
    assert check.closed == pytest.approx(0.5, rel=1e-12, abs=0)


@pytest.mark.parametrize("rule", ["closure", "trk", "monopole", "stark"])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 20])
def test_isw_saturation(rule, n):
    """Closed path hits the analytic value at 1e-12; the brute path
    lands within its own bound in the rule's units."""
    for report, _ in saturation_checks(rule, ModelKind.ISW, n):
        assert report.passed
        assert report.rel_err_closed < 1e-12
        assert abs(report.brute - report.analytic) <= report.bound + 1e-13 * abs(report.analytic)


@pytest.mark.parametrize("rule", ["closure", "trk", "monopole", "stark"])
def test_delta_saturation(rule):
    for report, field in saturation_checks(rule, ModelKind.DELTA):
        assert report.passed
        assert report.rel_err_closed < 1e-12
        assert abs(report.brute - report.analytic) <= report.bound + field * 1e-13


def test_verify_report_structure():
    report = verify(SumRuleSpec("trk", n=3), ModelKind.ISW)
    assert report.rule == "trk"
    assert report.params == {"n": 3}
    assert report.analytic == 0.5
    assert report.tol == DEFAULT_TOL
    assert report.rel_err_closed == abs(report.closed - 0.5) / 0.5
    assert report.rel_err_brute == abs(report.brute - 0.5) / 0.5
    assert report.brute == (32.0 * 3 * 3 / PI**2) * report.trace.value
    assert report.bound == (32.0 * 3 * 3 / PI**2) * report.trace.bound
    bethe = verify(SumRuleSpec("bethe", q=2.0), ModelKind.DELTA)
    assert bethe.rule == "bethe"
    assert bethe.params == {"q": 2.0}
    with pytest.raises(InvalidSpecError):
        verify(TRK, "isw")


def test_verify_forced_failure():
    report = verify(SumRuleSpec("trk"), ModelKind.ISW, tol=1e-30, max_terms=50)
    assert not report.passed


@pytest.mark.parametrize("q", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
def test_bethe_split(q):
    odd, even = bethe_components(q)
    target = 0.5 * q * q
    # closed channel split is exact algebra
    assert odd.analytic + even.analytic == pytest.approx(target, rel=1e-12, abs=0)
    assert odd.closed + even.closed == pytest.approx(target, rel=1e-9)
    assert odd.brute + even.brute == pytest.approx(target, rel=1e-9)
    # channels individually match their closed forms
    assert odd.closed == pytest.approx(odd.analytic, rel=1e-9)
    assert even.closed == pytest.approx(even.analytic, rel=1e-9, abs=0)
    assert odd.brute == pytest.approx(odd.analytic, rel=1e-9)
    assert even.brute == pytest.approx(even.analytic, rel=1e-9, abs=0)


def _bethe_quadrature(q, tol, row=None):
    """The two-row (odd, even) quadrature whose rows are the traces of
    `bethe_components(q, tol)`, as `test_bethe_channel_records` checks,
    or the one-row quadrature of one channel alone, of shape
    (8/pi) q^2 k^2 (k^2 + 1) / D^2 or (8/pi) q^4 k^2 / D^2."""
    q2 = q * q  # the engine's products, so that the bounds match bit for bit
    shapes = [(8.0 / PI * q2, 1), (8.0 / PI * q2 * q2, 0)]
    rows = (0, 1) if row is None else (row,)
    return quadrature.integrate_semi_inf(
        lambda s: [delta.bethe_strengths(q, s)[i] for i in rows],
        [shapes[i] for i in rows], q, tol)


@pytest.mark.parametrize("q", [1e-4, 0.5, 2.0, 345.6, 1e4])
def test_bethe_channel_records(q):
    """Each channel is a delta-well record of its own, and a bethe row's
    routes and trace are the sums of its channels', bit for bit."""
    row = verify(SumRuleSpec("bethe", q=q), ModelKind.DELTA)
    odd, even = row.components
    assert (odd.trace, even.trace) == _bethe_quadrature(q, DEFAULT_TOL)
    pairs = zip((odd, even), (Parity.ODD, Parity.EVEN), engine._bethe_residues(q))
    for i, (channel, parity, res) in enumerate(pairs):
        assert channel.rule == f"bethe.{parity.value}"
        assert channel.model is ModelKind.DELTA
        assert channel.params == {"q": q}
        assert channel.analytic == bethe_component_closed(parity, q)
        assert channel.closed == res
        assert (channel.trace,) == _bethe_quadrature(q, DEFAULT_TOL, row=i)
        assert channel.brute == channel.trace.value
        assert channel.tol == DEFAULT_TOL
        assert channel.components is None
    assert (odd, even) == bethe_components(q)
    assert row.closed == odd.closed + even.closed
    assert row.brute == odd.brute + even.brute
    assert (odd.bound, even.bound) == (odd.trace.bound, even.trace.bound)
    assert row.bound == odd.bound + even.bound
    assert row.trace == Trace(
        value=odd.trace.value + even.trace.value,
        bound=row.bound,
        terms_used=odd.trace.terms_used,
        converged=odd.trace.converged and even.trace.converged,
    )
    assert odd.trace.terms_used == even.trace.terms_used


BETHE_Q_GRID = [1e-4 * 1e8 ** (j / 40) for j in range(41)]  # log grid over [1e-4, 1e4]


def _bethe_bound_misses(qs, tol):
    """(q, channel, err / est_error) wherever a Bethe quadrature channel
    misses its closed form by more than its own error estimate."""
    misses = []
    for q in qs:
        for parity, quad in zip((Parity.ODD, Parity.EVEN), _bethe_quadrature(q, tol)):
            err = abs(quad.value - bethe_component_closed(parity, q))
            if err > quad.bound:
                misses.append((q, parity.value, err / quad.bound))
    return misses


def test_bethe_quadrature_inside_est_error():
    for tol in (1e-6, 1e-9, 1e-12):
        assert _bethe_bound_misses(BETHE_Q_GRID, tol) == []
    # the loose tols hold below the width-1 peak's trouble spot too
    for tol in (1e-2, 1e-3):
        assert _bethe_bound_misses([q for q in BETHE_Q_GRID if q < 158.0], tol) == []


@pytest.mark.parametrize("tol", [1e-2, 1e-3])
def test_bethe_quadrature_inside_est_error_at_loose_tol_large_q(tol):
    assert _bethe_bound_misses([q for q in BETHE_Q_GRID if q >= 158.0], tol) == []


def test_bethe_quadrature_inside_est_error_at_default_tol():
    # the one miss a 4001-point log grid over q in [1e-4, 1e4] showed
    # while an adaptive loop did the quadrature
    for channel in bethe_components(19.881398211747452):
        assert abs(channel.brute - channel.analytic) <= channel.bound


def test_bethe_residue_channels_match_closed_forms_to_the_last_bits():
    """The residue route rounds once from an exact sum and the closed
    form a handful of times, so the two agree to a few ulps over the
    whole q range."""
    worst = 0.0
    for q in BETHE_Q_GRID:
        for parity, res in zip((Parity.ODD, Parity.EVEN), engine._bethe_residues(q)):
            closed = bethe_component_closed(parity, q)
            worst = max(worst, abs(res - closed) / closed)
    assert worst <= 1e-15


# float.hex of (value, est_error) and the evaluation count of every
# delta-well quadrature, frozen before the panels were batched into one
# integrand call per bisection, while the adaptive loop now kept as
# `oracles.integrate_half_line` was the package's quadrature of the
# matrix-element integrands; the oracle must not move a bit
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
    # channels that stop in different rounds, frozen while each channel
    # still ran its own quadrature
    ("odd", 10.0, 1e-09, "0x1.93f5dc83cd4eap+4", "0x1.7e1b167700000p-26", 396),
    ("even", 10.0, 1e-09, "0x1.8c0a237c32b18p+4", "0x1.884b5d3c00000p-30", 440),
    ("odd", 100.0, 1e-09, "0x1.3887ffcb9391cp+11", "0x1.a4024b0000000p-24", 704),
    ("even", 100.0, 1e-09, "0x1.387800346c6cfp+11", "0x1.394ab3f600000p-19", 660),
    ("odd", 19.881398211747452, 1e-09, "0x1.8c4478efc930cp+6", "0x1.06236a9000000p-24", 396),
    ("even", 19.881398211747452, 1e-09, "0x1.8a45c3c3d39d4p+6", "0x1.c1e2860000000p-28", 528),
    ("odd", 158.48931924611142, 0.001, "0x1.8722980b4e6ecp+12", "0x1.27439fc6cf9e8p+1", 396),
    ("even", 158.48931924611142, 0.001, "0x1.887774f0f241fp+12", "0x1.4661793d9e600p-1", 528),
    ("odd", 1.0, 1e-12, "0x1.7ffffffffffffp-2", "0x1.0a72900000000p-42", 176),
    ("even", 1.0, 1e-12, "0x1.ffffffffffffdp-4", "0x1.c0d6900000000p-45", 220),
]


def _matrix_element_integrand(q):
    """The (odd, even) Bethe channel integrands as the gap times the
    squared matrix elements sqrt(4/pi) 2kq / D and
    sqrt(4/(pi (1 + k^2))) (-2kq^2) / D, D formed from k."""
    def integrand(k):
        gap = delta.energy_gap(k)
        denom = ((k + q) ** 2 + 1.0) * ((k - q) ** 2 + 1.0)
        odd = math.sqrt(4.0 / PI) * 2.0 * k * q / denom
        even = np.sqrt(4.0 / (PI * (1.0 + k * k))) * (-2.0 * k * q * q) / denom
        return gap * odd * odd, gap * even * even

    return integrand


@pytest.mark.parametrize("name, q, tol, value_hex, est_hex, evaluations", _DELTA_QUAD_HEX)
def test_delta_quadratures_are_frozen_bit_for_bit(name, q, tol, value_hex, est_hex, evaluations):
    if q is None:
        result = integrate_half_line(engine._DELTA_CHECKS[name][2], tol=tol)
    else:
        both = integrate_half_line(_matrix_element_integrand(q), scale=max(1.0, q), tol=tol)
        result = both[0 if name == "odd" else 1]
    assert (result.value.hex(), result.bound.hex(), result.terms_used) == (
        value_hex, est_hex, evaluations
    )


# float.hex of (value, est_error) and the node count of each delta-well
# quadrature of the certified rule, at any tol; test_domain judges every
# record against its exact value
_DELTA_RULE_HEX = [
    ('closure', None, '0x1.0000000000002p-1', '0x1.0280c2aba22a6p-50', 80),
    ('trk', None, '0x1.0000000000000p-1', '0x1.0588f1bc76a01p-50', 80),
    ('monopole', None, '0x1.0000000000003p+0', '0x1.0280c2aba22a7p-49', 80),
    ('stark', None, '0x1.4000000000006p-1', '0x1.a5558a16caa62p-50', 80),
    ('odd', 0.0001, '0x1.5798ee0636112p-28', '0x1.5f04a35216607p-77', 100),
    ('even', 0.0001, '0x1.cd2b29302991bp-56', '0x1.d1ac23b3cc7bdp-105', 100),
    ('odd', 0.0123, '0x1.3d410e9c9779ep-14', '0x1.433eed4382609p-63', 100),
    ('even', 0.0123, '0x1.892a2e927e55ap-28', '0x1.8c8154fe89002p-77', 100),
    ('odd', 1.0, '0x1.8000000000000p-2', '0x1.80044f47cb3dcp-51', 100),
    ('even', 1.0, '0x1.fffffffffffffp-4', '0x1.00019b4978ae3p-52', 100),
    ('odd', 10.0, '0x1.93f5dc83cd4eap+4', '0x1.93f5e2e1d7320p-45', 200),
    ('even', 10.0, '0x1.8c0a237c32b17p+4', '0x1.8c0a289455546p-45', 200),
    ('odd', 19.881398211747452, '0x1.8c4479002510ep+6', '0x1.8c447d8ac7d3cp-43', 240),
    ('even', 19.881398211747452, '0x1.8a45c3c3d39cdp+6', '0x1.8a45c7d23b21bp-43', 240),
    ('odd', 42.04238735157813, '0x1.ba23f405144b9p+8', '0x1.ba23f84662e64p-41', 300),
    ('even', 42.04238735157813, '0x1.b9a4068c4228cp+8', '0x1.b9a40a94c36edp-41', 300),
    ('odd', 42.42448915822579, '0x1.c2358ce72dbc6p+8', '0x1.c235913ac9167p-41', 300),
    ('even', 42.42448915822579, '0x1.c1b59f1959833p+8', '0x1.c1b5a333b4bd5p-41', 300),
    ('odd', 100.0, '0x1.3887ffcb9391bp+11', '0x1.38880289cd51ap-38', 340),
    ('even', 100.0, '0x1.387800346c6e4p+11', '0x1.387802e30179bp-38', 340),
    ('odd', 158.48931924611142, '0x1.887f750494ac3p+12', '0x1.887f7860df7d0p-37', 340),
    ('even', 158.48931924611142, '0x1.8877751973c3ap+12', '0x1.8877786999deap-37', 340),
    ('odd', 345.6, '0x1.d2905c28694b7p+14', '0x1.d290600fc599ep-35', 420),
    ('even', 345.6, '0x1.d28e5c298239bp+14', '0x1.d28e600a5ff86p-35', 420),
    ('odd', 10000.0, '0x1.7d78403fffffep+24', '0x1.7d784361d2930p-25', 580),
    ('even', 10000.0, '0x1.7d783fc000000p+24', '0x1.7d7842e1a453dp-25', 580),
    ('odd', 1000000.0, '0x1.d1a94a2001fffp+37', '0x1.d1a94df223eb8p-12', 860),
    ('even', 1000000.0, '0x1.d1a94a1ffdfffp+37', '0x1.d1a94df21f5b1p-12', 860),
    ('odd', 10000000000.0, '0x1.5af1d78b58c3fp+64', '0x1.5af1da641b792p+15', 1380),
    ('even', 10000000000.0, '0x1.5af1d78b58c3ep+64', '0x1.5af1da641b791p+15', 1380),
]


@pytest.mark.parametrize("name, q, value_hex, est_hex, evaluations", _DELTA_RULE_HEX)
def test_delta_rule_records_are_frozen_bit_for_bit(name, q, value_hex, est_hex, evaluations):
    for tol in (1e-3, 1e-9, 1e-12):
        if name == "stark":
            result = stark_verify(ModelKind.DELTA, F=1.0, tol=tol).trace
        elif q is None:
            result = verify(SumRuleSpec(name), ModelKind.DELTA, tol=tol).trace
        else:
            result = bethe_components(q, tol)[0 if name == "odd" else 1].trace
        assert (result.value.hex(), result.bound.hex(), result.terms_used) == (
            value_hex, est_hex, evaluations
        )


# float.hex of (closed, brute, brute-sum value, tail_estimate) and the
# terms used of box records, sum rules at F None; the F = 0 rows pin the
# sign of a zero shift.  Frozen before stark joined the table of checks,
# re-frozen when the brute sum took mirror pairs and an Euler-Maclaurin
# cutoff; test_domain judges each record against mpmath.
_BOX_HEX = [
    ("closure", 1, None, "0x1.2174f6910fc71p-2", "0x1.2174f6910fc71p-2", "0x1.976028cf0df51p-5", "0x1.a2233e709c95ep-52", 44),
    ("closure", 2, None, "0x1.485d3da443f1cp-2", "0x1.485d3da443f1cp-2", "0x1.b88eeddc7240ep-6", "0x1.c5cee1b9781d2p-53", 47),
    ("closure", 3, None, "0x1.4f91bc94dbd3cp-2", "0x1.4f91bc94dbd3cp-2", "0x1.ae9932392c6b4p-7", "0x1.baab94b3fa666p-54", 51),
    ("closure", 7, None, "0x1.54464e2cc1a0cp-2", "0x1.54464e2cc1a0cp-2", "0x1.4f10e066833eep-9", "0x1.58dffeff69ad9p-56", 61),
    ("closure", 100, None, "0x1.5554015b196c2p-2", "0x1.5554015b196c2p-2", "0x1.a98f99c512b5ap-17", "0x1.b6debba7ca85dp-64", 129),
    ("closure", 1000, None, "0x1.555551eefdb1bp-2", "0x1.555551eefdb1cp-2", "0x1.106019dafcabep-23", "0x1.10fd8ac6c718fp-70", 1005),
    ("trk", 1, None, "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.3bd3cc9be45dep-3", "0x1.44d94196980d7p-50", 116),
    ("trk", 2, None, "0x1.0000000000000p-1", "0x1.ffffffffffffep-2", "0x1.3bd3cc9be45ddp-5", "0x1.4552a72d59185p-52", 141),
    ("trk", 3, None, "0x1.0000000000002p-1", "0x1.ffffffffffffdp-2", "0x1.18bc4418cafe0p-6", "0x1.21299857cd1c0p-53", 158),
    ("trk", 7, None, "0x1.ffffffffffffcp-2", "0x1.0000000000000p-1", "0x1.9c82599c97fd3p-9", "0x1.a709a2354c4e2p-56", 206),
    ("trk", 100, None, "0x1.0000000000002p-1", "0x1.fffffffffffffp-2", "0x1.02b9cb4038018p-16", "0x1.0987aaf031519p-63", 449),
    ("trk", 1000, None, "0x1.ffffffffffffdp-2", "0x1.0000000000001p-1", "0x1.4b2b4199e149bp-23", "0x1.5268dee6c9b4cp-70", 1122),
    ("monopole", 1, None, "0x1.2174f6910fc71p-1", "0x1.2174f6910fc71p-1", "0x1.651a6625307d3p-3", "0x1.6e5be786681ecp-50", 171),
    ("monopole", 2, None, "0x1.485d3da443f1cp-1", "0x1.485d3da443f1ap-1", "0x1.951a6625307d0p-5", "0x1.a09d811ed4289p-52", 203),
    ("monopole", 3, None, "0x1.4f91bc94dbd3cp-1", "0x1.4f91bc94dbd3bp-1", "0x1.6ffe2e8c83985p-6", "0x1.7860083e6f0d1p-53", 234),
    ("monopole", 7, None, "0x1.54464e2cc1a0dp-1", "0x1.54464e2cc1a0dp-1", "0x1.1227345028323p-8", "0x1.1788d08ff957ep-55", 305),
    ("monopole", 100, None, "0x1.5554015b196c3p-1", "0x1.5554015b196c4p-1", "0x1.58f6621207347p-16", "0x1.5f88baaadac60p-63", 673),
    ("monopole", 1000, None, "0x1.555551eefdb1bp-1", "0x1.555551eefdb1dp-1", "0x1.b98efdbc9b575p-23", "0x1.bd0283769e2cap-70", 2004),
    ("stark", 1, 0.0, "-0x0.0p+0", "-0x0.0p+0", "0x1.0e0d9e824f923p-6", "0x1.149c4dc236c4ap-53", 23),
    ("stark", 1, 0.001, "-0x1.74199c6588919p-26", "-0x1.74199c658891dp-26", "0x1.0e0d9e824f923p-6", "0x1.149c4dc236c4ap-53", 23),
    ("stark", 1, 7.3, "-0x1.277a702282b0fp+0", "-0x1.277a702282b12p+0", "0x1.0e0d9e824f923p-6", "0x1.149c4dc236c4ap-53", 23),
    ("stark", 1, 1000.0, "-0x1.526c4add4b403p+14", "-0x1.526c4add4b407p+14", "0x1.0e0d9e824f923p-6", "0x1.149c4dc236c4ap-53", 23),
    ("stark", 1, 1e-160, "-0x0.000000000002cp-1022", "-0x0.000000000002cp-1022", "0x1.0e0d9e824f923p-6", "0x1.149c4dc236c4ap-53", 23),
    ("stark", 2, 0.0, "0x0.0p+0", "0x0.0p+0", "-0x1.421f8121fc9ddp-10", "0x1.4cbb35832d1dbp-57", 30),
    ("stark", 2, 0.001, "0x1.bbd88cfd5b8e3p-28", "0x1.bbd88cfd5b8d4p-28", "-0x1.421f8121fc9ddp-10", "0x1.4cbb35832d1dbp-57", 30),
    ("stark", 2, 7.3, "0x1.60734f7c7e0cdp-2", "0x1.60734f7c7e0c1p-2", "-0x1.421f8121fc9ddp-10", "0x1.4cbb35832d1dbp-57", 30),
    ("stark", 2, 1000.0, "0x1.93aced48ad30cp+12", "0x1.93aced48ad2fep+12", "-0x1.421f8121fc9ddp-10", "0x1.4cbb35832d1dbp-57", 30),
    ("stark", 2, 1e-160, "0x0.000000000000dp-1022", "0x0.000000000000dp-1022", "-0x1.421f8121fc9ddp-10", "0x1.4cbb35832d1dbp-57", 30),
    ("stark", 7, 0.0, "0x0.0p+0", "0x0.0p+0", "-0x1.ad63efcdeea63p-17", "0x1.bafceca883777p-64", 44),
    ("stark", 7, 0.001, "0x1.c4fad22b6ba27p-31", "0x1.c4fad22b6ba22p-31", "-0x1.ad63efcdeea63p-17", "0x1.bafceca883777p-64", 44),
    ("stark", 7, 7.3, "0x1.67b4174248043p-5", "0x1.67b417424803fp-5", "-0x1.ad63efcdeea63p-17", "0x1.bafceca883777p-64", 44),
    ("stark", 7, 1000.0, "0x1.9bfb923f5ea38p+9", "0x1.9bfb923f5ea33p+9", "-0x1.ad63efcdeea63p-17", "0x1.bafceca883777p-64", 44),
    ("stark", 7, 1e-160, "0x0.0000000000002p-1022", "0x0.0000000000002p-1022", "-0x1.ad63efcdeea63p-17", "0x1.bafceca883777p-64", 44),
]


@pytest.mark.parametrize("rule, n, F, closed_hex, brute_hex, value_hex, tail_hex, terms", _BOX_HEX)
def test_box_records_are_frozen_bit_for_bit(rule, n, F, closed_hex, brute_hex, value_hex,
                                            tail_hex, terms):
    if F is None:
        check = verify(SumRuleSpec(rule, n=n), ModelKind.ISW)
    else:
        check = stark_verify(ModelKind.ISW, n, F)
    trace = check.trace
    assert (check.closed.hex(), check.brute.hex(), trace.value.hex(),
            trace.bound.hex(), trace.terms_used) == (
        closed_hex, brute_hex, value_hex, tail_hex, terms
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
    odd, even = bethe_components(q)
    assert odd.closed / target == pytest.approx(1.0, abs=1e-5)
    assert even.closed / target == pytest.approx(0.0, abs=1e-5)


def test_bethe_cross_check_guard(monkeypatch):
    """A corrupted quadrature value must raise, not average away."""
    real = engine.quadrature.integrate_semi_inf

    def corrupted(f, *args, **kwargs):
        return QuadratureRows(
            dataclasses.replace(row, value=row.value * 1.001) for row in real(f, *args, **kwargs)
        )

    monkeypatch.setattr(engine.quadrature, "integrate_semi_inf", corrupted)
    with pytest.raises(InconsistencyError):
        bethe_components(1.0)


def test_diagonal_handling():
    """Closure carries the k = n term."""
    n = 2
    direct = sum(isw.x_me(n, k) ** 2 for k in range(1, 400))
    assert direct == pytest.approx(analytic_rhs(SumRuleSpec("closure", n=n), ModelKind.ISW), rel=1e-9)
    # strip the diagonal and the sum falls short by exactly (1/2)^2
    assert direct - isw.x_me(n, n) ** 2 == pytest.approx(direct - 0.25, rel=1e-12, abs=0)


def test_stark_verify_isw():
    report = stark_verify(ModelKind.ISW, 1, 1.0)
    assert report.passed
    assert report.analytic == pytest.approx(-(15.0 - PI**2) / (24.0 * PI**2), rel=1e-14, abs=0)
    assert report.rel_err_closed < 1e-12
    assert report.rel_err_brute < 1e-10
    assert report.rule == "stark"
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
    report = stark_verify(ModelKind.DELTA, F=2.0)
    assert report.analytic == -2.5
    assert report.bound == 4.0 * report.trace.bound  # |-F^2| times the integral's


def test_zero_field_box_row_bound_is_zero_under_any_cap():
    # at F = 0 the brute route is its offset exactly, so a cap that
    # leaves the lattice sum no tail bound still gives the row bound 0,
    # not 0 * inf
    report = stark_verify(ModelKind.ISW, 2, 0.0, max_terms=1)
    assert math.isinf(report.trace.bound) and not report.trace.converged
    assert report.bound == 0.0
    assert report.brute == 0.0 and report.passed


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

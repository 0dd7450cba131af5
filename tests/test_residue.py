"""The closed-form contour route of the two Bethe channels.

`residue.contour_integral_uhp(q)` takes one double-pole residue per
channel in exact Gaussian-rational arithmetic and rounds once.  The
tests below pin its floats to the general Taylor-series residue engine
it replaced, hold its exact residues to the textbook closed forms and
to the Fraction residue engine of tests/oracles.py, and check its
values against quadratures that share none of its code.  The first
block checks that oracle on textbook integrals.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumrules.core import InvalidSpecError
from sumrules.residue import _residues, contour_integral_uhp

from oracles import (
    FactoredRational,
    contour_integral,
    integrate_real_line,
    residue_at,
    residue_exact,
    uhp_residue_sum,
)

PI = math.pi


def test_poly_trims_and_evaluates():
    # with no poles the rational function is its numerator polynomial
    p = FactoredRational([1.0, 2.0, 0.0, 0.0], [])
    assert p.numerator == (1 + 0j, 2 + 0j)
    assert p.degree == 1
    assert p(3.0) == 7 + 0j
    assert FactoredRational([], []).numerator == (0j,)


def test_simple_pole_residue():
    # 1/(z^2+1) = 1/((z-i)(z+i)); residue at i is 1/(2i)
    f = FactoredRational([1.0], [(1j, 1), (-1j, 1)])
    assert residue_at(f, 0) == pytest.approx(-0.5j)


def test_residue_with_numerator_below_pole_order():
    # (1 + z)/(z^2+1)^3 at i: the odd part z/(z^2+1)^3 has residue 0 there,
    # so the residue is that of 1/(z^2+1)^3, -3i/16; the numerator's
    # Taylor series at the pole stops short of the t^2 the residue needs
    f = FactoredRational([1.0, 1.0], [(1j, 3), (-1j, 3)])
    assert residue_at(f, 0) == -0.1875j
    assert contour_integral(f) == 3.0 * PI / 8.0
    # with no other pole the numerator alone holds h(z0 + t) = 1 + i + t
    assert residue_at(FactoredRational([1.0, 1.0], [(1j, 3)]), 0) == 0j


@pytest.mark.parametrize("m", range(1, 7))
def test_power_of_lorentzian_is_exact(m):
    # int (x^2+1)^-m dx = pi C(2m-2, m-1) / 4^(m-1): the residue sum is a
    # dyadic rational, so one rounding of pi times it is all that is left
    f = FactoredRational([1.0], [(1j, m), (-1j, m)])
    assert contour_integral(f) == PI * math.comb(2 * m - 2, m - 1) / 4 ** (m - 1)


def test_mixed_pole_orders_match_quadrature():
    poles = [(1j, 3), (-1j, 3), (complex(2.0, 0.5), 1), (complex(2.0, -0.5), 1)]
    f = FactoredRational([1.0, 0.5, 2.0, 0.0, -1.5], poles)
    quad = integrate_real_line(lambda k: f(k).real, scale=2.0, tol=1e-12)
    assert contour_integral(f) == pytest.approx(quad.value, rel=1e-9)


def test_residue_index_out_of_range():
    f = FactoredRational([1.0], [(1j, 1), (-1j, 1)])
    with pytest.raises(InvalidSpecError):
        residue_at(f, 2)


def test_lorentzian_contour_is_pi():
    f = FactoredRational([1.0], [(1j, 1), (-1j, 1)])
    assert contour_integral(f) == pytest.approx(PI, rel=1e-15, abs=0)


def test_contour_matches_quadrature_on_known_integrals():
    # int 1/(z^2+1)^2 = pi/2; int z^2/(z^2+1)^2 = pi/2
    f2 = FactoredRational([1.0], [(1j, 2), (-1j, 2)])
    assert contour_integral(f2) == pytest.approx(PI / 2, rel=1e-14, abs=0)
    g = FactoredRational([0.0, 0.0, 1.0], [(1j, 2), (-1j, 2)])
    assert contour_integral(g) == pytest.approx(PI / 2, rel=1e-14, abs=0)


def test_shifted_pole_pair():
    # 1/((z-a)^2+b^2) integrates to pi/b independent of the real shift a
    for a, b in [(0.7, 1.0), (-2.0, 0.5), (3.5, 2.0)]:
        f = FactoredRational(
            [1.0], [(complex(a, b), 1), (complex(a, -b), 1)]
        )
        assert contour_integral(f) == pytest.approx(PI / b, rel=1e-13, abs=0)


def test_linearity_is_exact():
    poles = [(1 + 1j, 2), (1 - 1j, 2), (-1 + 1j, 2), (-1 - 1j, 2)]
    f = FactoredRational([1.0], poles)
    g = FactoredRational([0.0, 0.0, 1.0], poles)
    combined = FactoredRational([2.0, 0.0, 3.0], poles)
    assert contour_integral(combined) == pytest.approx(
        2.0 * contour_integral(f) + 3.0 * contour_integral(g), rel=1e-15, abs=0
    )
    # and the exact residue sums are linear to the last bit
    (fr, fi), (gr, gi) = uhp_residue_sum(f), uhp_residue_sum(g)
    assert uhp_residue_sum(combined) == (2 * fr + 3 * gr, 2 * fi + 3 * gi)


def _mirror_symmetric(f):
    """Whether f(-conj z) = conj f(z) holds identically: a real, even
    numerator over a pole set closed under z -> -conj z with equal
    orders, the symmetry that lets the closed form take one residue per
    mirror pair."""
    if any(c.imag != 0 or (p % 2 and c != 0) for p, c in enumerate(f.numerator)):
        return False
    poles = set(f.poles)
    return all((complex(-z.real, z.imag), m) in poles for z, m in f.poles)


# float.hex of the contour value, frozen before the mirror rule
_GENERIC_HEX = [
    # poles a +- bi with a != 0 and no mirror partner
    ([1.0], [(complex(0.7, 1.0), 1), (complex(0.7, -1.0), 1)], "0x1.921fb54442d18p+1"),
    (
        [1.0, 0.5, 2.0, 0.0, -1.5],
        [(1j, 3), (-1j, 3), (complex(2.0, 0.5), 1), (complex(2.0, -0.5), 1)],
        "-0x1.08c56e7cee926p-5",
    ),
    # the first pole's mirror partner is there, the last pair's is not
    (
        [1.0],
        [(1 + 1j, 1), (1 - 1j, 1), (-1 + 1j, 1), (-1 - 1j, 1), (2 + 1j, 1), (2 - 1j, 1)],
        "0x1.d62cf373424f9p-3",
    ),
    # a mirror-closed pole set under a numerator with an odd power
    ([1.0, 0.5, 2.0], [(1 + 1j, 2), (1 - 1j, 2), (-1 + 1j, 2), (-1 - 1j, 2)], "0x1.5fdbbe9bba775p-2"),
]


@pytest.mark.parametrize("numerator, poles, value_hex", _GENERIC_HEX)
def test_integrands_without_mirror_symmetry_take_the_generic_path(numerator, poles, value_hex):
    f = FactoredRational(numerator, poles)
    assert not _mirror_symmetric(f)
    assert contour_integral(f).hex() == value_hex


@pytest.mark.parametrize(
    "numerator, poles, value_hex",
    [
        ([1.0], [(1j, 2), (-1j, 2)], "0x1.921fb54442d18p+0"),
        (
            [1.0, 0.0, 1.0],
            [(1 + 1j, 2), (1 - 1j, 2), (-1 + 1j, 2), (-1 - 1j, 2), (2j, 1), (-2j, 1)],
            "0x1.9a2a950d4e651p-5",
        ),
    ],
)
def test_poles_on_the_imaginary_axis_take_the_mirror_path(numerator, poles, value_hex):
    """Under the mirror symmetry the residue at -conj z0 is exactly
    -conj of the one at z0, so a pole on the imaginary axis, its own
    mirror, has a purely imaginary residue."""
    f = FactoredRational(numerator, poles)
    assert _mirror_symmetric(f)
    for index, (z, m) in enumerate(f.poles):
        re, im = residue_exact(f, index)
        mirror = f.poles.index((complex(-z.real, z.imag), m))
        assert residue_exact(f, mirror) == (-re, im)
    assert contour_integral(f).hex() == value_hex


@settings(max_examples=25, deadline=None)
@given(
    b=st.floats(0.2, 4.0),
    a=st.floats(-3.0, 3.0),
)
def test_residue_sum_real_part_vanishes(a, b):
    """For real-on-axis integrands the UHP residue sum is purely
    imaginary, so 2 pi i times it is purely real; exact arithmetic makes
    this an identity rather than an approximation."""
    f = FactoredRational(
        [1.0], [(complex(a, b), 2), (complex(a, -b), 2)]
    )
    assert uhp_residue_sum(f)[0] == 0
    value = contour_integral(f)
    quad = integrate_real_line(lambda k: f(k).real, scale=max(1.0, abs(a) + b), tol=1e-11)
    assert value == pytest.approx(quad.value, rel=1e-9)


def _integrands(q):
    """The (odd, even) full-line integrands k^2 (k^2 + 1) / D^2 and
    k^2 / D^2, D = ((k+q)^2 + 1)((k-q)^2 + 1), built from the
    definition, for any number type."""
    def denom_sq(k):
        return (((k + q) ** 2 + 1) * ((k - q) ** 2 + 1)) ** 2

    return (
        lambda k: k * k * (k * k + 1) / denom_sq(k),
        lambda k: k * k / denom_sq(k),
    )


def test_double_pole_residue_exact():
    """Im Res at q + i of each channel is exactly -1/(4 pi) times its
    full-line integral, pi (2 + q^2) / (16 (1 + q^2)) for odd and
    pi / (16 (1 + q^2)) for even, as Fractions of the dyadic q."""
    rng = random.Random(20261020)
    qs = [5e-324, 1e-300, 19.881398211747452, 1e300, 1.7976931348623157e308]
    for q in qs + [10.0 ** rng.uniform(-4.0, 4.0) for _ in range(20)]:
        x = Fraction(q)
        odd, even = _residues(q)
        assert Fraction(odd[1], odd[2]) == -(2 + x * x) / (64 * (1 + x * x))
        assert Fraction(even[1], even[2]) == -1 / (64 * (1 + x * x))


def _as_fractions(x):
    """The exact (a, b, d) triple as the pair (a/d, b/d) of Fractions."""
    a, b, d = x
    return (Fraction(a, d), Fraction(b, d))


def test_closed_form_residues_equal_the_taylor_series_oracle():
    """Both parts of each closed-form residue at q + i equal, as
    Fractions, the general Taylor-series residue of the channel's
    rational integrand at its double pole q + i."""
    rng = random.Random(20261021)
    qs = [5e-324, 1e-300, 1.0, 19.881398211747452, 1e300]
    for q in qs + [10.0 ** rng.uniform(-4.0, 4.0) for _ in range(8)]:
        poles = [(complex(s * q, t), 2) for s in (1.0, -1.0) for t in (1.0, -1.0)]
        channels = (
            FactoredRational([0.0, 0.0, 1.0, 0.0, 1.0], poles),
            FactoredRational([0.0, 0.0, 1.0], poles),
        )
        for closed, f in zip(_residues(q), channels):
            assert _as_fractions(closed) == residue_exact(f, 0)


def test_mirror_path_sum_is_the_exact_sum_over_every_uhp_pole():
    """The residue at -q + i is exactly -conj of the one at q + i, so
    -4 pi Im(Res) is exactly 2 pi i times the sum over both UHP poles.
    D is even in q, so _residues(-q) is the residue at -q + i."""
    rng = random.Random(20261018)
    for q in [5e-324, 1e300] + [10.0 ** rng.uniform(-4.0, 4.0) for _ in range(12)]:
        for at_q, at_minus_q in zip(_residues(q), _residues(-q)):
            re, im = _as_fractions(at_q)
            assert _as_fractions(at_minus_q) == (-re, im)


def test_real_axis_integrand_has_clean_imaginary_part():
    """-4 pi Im(Res) is real by construction, even where float
    cancellation would leave ~1e-11 residue noise."""
    for value in contour_integral_uhp(0.1):
        assert math.isfinite(value) and value > 0


def test_bethe_full_line_values_at_unit_q():
    """Frozen values of the two parity channels at q = kappa0 = 1.

    odd integrand k^2 (k^2+1) / D^2 integrates to 3 pi / 32 and the
    even one k^2 / D^2 to pi / 32, with D = ((k+1)^2+1)((k-1)^2+1).
    """
    odd, even = contour_integral_uhp(1.0)
    assert odd == pytest.approx(3.0 * PI / 32.0, rel=1e-14, abs=0)
    assert even == pytest.approx(PI / 32.0, rel=1e-14, abs=0)


# float.hex of the two channels at kappa0 = 1, frozen from the
# quotient-rule residue algebra this module used before, and from the
# general Taylor-series residue engine after it; any exact residue
# method must reproduce every bit
_BETHE_HEX = [
    (0.0001, "0x1.921fb52287463p-2", "0x1.921fb500cbbafp-3"),
    (0.0123, "0x1.9217ec0d0a477p-2", "0x1.921022d5d1bd6p-3"),
    (1.0, "0x1.2d97c7f3321d2p-2", "0x1.921fb54442d18p-4"),
    (1.7, "0x1.f97f62e0aadd4p-3", "0x1.9d7eb671a02efp-5"),
    (345.6, "0x1.922091e8ad099p-3", "0x1.b948d47034475p-20"),
    (10000.0, "0x1.921fb587b9e81p-3", "0x1.0ddc5a3405e89p-29"),
    # the ends of the float range, where unreduced exact parts grow most
    (5e-324, "0x1.921fb54442d18p-2", "0x1.921fb54442d18p-3"),
    (1e-300, "0x1.921fb54442d18p-2", "0x1.921fb54442d18p-3"),
    (1e-30, "0x1.921fb54442d18p-2", "0x1.921fb54442d18p-3"),
    (1e30, "0x1.921fb54442d18p-3", "0x1.43181499011d8p-202"),
    (1e150, "0x1.921fb54442d18p-3", "0x1.0d4cab14b6bbfp-999"),
    (1e300, "0x1.921fb54442d18p-3", "0x0.0p+0"),
    # the default-tol Bethe bound miss of tests/test_engine.py
    (19.881398211747452, "0x1.93237d644202ep-3", "0x1.03c81fff31623p-11"),
    # the 41-point log grid over [1e-4, 1e4] but its three points above,
    # frozen from the Taylor-series engine
    (0.00015848931924611136, "0x1.921fb4ef87501p-2", "0x1.921fb49acbceap-3"),
    (0.000251188643150958, "0x1.921fb46f6c38dp-2", "0x1.921fb39a95a02p-3"),
    (0.00039810717055349724, "0x1.921fb32da2b06p-2", "0x1.921fb117028f4p-3"),
    (0.0006309573444801934, "0x1.921fb00557c05p-2", "0x1.921faac66caf2p-3"),
    (0.001, "0x1.921fa8170144dp-2", "0x1.921f9ae9bfb82p-3"),
    (0.0015848931924611134, "0x1.921f942b09a77p-2", "0x1.921f7311d07d5p-3"),
    (0.0025118864315095794, "0x1.921f622091344p-2", "0x1.921f0efcdf96ep-3"),
    (0.003981071705534973, "0x1.921ee46e8c9fbp-2", "0x1.921e1398d66dep-3"),
    (0.006309573444801933, "0x1.921da8b5bb010p-2", "0x1.921b9c2733309p-3"),
    (0.01, "0x1.921a8fb80c30bp-2", "0x1.92156a2bd58fdp-3"),
    (0.01584893192461114, "0x1.9212c83c966cap-2", "0x1.9205db34ea07cp-3"),
    (0.025118864315095798, "0x1.91ff408385f27p-2", "0x1.91decbc2c9136p-3"),
    (0.039810717055349734, "0x1.91ce4280325fdp-2", "0x1.917ccfbc21ee3p-3"),
    (0.0630957344480193, "0x1.91539b832b3d5p-2", "0x1.908781c213a92p-3"),
    (0.1, "0x1.902215f414dd2p-2", "0x1.8e2476a3e6e8cp-3"),
    (0.1584893192461114, "0x1.8d32796cb32c8p-2", "0x1.88453d9523878p-3"),
    (0.251188643150958, "0x1.8630ce13fd67ap-2", "0x1.7a41e6e3b7fdep-3"),
    (0.39810717055349737, "0x1.769e00fdb87c3p-2", "0x1.5b1c4cb72e26ep-3"),
    (0.630957344480193, "0x1.58df3d3eac491p-2", "0x1.1f9ec53915c09p-3"),
    (1.5848931924611143, "0x1.025052a7b7f13p-2", "0x1.ca03c02cb443ap-5"),
    (2.5118864315095824, "0x1.c9231dd1577c1p-3", "0x1.b81b4468a5541p-6"),
    (3.981071705534969, "0x1.a9fd83a4cda53p-3", "0x1.7ddce608ad3b3p-7"),
    (6.30957344480193, "0x1.9bfa2cf3621b8p-3", "0x1.3b4ef5e3e93f5p-8"),
    (10.0, "0x1.961af3e49eba4p-3", "0x1.fd9f502df45d2p-10"),
    (15.848931924611142, "0x1.93b7e8c671f9dp-3", "0x1.9833822f285f1p-11"),
    (25.11886431509582, "0x1.92c29acc63b4dp-3", "0x1.45cb1041c6b45p-12"),
    (39.81071705534969, "0x1.92609ec5bc8f9p-3", "0x1.03a605e6f8747p-13"),
    (63.0957344480193, "0x1.92398f539b9b4p-3", "0x1.9da0f58c9ba42p-15"),
    (100.0, "0x1.922a005cb0133p-3", "0x1.49630da835b55p-16"),
    (158.48931924611142, "0x1.9223ce6152728p-3", "0x1.064743e83d6f4p-17"),
    (251.18864315095826, "0x1.922156efaf353p-3", "0x1.a1ab6c63a6499p-19"),
    (398.107170553497, "0x1.92205b8ba60c1p-3", "0x1.4c8ec67536d49p-20"),
    (630.9573444801931, "0x1.921ff776b525bp-3", "0x1.08c9c950d2151p-21"),
    (1000.0, "0x1.921fcf9ec5eaep-3", "0x1.a5a83195cc3a3p-23"),
    (1584.8931924611143, "0x1.921fbfc218f3ep-3", "0x1.4fbac44c2f26dp-24"),
    (2511.8864315095825, "0x1.921fb9718313cp-3", "0x1.0b50108f3ab66p-25"),
    (3981.0717055349696, "0x1.921fb6edf002ep-3", "0x1.a9ad316760a47p-27"),
    (6309.57344480193, "0x1.921fb5edb9d46p-3", "0x1.52ee05b8657cfp-28"),
]


@pytest.mark.parametrize("q, odd_hex, even_hex", _BETHE_HEX)
def test_bethe_contour_values_are_frozen_bit_for_bit(q, odd_hex, even_hex):
    odd, even = contour_integral_uhp(q)
    assert (odd.hex(), even.hex()) == (odd_hex, even_hex)


def test_random_bethe_integrands_match_quadrature():
    """Residues against adaptive quadrature over seeded q; the two
    engines share no code past the integrand's definition."""
    rng = random.Random(20260816)
    worst = 0.0
    for _ in range(20):
        q = rng.uniform(0.1, 8.0)
        for exact, f in zip(contour_integral_uhp(q), _integrands(q)):
            quad = integrate_real_line(f, scale=max(1.0, q), tol=1e-12)
            worst = max(worst, abs(exact - quad.value) / abs(exact))
    assert worst < 1e-9


def test_bethe_contour_values_match_mpmath():
    """Each channel against a 30-digit mpmath quadrature of its
    integrand, split at -q, 0 and q, at 9 log-spaced q in [1e-4, 1e4]:
    within 4 eps relative."""
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(30):
        for j in range(9):
            q = 1e-4 * 1e8 ** (j / 8)
            points = [-mpmath.inf, -q, 0, q, mpmath.inf]
            for value, f in zip(contour_integral_uhp(q), _integrands(mpmath.mpf(q))):
                exact = mpmath.quad(f, points)
                worst = max(worst, float(abs(value - exact) / exact))
    assert worst <= 4 * 2.0**-52

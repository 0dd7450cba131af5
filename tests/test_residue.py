"""Contour integration of rational functions over the real line.

Residues are computed in exact Gaussian-rational arithmetic, so the
imaginary part of the closed contour cancels identically whenever the
integrand is real on the axis; the tests below lean on that exactness
as well as on quadrature cross-checks.
"""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumrules.core import ArcDivergenceError, InconsistencyError, InvalidSpecError
from sumrules.residue import (
    FactoredRational,
    _has_mirror_symmetry,
    _residue_at_exact,
    _uhp_residue_sum,
    build_bethe_integrand,
    contour_integral_uhp,
)
from sumrules.series import Parity

from oracles import integrate_real_line, residue_at

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


def test_double_pole_residue_exact():
    # 1/(z^2+1)^2: residue at i is -i/4, and the arithmetic is exact
    f = FactoredRational([1.0], [(1j, 2), (-1j, 2)])
    assert residue_at(f, 0) == -0.25j


def test_residue_with_numerator_below_pole_order():
    # (1 + z)/(z^2+1)^3 at i: the odd part z/(z^2+1)^3 has residue 0 there,
    # so the residue is that of 1/(z^2+1)^3, -3i/16; the numerator's
    # Taylor series at the pole stops short of the t^2 the residue needs
    f = FactoredRational([1.0, 1.0], [(1j, 3), (-1j, 3)])
    assert residue_at(f, 0) == -0.1875j
    assert contour_integral_uhp(f) == 3.0 * PI / 8.0
    # with no other pole the numerator alone holds h(z0 + t) = 1 + i + t
    assert residue_at(FactoredRational([1.0, 1.0], [(1j, 3)]), 0) == 0j


@pytest.mark.parametrize("m", range(1, 7))
def test_power_of_lorentzian_is_exact(m):
    # int (x^2+1)^-m dx = pi C(2m-2, m-1) / 4^(m-1): the residue sum is a
    # dyadic rational, so one rounding of pi times it is all that is left
    f = FactoredRational([1.0], [(1j, m), (-1j, m)])
    assert contour_integral_uhp(f) == PI * math.comb(2 * m - 2, m - 1) / 4 ** (m - 1)


def test_mixed_pole_orders_match_quadrature():
    poles = [(1j, 3), (-1j, 3), (complex(2.0, 0.5), 1), (complex(2.0, -0.5), 1)]
    f = FactoredRational([1.0, 0.5, 2.0, 0.0, -1.5], poles)
    quad = integrate_real_line(lambda k: f(k).real, scale=2.0, tol=1e-12)
    assert contour_integral_uhp(f) == pytest.approx(quad.value, rel=1e-9)


def test_residue_index_out_of_range():
    f = FactoredRational([1.0], [(1j, 1), (-1j, 1)])
    with pytest.raises(InvalidSpecError):
        residue_at(f, 2)


def test_lorentzian_contour_is_pi():
    f = FactoredRational([1.0], [(1j, 1), (-1j, 1)])
    assert contour_integral_uhp(f) == pytest.approx(PI, rel=1e-15, abs=0)


def test_contour_matches_quadrature_on_known_integrals():
    # int 1/(z^2+1)^2 = pi/2; int z^2/(z^2+1)^2 = pi/2
    f2 = FactoredRational([1.0], [(1j, 2), (-1j, 2)])
    assert contour_integral_uhp(f2) == pytest.approx(PI / 2, rel=1e-14, abs=0)
    g = FactoredRational([0.0, 0.0, 1.0], [(1j, 2), (-1j, 2)])
    assert contour_integral_uhp(g) == pytest.approx(PI / 2, rel=1e-14, abs=0)


def test_shifted_pole_pair():
    # 1/((z-a)^2+b^2) integrates to pi/b independent of the real shift a
    for a, b in [(0.7, 1.0), (-2.0, 0.5), (3.5, 2.0)]:
        f = FactoredRational(
            [1.0], [(complex(a, b), 1), (complex(a, -b), 1)]
        )
        assert contour_integral_uhp(f) == pytest.approx(PI / b, rel=1e-13, abs=0)


def test_linearity_is_exact():
    poles = [(1 + 1j, 2), (1 - 1j, 2), (-1 + 1j, 2), (-1 - 1j, 2)]
    f = FactoredRational([1.0], poles)
    g = FactoredRational([0.0, 0.0, 1.0], poles)
    combined = FactoredRational([2.0, 0.0, 3.0], poles)
    assert contour_integral_uhp(combined) == pytest.approx(
        2.0 * contour_integral_uhp(f) + 3.0 * contour_integral_uhp(g), rel=1e-15, abs=0
    )


def test_real_axis_integrand_has_clean_imaginary_part():
    """Conjugate-symmetric pole sets give an exactly real contour value,
    even where float cancellation would leave ~1e-11 residue noise."""
    q, k0 = 0.1, 1.0
    f = build_bethe_integrand(Parity.ODD, q, k0)
    value = contour_integral_uhp(f)
    assert math.isfinite(value) and value > 0


def test_complex_coefficients_trip_the_reality_check():
    f = FactoredRational([1j], [(1j, 1), (-1j, 1)])
    with pytest.raises(InconsistencyError):
        contour_integral_uhp(f)


def test_slow_decay_rejected():
    # z^2/(z^2+1) decays like a constant: no closable contour
    f = FactoredRational([0.0, 0.0, 1.0], [(1j, 1), (-1j, 1)])
    with pytest.raises(ArcDivergenceError):
        contour_integral_uhp(f)
    # z^3 over a quartic denominator decays like 1/z: also rejected
    g = FactoredRational([0.0, 0.0, 0.0, 1.0], [(1j, 2), (-1j, 2)])
    with pytest.raises(ArcDivergenceError):
        contour_integral_uhp(g)


def test_pole_validation():
    with pytest.raises(InvalidSpecError):
        FactoredRational([1.0], [(1.0 + 0j, 1)])
    with pytest.raises(InvalidSpecError):
        FactoredRational([1.0], [(1j, 0)])
    with pytest.raises(InvalidSpecError):
        FactoredRational([1.0], [(1j, 1), (1j, 1)])


def test_bethe_full_line_values_at_unit_q():
    """Frozen values of the two parity channels at q = kappa0 = 1.

    odd integrand k^2 (k^2+1) / D^2 integrates to 3 pi / 32 and the
    even one k^2 / D^2 to pi / 32, with D = ((k+1)^2+1)((k-1)^2+1).
    """
    odd = contour_integral_uhp(build_bethe_integrand(Parity.ODD, 1.0, 1.0))
    even = contour_integral_uhp(build_bethe_integrand(Parity.EVEN, 1.0, 1.0))
    assert odd == pytest.approx(3.0 * PI / 32.0, rel=1e-14, abs=0)
    assert even == pytest.approx(PI / 32.0, rel=1e-14, abs=0)


# float.hex of the two channels at kappa0 = 1, frozen from the
# quotient-rule residue algebra this module used before; any exact
# residue method must reproduce every bit
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
]


@pytest.mark.parametrize("q, odd_hex, even_hex", _BETHE_HEX)
def test_bethe_contour_values_are_frozen_bit_for_bit(q, odd_hex, even_hex):
    odd = contour_integral_uhp(build_bethe_integrand(Parity.ODD, q, 1.0))
    even = contour_integral_uhp(build_bethe_integrand(Parity.EVEN, q, 1.0))
    assert (odd.hex(), even.hex()) == (odd_hex, even_hex)


# the same at kappa0 != 1, frozen before the residues moved to ints
_BETHE_HEX_KAPPA0 = [
    (0.37, 0.5, "0x1.4afafff51fc5bp+1", "0x1.03d64aa5fcb9ep+2"),
    (0.37, 2.75, "0x1.329f42a3e31c0p-6", "0x1.417377f7d2d4ap-10"),
    (2.0, 0.5, "0x1.a9c7386664dddp+0", "0x1.7a78322220c53p-2"),
    (2.0, 2.75, "0x1.ffb808970c96cp-7", "0x1.ac1acc9fd4fd4p-11"),
    (1e150, 2.75, "0x1.355f5ddf80eb1p-7", "0x1.9e5e80fd71a59p-1004"),
    (5e-324, 2.75, "0x1.355f5ddf80eb1p-6", "0x1.474525f2c7d8ep-10"),
]


@pytest.mark.parametrize("q, kappa0, odd_hex, even_hex", _BETHE_HEX_KAPPA0)
def test_bethe_contour_values_off_unit_kappa0_are_frozen(q, kappa0, odd_hex, even_hex):
    odd = contour_integral_uhp(build_bethe_integrand(Parity.ODD, q, kappa0))
    even = contour_integral_uhp(build_bethe_integrand(Parity.EVEN, q, kappa0))
    assert (odd.hex(), even.hex()) == (odd_hex, even_hex)


def _as_fractions(x):
    """The exact (a, b, d) triple as the pair (a/d, b/d) of Fractions."""
    a, b, d = x
    return (Fraction(a, d), Fraction(b, d))


def _every_uhp_residue(f):
    total = (Fraction(0), Fraction(0))
    for index, (location, _) in enumerate(f.poles):
        if location.imag > 0:
            res = _as_fractions(_residue_at_exact(f, index))
            total = (total[0] + res[0], total[1] + res[1])
    return total


def test_mirror_path_sum_is_the_exact_sum_over_every_uhp_pole():
    """One residue per mirror pair gives exactly the Fraction that
    expanding every upper-half-plane pole gives."""
    rng = random.Random(20261018)
    for _ in range(12):
        q, k0 = 10.0 ** rng.uniform(-4.0, 4.0), rng.uniform(0.3, 3.0)
        for parity in (Parity.ODD, Parity.EVEN):
            f = build_bethe_integrand(parity, q, k0)
            assert _has_mirror_symmetry(f)
            assert _as_fractions(_uhp_residue_sum(f)) == _every_uhp_residue(f)


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
    assert not _has_mirror_symmetry(f)
    assert contour_integral_uhp(f).hex() == value_hex


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
    f = FactoredRational(numerator, poles)
    assert _has_mirror_symmetry(f)
    assert _as_fractions(_uhp_residue_sum(f)) == _every_uhp_residue(f)
    assert contour_integral_uhp(f).hex() == value_hex


def test_bethe_integrand_shape():
    f = build_bethe_integrand(Parity.ODD, 2.0, 1.0)
    assert f.total_pole_order == 8
    locations = sorted((p.real, p.imag) for p, _ in f.poles)
    assert locations == [(-2.0, -1.0), (-2.0, 1.0), (2.0, -1.0), (2.0, 1.0)]
    assert all(order == 2 for _, order in f.poles)
    with pytest.raises(InvalidSpecError):
        build_bethe_integrand(Parity.ALL, 1.0, 1.0)


def test_random_bethe_integrands_match_quadrature():
    """Residues against adaptive quadrature over a seeded (q, kappa0)
    grid; the two engines share no code past the integrand."""
    rng = random.Random(20260816)
    worst = 0.0
    for _ in range(20):
        q = rng.uniform(0.1, 8.0)
        k0 = rng.uniform(0.3, 3.0)
        parity = rng.choice([Parity.ODD, Parity.EVEN])
        f = build_bethe_integrand(parity, q, k0)
        exact = contour_integral_uhp(f)
        quad = integrate_real_line(
            lambda k: f(k).real, scale=max(1.0, q), tol=1e-12
        )
        worst = max(worst, abs(exact - quad.value) / abs(exact))
    assert worst < 1e-9


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
    value = contour_integral_uhp(f)
    quad = integrate_real_line(lambda k: f(k).real, scale=max(1.0, abs(a) + b), tol=1e-11)
    assert value == pytest.approx(quad.value, rel=1e-9)

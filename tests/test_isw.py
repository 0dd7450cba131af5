"""Box eigenstates and matrix elements against their defining integrals."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumrules import engine, isw
from sumrules.core import DomainError, InvalidSpecError, ModelKind
from oracles import integrate_interval, isw_psi

PI = math.pi


def integral_me(n, k, power):
    """<n|x^power|k> by adaptive quadrature of the wave functions."""
    r = integrate_interval(
        lambda x: isw_psi(n, x) * x**power * isw_psi(k, x),
        0.0, 1.0, tol=1e-13, abs_tol=1e-15,
    )
    return r.value


def test_psi_normalization_and_orthogonality():
    for n in (1, 2, 5):
        r = integrate_interval(lambda x: isw_psi(n, x) ** 2, 0.0, 1.0, tol=1e-12)
        assert r.value == pytest.approx(1.0, rel=1e-12)
    r = integrate_interval(
        lambda x: isw_psi(1, x) * isw_psi(3, x), 0.0, 1.0, tol=1e-9, abs_tol=1e-13
    )
    assert abs(r.value) < 1e-13


def test_psi_nodes_and_domain():
    assert isw_psi(2, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert isw_psi(1, 0.5) == pytest.approx(math.sqrt(2.0), rel=1e-15, abs=0)
    with pytest.raises(DomainError):
        isw_psi(1, -0.01)
    with pytest.raises(DomainError):
        isw_psi(1, np.array([0.2, 1.2]))


def test_x_me_frozen_values():
    assert isw.x_me(1, 1) == 0.5
    assert isw.x_me(1, 2) == pytest.approx(-16.0 / (9.0 * PI**2), rel=1e-15, abs=0)
    assert isw.x_me(1, 3) == 0.0  # selection rule: n + k even vanishes
    assert isw.x_me(2, 3) == pytest.approx(-48.0 / (25.0 * PI**2), rel=1e-15, abs=0)


def test_x2_me_frozen_values():
    assert isw.x2_me(1, 1) == pytest.approx(1.0 / 3.0 - 1.0 / (2.0 * PI**2), rel=1e-15, abs=0)
    assert isw.x2_me(1, 3) == pytest.approx(3.0 / (8.0 * PI**2), rel=1e-15, abs=0)
    assert isw.x2_me(1, 2) == pytest.approx(-16.0 / (9.0 * PI**2), rel=1e-15, abs=0)


def test_x_and_x2_coincide_on_odd_transitions():
    # for n + k odd both operators produce the same rational element
    for n, k in [(1, 2), (2, 5), (3, 4)]:
        assert isw.x_me(n, k) == isw.x2_me(n, k)


def test_symmetry_exact():
    for n in range(1, 51):
        for k in range(n, 51):
            assert isw.x_me(n, k) == isw.x_me(k, n)
            assert isw.x2_me(n, k) == isw.x2_me(k, n)


def test_matrix_elements_vs_quadrature():
    rng = random.Random(7)
    pairs = {(rng.randint(1, 10), rng.randint(1, 10)) for _ in range(10)}
    for n, k in pairs:
        assert isw.x_me(n, k) == pytest.approx(integral_me(n, k, 1), abs=1e-12)
        assert isw.x2_me(n, k) == pytest.approx(integral_me(n, k, 2), abs=1e-12)


def test_selection_rule_is_exact_zero():
    for n, k in [(1, 3), (2, 4), (3, 7)]:
        assert isw.x_me(n, k) == 0.0
        # the defining integral also vanishes
        assert abs(integral_me(n, k, 1)) < 1e-13


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 30), k=st.integers(1, 30))
def test_x2_never_vanishes_off_diagonal(n, k):
    if n != k:
        assert isw.x2_me(n, k) != 0.0


def test_stark_second_order_values_and_signs():
    assert isw.stark_shift2(1, 1.0) == pytest.approx(
        -(15.0 - PI**2) / (24.0 * PI**2), rel=1e-15, abs=0
    )
    assert isw.stark_shift2(1, 1.0) < 0
    for n in range(2, 11):
        assert isw.stark_shift2(n, 1.0) > 0  # 15 < (n pi)^2 from n = 2 up


def test_stark_series_route_matches_closed_form():
    for n in range(1, 9):
        for F in (0.5, 1.0, 3.0):
            assert engine.stark_verify(ModelKind.ISW, n, F).closed == pytest.approx(
                isw.stark_shift2(n, F), rel=1e-12, abs=0
            )


def test_stark_scales_quadratically():
    assert isw.stark_shift2(1, 2.0) == pytest.approx(
        4.0 * isw.stark_shift2(1, 1.0), rel=1e-15, abs=0
    )


# float.hex of stark_shift2(n, F) at F = 1e-3, 1e-2, ..., 1e3, 1e-150,
# 1e150, frozen before the overflow guard; the shift is even in F
_STARK_FIELDS_HEX = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e-150, 1e150)
_STARK_SHIFT_HEX = {
    1: ("-0x1.74199c6588920p-26", "-0x1.22b4022f52b21p-19", "-0x1.c6394369f1365p-13",
        "-0x1.62dcbcaac4726p-6", "-0x1.153c736569795p+1", "-0x1.b12e744e74cdap+7",
        "-0x1.526c4add4b40ap+14", "-0x1.db4c25a12b49cp-1003", "-0x1.08f1ab9d0ee41p+991"),
    2: ("0x1.bbd88cfd5b8d2p-28", "0x1.5ac12e25ef864p-21", "0x1.0ee6ec0da320fp-14",
        "0x1.a748d0d54ee37p-8", "0x1.4ab0e326a5a1bp-1", "0x1.025a317631665p+6",
        "0x1.93aced48ad2fep+12", "0x1.1b78777b69cc6p-1004", "0x1.3c075d98c3a0ap+989"),
    7: ("0x1.c4fad22b6ba20p-31", "0x1.61e3f431ec16ap-24", "0x1.147a16c70071bp-17",
        "0x1.affec396f0b19p-11", "0x1.517f08cdec0acp-4", "0x1.07ab3ee0e0686p+3",
        "0x1.9bfb923f5ea32p+9", "0x1.214dd8e24b978p-1007", "0x1.428844efc0208p+986"),
    1000: ("0x1.774ca5624f9b1p-45", "0x1.2533e134ce313p-38", "0x1.ca210fe2822cfp-32",
           "0x1.65e9d468f5b30p-25", "0x1.179eadf1fff3ep-18", "0x1.b4e7efca1fed0p-12",
           "0x1.55553355e8f13p-5", "0x1.df6254dc93bafp-1022", "0x1.0b38d7bc719e3p+972"),
}


@pytest.mark.parametrize("n", sorted(_STARK_SHIFT_HEX))
def test_stark_shift_values_are_frozen_bit_for_bit(n):
    for F, value_hex in zip(_STARK_FIELDS_HEX, _STARK_SHIFT_HEX[n]):
        assert isw.stark_shift2(n, F).hex() == value_hex
        assert isw.stark_shift2(n, -F).hex() == value_hex


@pytest.mark.parametrize(
    "n, F, value_hex",
    [
        (1, 7.184746856209052e-154, "-0x0.80a27faeb8f1dp-1022"),
        (2, 1.685840880655736e-153, "0x0.d33199bb2fe0bp-1022"),
        (7, 3.3736233407742294e-153, "0x0.6be4e3b51f28bp-1022"),
    ],
)
def test_stark_shift_keeps_its_rounding_where_subnormal(n, F, value_hex):
    # frozen before the overflow guard; a power-of-two rescaling here
    # would round twice and move the last bit
    assert isw.stark_shift2(n, F).hex() == value_hex


@pytest.mark.parametrize(
    "n, F", [(1, 6e153), (1, 1e154), (1, -5e154), (2, 1.05e154), (1000, 1e151), (1000, 6e157)]
)
def test_stark_shift_is_finite_where_only_an_intermediate_overflows(n, F):
    # F^2 (15 - (n pi)^2) overflows, the shift does not: it must be the
    # shift at F 2^-300, scaled by 2^600, to the bit
    value = isw.stark_shift2(n, F)
    assert math.isfinite(value)
    assert value == math.ldexp(isw.stark_shift2(n, math.ldexp(F, -300)), 600)


def test_stark_shift_overflows_only_with_the_true_value():
    assert isw.stark_shift2(1, 1e155) == -math.inf
    assert isw.stark_shift2(2, -1e160) == math.inf
    assert isw.stark_shift2(1000, 1e158) == math.inf


def test_invalid_quantum_numbers():
    for bad in (0, -1, 1.5, True):
        with pytest.raises(InvalidSpecError):
            isw.x_me(bad, 1)
    with pytest.raises(InvalidSpecError):
        isw.x_me(1, 0)

"""Box eigenstates and matrix elements against their defining integrals."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumrules import engine, isw
from sumrules.core import DomainError, InvalidSpecError, ModelKind
from sumrules.quadrature import integrate_interval

from oracles import isw_psi

PI = math.pi


def integral_me(n, k, power):
    """<n|x^power|k> by adaptive quadrature of the wave functions."""
    r = integrate_interval(
        lambda x: isw_psi(n, x) * x**power * isw_psi(k, x),
        0.0, 1.0, tol=1e-13, abs_tol=1e-15,
    )
    return r.value


def test_energies():
    assert isw.energy(1) == pytest.approx(PI**2 / 2, rel=1e-15, abs=0)
    assert isw.energy(3) == pytest.approx(9 * PI**2 / 2, rel=1e-15, abs=0)


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


def test_invalid_quantum_numbers():
    for bad in (0, -1, 1.5, True):
        with pytest.raises(InvalidSpecError):
            isw.energy(bad)
    with pytest.raises(InvalidSpecError):
        isw.x_me(1, 0)

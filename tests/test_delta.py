"""Attractive delta-well states and matrix elements, kappa0 = 1.

Continuum states are energy-normalized only up to the delta function,
so every cross-check here goes through overlap integrals against the
(normalizable) bound state rather than continuum-continuum inner
products.
"""

import math

import numpy as np
import pytest

from sumrules import delta
from sumrules.core import InvalidSpecError
from sumrules.series import Parity

from oracles import (
    delta_energy_continuum,
    delta_psi_bound,
    delta_psi_continuum,
    integrate_real_line,
)

PI = math.pi

K_GRID = [0.1, 0.5, 1.0, 2.0, 10.0]
Q_GRID = [0.5, 1.0, 3.0]


def overlap(k, parity, weight):
    """Full-line integral of psi_bound * weight(x) * psi_continuum."""
    r = integrate_real_line(
        lambda x: delta_psi_bound(x) * weight(x) * delta_psi_continuum(parity, k, x),
        scale=max(1.0, 4.0 / k),
        tol=1e-12,
        abs_tol=1e-13,
    )
    return r.value


def test_bound_state():
    assert delta_psi_bound(0.0) == 1.0
    assert delta_psi_bound(-2.0) == delta_psi_bound(2.0)
    norm = integrate_real_line(lambda x: delta_psi_bound(x) ** 2, tol=1e-12)
    assert norm.value == pytest.approx(1.0, rel=1e-12)


def test_bound_state_kink():
    # the delta potential forces psi'(0+) - psi'(0-) = -2 psi(0)
    h = 1e-7
    left = (delta_psi_bound(0.0) - delta_psi_bound(-h)) / h
    right = (delta_psi_bound(h) - delta_psi_bound(0.0)) / h
    assert right - left == pytest.approx(-2.0 * delta_psi_bound(0.0), rel=1e-6)


def test_continuum_energies():
    assert delta_energy_continuum(2.0) == pytest.approx(2.0, rel=1e-15, abs=0)
    assert delta.energy_gap(1.0) == pytest.approx(1.0, rel=1e-15, abs=0)
    gaps = delta.energy_gap(np.array([1.0, 3.0]))
    assert gaps == pytest.approx([1.0, 5.0])


def test_continuum_state_values():
    assert delta_psi_continuum(Parity.EVEN, 1.0, 0.0) == pytest.approx(
        -1.0 / math.sqrt(2.0 * PI), rel=1e-15, abs=0
    )
    assert delta_psi_continuum(Parity.ODD, 1.0, 0.0) == 0.0
    # odd states are plain sine waves, blind to the potential
    assert delta_psi_continuum(Parity.ODD, 2.0, 0.7) == pytest.approx(
        math.sin(1.4) / math.sqrt(PI), rel=1e-15, abs=0
    )


def test_continuum_parity():
    for k in (0.5, 2.0):
        x = np.array([0.3, 1.7])
        odd = delta_psi_continuum(Parity.ODD, k, x)
        assert delta_psi_continuum(Parity.ODD, k, -x) == pytest.approx(-odd)
        even = delta_psi_continuum(Parity.EVEN, k, x)
        assert delta_psi_continuum(Parity.EVEN, k, -x) == pytest.approx(even)


def test_even_continuum_kink():
    for k in (0.5, 1.0, 3.0):
        h = 1e-7
        left = (
            delta_psi_continuum(Parity.EVEN, k, 0.0)
            - delta_psi_continuum(Parity.EVEN, k, -h)
        ) / h
        right = (
            delta_psi_continuum(Parity.EVEN, k, h)
            - delta_psi_continuum(Parity.EVEN, k, 0.0)
        ) / h
        psi0 = delta_psi_continuum(Parity.EVEN, k, 0.0)
        assert right - left == pytest.approx(-2.0 * psi0, rel=1e-5)


def test_even_continuum_orthogonal_to_bound():
    for k in K_GRID:
        assert abs(overlap(k, Parity.EVEN, lambda x: 1.0)) < 1e-12


def test_x_me_bound_frozen_and_vs_quadrature():
    assert delta.x_me_bound(1.0) == pytest.approx(1.0 / math.sqrt(PI), rel=1e-15, abs=0)
    for k in K_GRID:
        assert delta.x_me_bound(k) == pytest.approx(
            overlap(k, Parity.ODD, lambda x: x), abs=1e-10
        )


def test_x2_me_bound_frozen_and_vs_quadrature():
    assert delta.x2_me_bound(1.0) == pytest.approx(
        2.0 / math.sqrt(2.0 * PI), rel=1e-15, abs=0
    )
    for k in K_GRID:
        assert delta.x2_me_bound(k) == pytest.approx(
            overlap(k, Parity.EVEN, lambda x: x * x), abs=1e-10
        )


def test_parity_selection_by_quadrature():
    # x flips parity: even final states see nothing from <0|x|...>
    for k in (0.5, 2.0):
        assert abs(overlap(k, Parity.EVEN, lambda x: x)) < 1e-12
        assert abs(overlap(k, Parity.ODD, lambda x: x * x)) < 1e-12


def test_bethe_me_frozen_values():
    # D = ((k+q)^2+1)((k-q)^2+1) is 5 * 1 at k = q = 1 (s = 0), and the gap is 1
    odd, even = delta.bethe_strengths(1.0, 0.0)
    assert odd == pytest.approx(16.0 / (25.0 * PI), rel=1e-15, abs=0)
    assert even == pytest.approx(8.0 / (25.0 * PI), rel=1e-15, abs=0)


def test_bethe_me_vs_quadrature():
    """Each Bethe channel is the gap times the square of a matrix
    element, the odd one the sin(qx) overlap (an i is dropped as a
    phase), the even one the cos(qx) overlap."""
    for q in Q_GRID:
        for k in (0.5, 1.0, 2.0):
            odd, even = delta.bethe_strengths(q, k - q)
            gap = delta.energy_gap(k)
            sin_me = overlap(k, Parity.ODD, lambda x: np.sin(q * x))
            cos_me = overlap(k, Parity.EVEN, lambda x: np.cos(q * x))
            assert odd == pytest.approx(gap * sin_me**2, abs=1e-10)
            assert even == pytest.approx(gap * cos_me**2, abs=1e-10)


def test_stark_shift():
    assert delta.stark_shift2_delta(1.0) == -0.625
    assert delta.stark_shift2_delta(2.0) == -2.5
    assert delta.stark_shift2_delta(-1.0) == -0.625


def test_invalid_arguments():
    # the kernels check no k or q: their callers' entry points do
    # (test_engine::test_entry_points_reject_bad_q_and_tol)
    with pytest.raises(InvalidSpecError):
        delta_psi_continuum(Parity.ALL, 1.0, 0.0)
    with pytest.raises(InvalidSpecError):
        delta_energy_continuum(math.nan)
    with pytest.raises(InvalidSpecError):
        delta_psi_continuum(Parity.ODD, -1.0, 0.4)

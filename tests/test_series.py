"""Closed forms for the lattice sums S_p, their brute-force twins, and
the removed-term limit.

Tolerances and the finite-difference recursion check follow the module
contracts: central differences of S_p with h = 1e-5 reproduce S_{p+1}
to rel. 1e-6, parity channels partition exactly, and the brute sums
land inside their own tail estimates.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumrules import series
from sumrules.core import ConvergenceError, DomainError, InvalidSpecError, PoleError
from sumrules.series import (
    Parity,
    brute_sum,
    removed_term_limit_closed,
    removed_term_sum_limit,
    sum_closed,
    weighted_k2_sum,
)

PI = math.pi
EPS = np.finfo(float).eps

# z values at least POLE_GUARD away from every integer lattice
SAFE_Z = [0.07, 0.25, 0.4, 0.61, 1.31, 2.45, 3.52, 7.63]


def test_s1_at_half_is_two():
    # sum over k of 1/(k^2 - 1/4) telescopes: 2 sum (1/(2k-1) - 1/(2k+1)) = 2
    assert sum_closed(1, 0.5) == pytest.approx(2.0, rel=1e-14, abs=0)


def test_zeta_limits():
    assert sum_closed(1, 0.0) == pytest.approx(PI**2 / 6, rel=1e-12)
    assert sum_closed(2, 0.0) == pytest.approx(PI**4 / 90, rel=1e-12)
    assert sum_closed(3, 0.0) == pytest.approx(1.0173430619844492, rel=1e-12)


def test_lattice_zeta_matches_mpmath(monkeypatch):
    """Every zeta value the small-z expansion can reach is within 4 ulp
    of mpmath, on each lattice."""
    mpmath = pytest.importorskip("mpmath")
    zeta = series._lattice_zeta
    reached = set()

    def recording_zeta(s, parity):
        reached.add(s)
        return zeta(s, parity)

    monkeypatch.setattr(series, "_lattice_zeta", recording_zeta)
    edge = math.nextafter(0.5, 0.0)  # largest |z| that takes the expansion
    for parity in (Parity.ALL, Parity.ODD):
        for p in range(1, series.MAX_P + 1):
            series._small_z_series(p, edge, parity)
    assert max(reached) > series._ZETA_BERNOULLI_MAX  # both branches run
    with mpmath.workdps(40):
        for s in range(2, max(reached) + 1, 2):
            full = mpmath.zeta(s)
            even = full / mpmath.mpf(2) ** s
            for parity, exact in ((Parity.ALL, full), (Parity.EVEN, even),
                                  (Parity.ODD, full - even)):
                err = abs(mpmath.mpf(zeta(s, parity)) - exact)
                assert err <= 4 * math.ulp(float(exact)), (s, parity)


def test_small_z_matches_cotangent_branch():
    """The zeta expansion and the cotangent formula agree across the
    switchover radius."""
    for z in (0.45, 0.49, 0.51, 0.55):
        for p in (1, 2, 3):
            brute = brute_sum(p, z, tol=1e-13)
            assert sum_closed(p, z) == pytest.approx(brute.value, rel=1e-11)


@pytest.mark.parametrize("z", SAFE_Z)
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_closed_vs_brute_all_lattice(p, z):
    # 1/k^2 decay cannot reach 1e-12 within the term cap; p = 1 gets
    # the default design tolerance instead
    tol = 1e-9 if p == 1 else 1e-12
    trace = brute_sum(p, z, tol=tol)
    assert trace.converged
    closed = sum_closed(p, z)
    assert abs(closed - trace.value) <= max(trace.bound, tol * abs(closed))


@pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
@pytest.mark.parametrize("z", [0.3, 0.7, 1.4, 2.6])
def test_closed_vs_brute_sublattices(parity, z):
    trace = brute_sum(3, z, parity=parity, tol=1e-12)
    closed = sum_closed(3, z, parity)
    assert closed == pytest.approx(trace.value, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(1, 5),
    z=st.floats(0.0, 4.0).filter(
        lambda z: min(abs(z - k) for k in range(0, 6)) > 2e-2
    ),
)
def test_parity_partition(p, z):
    """Even and odd channels add up to the full lattice sum."""
    total = sum_closed(p, z)
    even = sum_closed(p, z, Parity.EVEN)
    odd = sum_closed(p, z, Parity.ODD)
    assert even + odd == pytest.approx(total, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("parity", [Parity.ALL, Parity.EVEN, Parity.ODD])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("z", [0.1, 0.3, 0.7, 1.5])
def test_finite_difference_recursion(p, parity, z):
    """S_{p+1} = (1/(2pz)) dS_p/dz, checked with central differences."""
    h = 1e-5
    derivative = (
        sum_closed(p, z + h, parity) - sum_closed(p, z - h, parity)
    ) / (2 * h)
    lifted = derivative / (2 * p * z)
    assert lifted == pytest.approx(sum_closed(p + 1, z, parity), rel=1e-6)


@pytest.mark.parametrize(
    "n", [1, 2, 3, 5, 9, 1000, 1001, 10_000, 10_001, 99_999, 100_000]
)
def test_weighted_k2_closed_forms(n):
    # large n stays exact to roundoff only if cot/tan see the argument
    # reduced before the multiply by pi; abs=0 because the sums fall
    # like n^-2 to n^-4, below approx's default absolute slack
    n2 = float(n * n)
    assert weighted_k2_sum(3, n) == pytest.approx(
        PI**2 / (64 * n2), rel=1e-14, abs=0
    )
    assert weighted_k2_sum(4, n) == pytest.approx(
        PI**4 / (768 * n2) - PI**2 / (128 * n2 * n2), rel=1e-14, abs=0
    )
    assert weighted_k2_sum(5, n) == pytest.approx(
        PI**2 * (15 - n2 * PI**2) / (3072 * n2**3), rel=1e-14, abs=0
    )


@pytest.mark.parametrize("n", [1, 3, 5])
def test_weighted_k2_even_sublattice_brute(n):
    """For odd n the opposite-parity lattice is even k; the p = 4 sum
    has the stated closed value."""
    trace = brute_sum(4, n, parity=Parity.EVEN, weight_k2=True, tol=1e-12)
    expected = PI**4 / (768 * n * n) - PI**2 / (128 * n**4)
    assert trace.value == pytest.approx(expected, rel=1e-10, abs=0)
    assert weighted_k2_sum(4, n) == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("p", [3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_weighted_k2_vs_brute(p, n):
    parity = Parity.EVEN if n % 2 else Parity.ODD
    trace = brute_sum(p, n, parity=parity, weight_k2=True, tol=1e-12)
    closed = weighted_k2_sum(p, n)
    assert abs(closed - trace.value) <= max(trace.bound, 1e-12 * abs(closed))


@pytest.mark.parametrize("n", range(1, 11))
def test_removed_term_limit_routes_agree(n):
    """Richardson extrapolation reproduces the closed removable limit."""
    closed = removed_term_limit_closed(n)
    extrapolated = removed_term_sum_limit(n)
    expected = (PI**2 / (16 * n * n)) * (1.0 / 3.0 - 1.0 / (2 * n * n * PI**2))
    assert closed == pytest.approx(expected, rel=1e-13, abs=0)
    assert extrapolated == pytest.approx(expected, rel=1e-11, abs=0)


def test_removed_term_brute_excluded_lattice():
    """Direct sum over k != n matches the closed limit."""
    for n in (1, 2, 3):
        trace = brute_sum(
            3, n, parity=Parity.ALL, weight_k2=True, exclude=n, tol=1e-12
        )
        closed = removed_term_limit_closed(n)
        assert abs(closed - trace.value) <= max(
            trace.bound, 1e-11 * abs(closed)
        )


def test_removed_term_extrapolation_failure_surfaces(monkeypatch):
    monkeypatch.setattr(series, "_RICHARDSON_LEVELS", 2)
    with pytest.raises(ConvergenceError, match="did not settle in 2 levels"):
        removed_term_sum_limit(1)


def test_brute_tail_estimate_is_conservative():
    for p, z in [(2, 0.3), (3, 1.5), (4, 2.45)]:
        exact = sum_closed(p, z)
        for cap in (200, 2000):
            trace = brute_sum(p, z, max_terms=cap)
            # the 1e-14 floor absorbs float accumulation over the terms
            assert abs(trace.value - exact) <= trace.bound + 1e-14 * abs(exact)


@pytest.mark.parametrize("z", [1.3, 4.7, 9.2])
@pytest.mark.parametrize("p,weight", [(2, False), (3, False), (2, True), (3, True)])
@pytest.mark.parametrize("cap", [100, 400])
def test_tail_estimate_honest_when_cut_early(p, weight, z, cap):
    # an early cutoff leaves a large z^2/X^2 at the edge, so the tail
    # correction must carry the full expansion, not just its lead term
    trace = brute_sum(p, z, weight_k2=weight, tol=1e-30, max_terms=cap)
    assert not trace.converged
    if weight:
        # k^2/(k^2-z^2)^p = 1/(k^2-z^2)^(p-1) + z^2/(k^2-z^2)^p
        closed = sum_closed(p - 1, z) + z * z * sum_closed(p, z)
    else:
        closed = sum_closed(p, z)
    assert math.isfinite(trace.bound)
    # the closed form carries its own few-ulp noise, hence the floor
    assert abs(trace.value - closed) <= trace.bound + 1e-14 * abs(closed)


def test_tail_estimate_infinite_when_pole_past_cutoff():
    trace = brute_sum(2, 50.3, max_terms=10)
    assert not trace.converged
    assert trace.terms_used == 10
    assert math.isinf(trace.bound)


@pytest.mark.parametrize("p, z, parity, cap", [
    (3, 2, Parity.ODD, 1),  # trk at n = 2: the lower term k = 1 of pair j = 1
    (4, 2, Parity.ODD, 1),  # closure at n = 2
    (5, 2, Parity.ODD, 1),  # stark at n = 2
    (3, 5, Parity.EVEN, 2),  # the pair k = 4, 6
])
def test_tail_estimate_infinite_when_cap_puts_cutoff_on_pole(p, z, parity, cap):
    # a cap that ends the scan before 2|z| + 4h leaves the tail with no
    # bound: an unconverged trace with an infinite estimate, no crash
    trace = brute_sum(p, z, parity, weight_k2=True, max_terms=cap)
    assert not trace.converged
    assert trace.terms_used == cap
    assert math.isinf(trace.bound)
    # whole pairs k = z -+ j first, then at an odd cap the lower term of
    # the next; the value is their bare sum
    summed = (z - 1, z + 1)[:cap]
    assert trace.value == pytest.approx(
        math.fsum(k * k / (k * k - z * z) ** p for k in summed), rel=4e-16, abs=0
    )


def test_brute_respects_max_terms():
    # the cutoff of S_1(1/2) lies near k = 630, so the cap binds, and the
    # tail past k = 137 is still bounded
    trace = brute_sum(1, 0.5, max_terms=137)
    assert trace.terms_used == 137
    assert abs(trace.value - 2.0) <= trace.bound
    assert brute_sum(1, 0.5).terms_used > 137


def test_checkpoint_terms_aligns_with_partial_sums():
    # z = 70 000.5 puts the first point past 2|z| + 4 at k = 140 006, a
    # plain scan of three blocks; a cap of 100 ends it before that
    z = 70_000.5
    k = np.arange(1, 140_100, dtype=float)
    values = 1.0 / (k * k - z * z)
    for cap in (100, None):
        trace = brute_sum(1, z, max_terms=cap)
        used = trace.terms_used
        terms = trace.checkpoint_terms
        assert len(terms) == len(trace.partial_sums)
        assert terms[-1] == used == (cap or 140_006)
        # powers of two up to 65 536, then multiples of 65 536, then the end
        grid = [2**i for i in range(17)] + list(range(2 * 65536, used, 65536))
        assert list(terms) == [t for t in grid if t < used] + [used]
        for t, partial in zip(terms, trace.partial_sums):
            exact = math.fsum(values[:t])
            assert abs(partial - exact) <= 64 * EPS * float(np.sum(np.abs(values[:t])))


def test_checkpoints_count_a_pair_as_two_terms():
    """trk at n = 1000 sums 500 mirror pairs k = 1000 -+ j, j odd, before
    its plain scan from k = 2001."""
    closed, kwargs = _box_lattice_sum("trk", 1000)
    trace = brute_sum(**kwargs)
    assert trace.checkpoint_terms[:9] == tuple(2 ** i for i in range(1, 10))
    # exact: the two terms cancel to 1e-3 of each, which a float sum of
    # them would leave in the fourth-to-last digit
    pair = float(sum(Fraction(k * k, (k * k - 10**6) ** 3) for k in (999, 1001)))
    assert trace.partial_sums[0] == pytest.approx(pair, rel=4e-16, abs=0)
    # summand 512 is the 12th plain term after the 500 pairs
    assert trace.checkpoint_terms[9] == 2 * 500 + 12


def _box_lattice_sum(rule, n):
    """(closed value, brute_sum kwargs) of the raw lattice sum behind a box rule."""
    if rule == "monopole":
        return removed_term_limit_closed(n), dict(
            p=3, z=float(n), parity=Parity.ALL, weight_k2=True, exclude=n)
    p = {"closure": 4, "trk": 3, "stark": 5}[rule]
    return weighted_k2_sum(p, n), dict(
        p=p, z=float(n), parity=series.opposite_parity(n), weight_k2=True)


BOX_RULES = ("closure", "trk", "monopole", "stark")


@pytest.mark.parametrize("rule", BOX_RULES)
def test_box_sums_converge_within_16384_terms(rule):
    """Up to n = 1000 a default-tol box sum takes the terms below 2n, as
    mirror pairs, and a short plain scan past them."""
    for n in (1, 2, 10, 100, 1000):
        _, kwargs = _box_lattice_sum(rule, n)
        trace = brute_sum(**kwargs)
        assert trace.converged
        assert trace.terms_used <= 16384


@pytest.mark.parametrize("rule", BOX_RULES)
def test_box_sums_stay_inside_tail_estimate(rule):
    for n in sorted({round(10 ** (j / 6)) for j in range(25)}):  # 1 ... 1e4
        closed, kwargs = _box_lattice_sum(rule, n)
        trace = brute_sum(**kwargs)
        assert abs(trace.value - closed) <= trace.bound + 4 * math.ulp(closed)


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
@pytest.mark.parametrize("rule", ["trk", "monopole", "stark"])
def test_large_n_box_sums_converge_within_bound(rule, tol):
    """At n = 1e5 the odd-p terms change sign at the pole; summed as mirror
    pairs they do not cancel, so the roundoff allowance stays a few eps
    of the value and the sum converges, within its bound."""
    n = 100_000
    closed, kwargs = _box_lattice_sum(rule, n)
    trace = brute_sum(**kwargs, tol=tol)
    assert trace.converged
    assert trace.bound <= tol * abs(trace.value)
    assert abs(trace.value - closed) <= trace.bound + 4 * math.ulp(closed)


def test_pole_guard():
    with pytest.raises(PoleError):
        sum_closed(2, 3.000000001)
    with pytest.raises(PoleError):
        sum_closed(2, 2.0, Parity.EVEN)
    # odd lattice has no pole at even integers
    assert math.isfinite(sum_closed(2, 2.0, Parity.ODD))


def test_brute_lattice_pole_rejected():
    with pytest.raises(DomainError):
        brute_sum(2, 3.0)
    # excluding the offending k makes the sum well defined again
    trace = brute_sum(2, 3, exclude=3, max_terms=10_000)
    assert math.isfinite(trace.value)
    # only the pole can be struck out
    with pytest.raises(InvalidSpecError):
        brute_sum(2, 3, Parity.EVEN, exclude=2)
    with pytest.raises(InvalidSpecError):
        brute_sum(2, 2.5, exclude=2)


def test_invalid_queries():
    with pytest.raises(InvalidSpecError):
        sum_closed(0, 0.5)
    with pytest.raises(InvalidSpecError):
        sum_closed(99, 0.5)
    with pytest.raises(InvalidSpecError):
        sum_closed(2, math.inf)
    with pytest.raises(InvalidSpecError):
        weighted_k2_sum(3, 0)

"""Acceptance battery: ten release criteria, one test each.

Every test prints `criterion NN [label]: PASS` or `: FAIL` so a plain
`pytest -v tests/test_acceptance.py` reads as a checklist.  Tolerances
are pinned here on purpose; loosening one is a release decision, not a
test fix.
"""

import json
import math
import time
from contextlib import contextmanager

from sumrules import cli, delta, engine, isw, series
from sumrules.core import ModelKind
from sumrules.engine import SumRuleSpec
from sumrules.series import Parity

PI = math.pi


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} [{label}]: FAIL")
        raise
    print(f"criterion {num:2d} [{label}]: PASS")


def rel(value: float, target: float) -> float:
    return abs(value - target) / abs(target)


def test_criterion_01_isw_closure():
    with criterion(1, "isw closure"):
        for n in range(1, 21):
            target = 1.0 / 3.0 - 1.0 / (2.0 * n * n * PI * PI)
            check = engine.verify(SumRuleSpec("closure", n=n), ModelKind.ISW,
                                  max_terms=10_000)
            assert check.trace.terms_used <= 10_000
            assert rel(check.brute, target) <= 1e-9
            assert rel(check.closed, target) <= 1e-12


def test_criterion_02_isw_trk():
    # the lattice sum enters through f_nk = 2(E_k-E_n)|x_nk|^2, so the
    # energy-weighted rule carries half the f-sum prefactor:
    # (32 n^2/pi^2) W(3,n) = 1/2
    with criterion(2, "isw trk"):
        for n in range(1, 21):
            closed = (32.0 * n * n / PI**2) * series.weighted_k2_sum(3, n)
            assert rel(closed, 0.5) <= 1e-12
            check = engine.verify(SumRuleSpec("trk", n=n), ModelKind.ISW)
            prefactor = 32.0 * n * n / PI**2
            slack = 1e-13 * 0.5  # analytic side is itself a float chain
            assert abs(check.brute - 0.5) <= (
                prefactor * check.trace.tail_estimate + slack
            )


def test_criterion_03_isw_monopole():
    with criterion(3, "isw monopole"):
        for n in range(1, 11):
            target = 2.0 * (1.0 / 3.0 - 1.0 / (2.0 * n * n * PI * PI))
            prefactor = 32.0 * n * n / PI**2
            from_closed = prefactor * series.removed_term_limit_closed(n)
            from_extrapolation = prefactor * series.removed_term_sum_limit(n)
            assert rel(from_closed, target) <= 1e-10
            assert rel(from_extrapolation, target) <= 1e-10


def test_criterion_04_isw_stark():
    with criterion(4, "isw stark"):
        for n in range(1, 11):
            target = -(15.0 - n * n * PI * PI) / (24.0 * PI**2 * n**4)
            shift = isw.stark_shift2(n, 1.0)
            assert rel(shift, target) <= 1e-12
            assert rel(engine.stark_verify(ModelKind.ISW, n, 1.0).closed, target) <= 1e-10
            if n == 1:
                assert shift < 0.0
            else:
                assert shift > 0.0


def test_criterion_05_series_identities():
    with criterion(5, "series identities"):
        assert rel(series.sum_closed(1, 0.5), 2.0) <= 1e-12
        assert rel(series.sum_closed(1, 0.0), PI**2 / 6.0) <= 1e-12
        assert rel(series.sum_closed(2, 0.0), PI**4 / 90.0) <= 1e-12
        for n in (1, 3, 5):
            closed = PI**4 / (768.0 * n * n) - PI**2 / (128.0 * n**4)
            trace = series.brute_sum(4, n, Parity.EVEN, weight_k2=True)
            assert rel(trace.value, closed) <= 1e-10
        for p in (1, 2, 3, 4):
            for z in (0.31, 0.77, 1.52, 4.4):
                total = series.sum_closed(p, z, Parity.EVEN) \
                    + series.sum_closed(p, z, Parity.ODD)
                assert rel(total, series.sum_closed(p, z)) <= 1e-12
        h = 1e-5
        for p in (1, 2, 3):
            for z in (0.1, 0.3, 0.7, 1.5):
                derivative = (series.sum_closed(p, z + h)
                              - series.sum_closed(p, z - h)) / (2.0 * h)
                stepped = derivative / (2.0 * p * z)
                assert rel(stepped, series.sum_closed(p + 1, z)) <= 1e-6


def test_criterion_06_delta_rules():
    with criterion(6, "delta closure/trk/monopole"):
        for rule, target in (("closure", 0.5), ("trk", 0.5), ("monopole", 1.0)):
            check = engine.verify(SumRuleSpec(rule), ModelKind.DELTA)
            assert rel(check.brute, target) <= 1e-9
            assert rel(check.closed, target) <= 1e-12


def test_criterion_07_delta_stark():
    with criterion(7, "delta stark"):
        report = engine.stark_verify(ModelKind.DELTA, F=1.0)
        assert rel(report.closed, -0.625) <= 1e-10
        assert rel(report.brute, -0.625) <= 1e-10
        report = engine.stark_verify(ModelKind.DELTA, F=0.5)
        assert rel(report.closed, -0.625 * 0.25) <= 1e-10
        assert rel(report.brute, -0.625 * 0.25) <= 1e-10


def test_criterion_08_bethe():
    with criterion(8, "bethe sum rule"):
        for q in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            b_odd, b_even = engine.bethe_components(q)
            total = 0.5 * q * q
            odd = total * (1.0 + 0.5 * q * q) / (1.0 + q * q)
            even = total * (0.5 * q * q) / (1.0 + q * q)
            assert rel(b_odd.closed + b_even.closed, b_odd.brute + b_even.brute) <= 1e-9
            assert rel(b_odd.closed, odd) <= 1e-9
            assert rel(b_even.closed, even) <= 1e-9
            assert rel(b_odd.brute, odd) <= 1e-9
            assert rel(b_even.brute, even) <= 1e-9
            assert rel(b_odd.closed + b_even.closed, total) <= 1e-9


def test_criterion_09_oscillator_strengths():
    # the f-sum: sum_k f_nk, with f_nk = 2 (E_k - E_n) |x_nk|^2, is
    # twice the trk sum
    with criterion(9, "f-sum from the trk rows"):
        for spec, model in ((SumRuleSpec("trk", n=1), ModelKind.ISW),
                            (SumRuleSpec("trk"), ModelKind.DELTA)):
            check = engine.verify(spec, model)
            assert abs(2.0 * check.closed - 1.0) <= 1e-9
            assert abs(2.0 * check.brute - 1.0) <= 1e-9


def test_criterion_10_cli(capsys):
    with criterion(10, "cli round-trip"):
        started = time.monotonic()
        assert cli.main(["verify", "--model", "isw"]) == 0
        assert cli.main(["verify", "--model", "delta"]) == 0
        capsys.readouterr()

        assert cli.main(["verify", "--model", "isw", "--rule", "monopole",
                         "--n", "3", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        again = engine.verify(SumRuleSpec("monopole", n=3), ModelKind.ISW)
        assert rows[0]["analytic"] == again.analytic
        assert rows[0]["numeric_closed"] == again.closed
        assert rows[0]["numeric_brute"] == again.brute
        assert rows[0]["rel_err_brute"] == again.rel_err_brute

        assert cli.main(["verify", "--model", "isw", "--rule", "closure",
                         "--n", "1", "--tol", "1e-30", "--kmax", "10"]) == 1
        capsys.readouterr()
        assert time.monotonic() - started < 60.0

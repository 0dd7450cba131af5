"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gate  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def take(workload: str, seed: int, count: int = 96) -> list:
    return list(itertools.islice(workloads.requests(workload, seed), count))


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_bench(workload: str, trace: int, seconds: str = "1", cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert take(workload, 5) == take(workload, 5)
    assert take(workload, 5) != take(workload, 6)


def test_workload_mix_and_ranges():
    small = take("box-small-n", 3, count=16 * 16)
    assert sum(r.argv[0] == "verify" for r in small) == 12 * 16
    ns = [p["n"] for r in small for _, p in r.expect]
    assert min(ns) >= 1 and max(ns) <= 1000

    # the golden-ratio walk puts 1/16 of the draws in the top 1/16 of the
    # log range to within a few, whatever the seed (independent draws
    # would scatter by about 8)
    for seed in range(5):
        qs = [p["q"] for r in take("delta-bethe", seed, count=1024)
              for rule, p in r.expect if rule == "bethe"]
        top = sum(q > 10 ** (4 - 8 / 16) for q in qs)
        assert abs(top - len(qs) / 16) <= 3

    delta = take("delta-bethe", 3, count=16 * 20)
    stark_F = [r.expect[0][1]["F"] for r in delta if r.argv[0] == "stark"]
    assert len(stark_F) == 80
    assert sum(F >= 1e150 for F in stark_F) == 4
    qs = [p["q"] for r in delta for rule, p in r.expect if rule == "bethe"]
    assert min(qs) >= 1e-4 and max(qs) <= 1e4


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_panel_is_fixed_and_spans_the_load_ranges(workload):
    panel = workloads.panel(workload)
    assert panel == workloads.panel(workload)
    params = [p for r in panel for _, p in r.expect]
    load = [p for r in take(workload, 1, count=256) for _, p in r.expect]
    for key in ("n", "q", "F"):
        drawn = [p[key] for p in load if key in p]
        grid = [p[key] for p in params if key in p]
        if drawn:
            # the panel reaches both ends of the range the load draws from
            assert min(grid) <= min(drawn) and max(grid) >= max(drawn)


def test_box_panel_holds_the_large_n_rows():
    ns = [p["n"] for r in workloads.panel("box-small-n") for _, p in r.expect]
    # 23 verify --rule all (3 rows) and 7 stark above the small-n range
    assert max(ns) == 100_000 and sum(n > 1000 for n in ns) == 23 * 3 + 7


def test_panel_holds_the_extreme_F_rows():
    fs = [p["F"] for r in workloads.panel("delta-bethe") for _, p in r.expect if "F" in p]
    assert max(fs) == 1e300 and sum(F >= 1e150 for F in fs) == 4


def _row(**overrides) -> dict:
    row = {
        "rule": "trk", "model": "isw", "params": {"n": 3},
        "analytic": 0.5, "numeric_closed": 0.5, "numeric_brute": 0.5 + 1e-12,
        "rel_err_closed": 0.0, "rel_err_brute": abs(0.5 - (0.5 + 1e-12)) / 0.5,
        "passed": True, "trace": {"terms_used": 65536, "tail_estimate": 1e-14},
    }
    row.update(overrides)
    return row


def test_gate_accepts_an_honest_report():
    request = workloads.Request(("verify", "--model", "isw", "--rule", "trk", "--n", "3"),
                                (("trk", {"n": 3}),))
    gate.check(request, 0, [_row()])
    failing = _row(numeric_closed=0.6, rel_err_closed=0.1 / 0.5, passed=False)
    gate.check(request, 1, [failing])


@pytest.mark.parametrize("overrides, exit_code", [
    ({"passed": False}, 0),          # verdict contradicts the errors
    ({}, 1),                         # exit code says a row failed
    ({"analytic": 0.5000001}, 0),    # analytic value is not the rule's
    ({"params": {"n": 4}}, 0),       # row for another input
    ({"rel_err_brute": 0.0}, 0),     # error arithmetic is off
])
def test_gate_rejects_a_dishonest_report(overrides, exit_code):
    request = workloads.Request(("verify", "--model", "isw", "--rule", "trk", "--n", "3"),
                                (("trk", {"n": 3}),))
    with pytest.raises(gate.GateError):
        gate.check(request, exit_code, [_row(**overrides)])


def test_gate_rejects_a_wrong_row_count():
    request = workloads.Request(("verify", "--model", "isw", "--rule", "trk", "--n", "3"),
                                (("trk", {"n": 3}),))
    with pytest.raises(gate.GateError):
        gate.check(request, 0, [_row(), _row()])


def test_bound_ratio_scales_the_reported_bound():
    # trk brute = 32 n^2/pi^2 * lattice sum, so the raw bound scales alike
    scale = 32.0 * 9 / math.pi**2
    row = _row(numeric_brute=0.5 + 2e-14 * scale, trace={"tail_estimate": 1e-14})
    assert gate.bound_ratio(row) > 1.0
    row = _row(numeric_brute=0.5 + 0.5e-14 * scale, trace={"tail_estimate": 1e-14})
    assert gate.bound_ratio(row) < 1.0
    assert gate.bound_ratio(_row(analytic=-math.inf)) is None


def test_digits_skip_overflowed_rows():
    assert gate.digits(_row(rel_err_closed=1e-12, rel_err_brute=1e-10)) == pytest.approx(10.0)
    assert gate.digits(_row(rel_err_closed=0.0, rel_err_brute=0.0)) == pytest.approx(17.0)
    # delta stark at F = 1.2e154: F^2 is finite, the closed route is not
    overflowed = _row(analytic=-9e307, numeric_closed=-math.inf, rel_err_closed=math.inf)
    assert gate.digits(overflowed) is None
    assert gate.digits(_row(analytic=-math.inf)) is None
    # finite values whose difference overflows
    assert gate.digits(_row(analytic=-9e307, numeric_closed=9e307,
                            rel_err_closed=math.inf)) is None
    assert gate.digits(_row(numeric_closed=math.nan, rel_err_closed=math.nan)) == 0.0


def test_parse_report_reads_nonfinite_floats():
    rows = gate.parse_report('[{"a": -inf, "b": nan, "c": inf, "name": "info"}]')
    assert rows[0]["a"] == -math.inf and math.isnan(rows[0]["b"])
    assert rows[0]["c"] == math.inf and rows[0]["name"] == "info"


def test_speed_factor_cancels_a_slow_stretch():
    assert speed.factor([speed.REF_S] * 3) == pytest.approx(1.0)
    # the reference ran 20% slow, so the run's times are scaled down by as much
    assert speed.factor([1.2 * speed.REF_S, 1.2 * speed.REF_S, 5.0]) == pytest.approx(1 / 1.2)
    # the reference must not run the program, or a faster program would
    # also speed up the reference and cancel its own gain
    probe = "import speed, sys; speed.reference(); print('sumrules' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], cwd=BENCH,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_predictions_cover_every_span():
    with open(os.path.join(BENCH, "predictions.json"), encoding="utf-8") as handle:
        called_on = json.load(handle)["called_on"]
    assert set(called_on) == set(tracing.SPAN_NAMES)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_run_passes_gate_and_coverage(workload):
    proc = run_bench(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    names = {m["name"] for m in benchmark_spec()["per_layer"]}
    assert set(result["metrics"]) == names


def test_untraced_smoke_run_reports_every_end_to_end_metric():
    proc = run_bench("delta-bethe", trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    spec = {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # the panel's extreme-F rows fail and are counted, not filtered
    assert result["metrics"]["pass_ratio"]["value"] < 1.0
    assert result["metrics"]["bound_held_ratio"]["value"] == 1.0


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("box-small-n", trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

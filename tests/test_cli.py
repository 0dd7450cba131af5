"""Command-line front end: exit codes, formats, round-trips.

Most cases call main() in-process for speed; one subprocess run checks
the installed entry point end to end.
"""

import csv
import io
import json
import math
import pathlib
import subprocess
import sys

import pytest

from sumrules import cli, engine, series
from sumrules.cli import main
from sumrules.core import ModelKind
from sumrules.engine import SumRuleSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- exit codes


def test_verify_isw_all_rules_passes(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--model", "isw", "--rule", "all", "--n", "1..3"
    )
    assert code == 0
    assert err == ""
    assert "0 failed" in out
    assert "FAIL" not in out


def test_verify_delta_all_rules_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--model", "delta", "--q", "0.5,1,2"
    )
    assert code == 0
    # the per-parity Bethe breakdown rides along in text mode
    assert "B_odd" in out and "B_even" in out and "q^2/2" in out


def test_bethe_detail_reuses_row_components(capsys, monkeypatch):
    """The text breakdown shows the components the Bethe row was built
    from, evaluated once per q."""
    calls = []
    real = engine.bethe_components

    def counting(q, *args, **kwargs):
        calls.append(q)
        return real(q, *args, **kwargs)

    monkeypatch.setattr(engine, "bethe_components", counting)
    code, out, _ = run_cli(
        capsys, "verify", "--model", "delta", "--rule", "bethe", "--q", "0.5,2"
    )
    assert code == 0
    assert calls == [0.5, 2.0]
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if "B_odd" in line) + 2
    for line, q in zip(lines[start:start + 2], (0.5, 2.0)):
        spec = SumRuleSpec("bethe", q=q)
        odd, even = engine.verify(spec, ModelKind.DELTA).components
        expected = [odd.closed, even.closed, odd.closed + even.closed]
        assert line.split()[1:4] == [format(v, ".15e") for v in expected]


def test_forced_failure_exits_1(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--model", "isw", "--rule", "closure",
        "--n", "1", "--tol", "1e-30", "--kmax", "10",
    )
    assert code == 1
    assert "FAIL" in out


def test_bethe_on_isw_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--model", "isw", "--rule", "bethe", "--n", "1"
    )
    assert code == 2
    assert "bethe" in err


def test_descending_range_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--model", "isw", "--rule", "trk", "--n", "5..3"
    )
    assert code == 2
    assert "error:" in err


def test_unparseable_grid_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--model", "isw", "--rule", "trk", "--n", "one,two"
    )
    assert code == 2
    assert "cannot parse" in err


def test_bad_tol_is_usage_error(capsys):
    code, _, _ = run_cli(
        capsys, "verify", "--model", "isw", "--rule", "trk",
        "--n", "1", "--tol=-1e-9",
    )
    assert code == 2


@pytest.mark.parametrize("argv, code, err_start", [
    ("stark --model delta --F -1e-3", 0, ""),
    ("series --p 2 --z -1e-3", 0, ""),
    ("verify --model delta --q -1e-3", 2, "error: q must be finite and > 0"),
    ("verify --model delta --q -1e-3,2", 2, "error: q must be finite and > 0"),
    ("verify --model delta --tol -1e-3", 2, "error: --tol must be positive"),
    ("stark --model delta --F -inf", 2, "error: field strength must be finite, got -inf"),
    ("stark --model delta --F -nan", 2, "error: field strength must be finite, got nan"),
    ("stark --model delta --F -Infinity", 2, "error: field strength must be finite, got -inf"),
    ("verify --model delta --q -inf", 2, "error: grid '-inf' contains non-finite values"),
    ("verify --model delta --q -NaN,2", 2, "error: grid '-NaN,2' contains non-finite values"),
    ("verify --model delta --tol -inf", 2, "error: --tol must be positive"),
])
def test_negative_exponent_value_reaches_its_check(capsys, argv, code, err_start):
    """A value such as -1e-3 or -inf after a flag is that flag's value,
    not an unknown flag, so it meets the check its flag has."""
    got, out, err = run_cli(capsys, *argv.split())
    assert (got, err[:len(err_start)]) == (code, err_start)
    if code == 0:
        assert err == ""
        assert "1 checks, 0 failed" in out


def test_unknown_choice_exits_2_via_argparse(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--model", "box"])
    assert excinfo.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, flag", [
    ("verify --model isw --q 1,2", "--q"),
    ("verify --model isw --q x,y", "--q"),
    ("verify --model delta --rule trk --q 1", "--q"),
    ("verify --model delta --n 3", "--n"),
    ("verify --model delta --rule bethe --q 1 --kmax 5", "--kmax"),
    ("stark --model delta --n bad", "--n"),
    ("stark --model delta --kmax 5", "--kmax"),
    ("series --removed-term --n 2,3 --p 7", "--p"),
    ("series --removed-term --n 2 --z 1.5", "--z"),
    ("series --removed-term --n 2 --parity odd", "--parity"),
    ("series --removed-term --n 2 --weighted", "--weighted"),
    ("series --p 3 --n 2 --weighted --z 1.5", "--z"),
    ("series --p 3 --n 2 --weighted --parity all", "--parity"),
    ("series --p 3 --z 1.4 --n 2", "--n"),
])
def test_unread_flag_is_usage_error(capsys, argv, flag):
    """A flag the request would drop is refused, not silently ignored."""
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.rstrip().endswith(f"does not read {flag}")


def test_n_zero_is_domain_error(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--model", "isw", "--rule", "trk", "--n", "0"
    )
    assert code == 2
    assert "error:" in err


# ------------------------------------------------------------ JSON round-trip


def test_json_verify_round_trips_bit_exact(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--model", "isw", "--rule", "trk",
        "--n", "2", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    row = rows[0]
    report = engine.verify(SumRuleSpec("trk", n=2), ModelKind.ISW)
    # 17 significant digits: parsing the output must reproduce every
    # float exactly, not approximately
    assert row["analytic"] == report.analytic
    assert row["numeric_closed"] == report.closed
    assert row["numeric_brute"] == report.brute
    assert row["rel_err_closed"] == report.rel_err_closed
    assert row["rel_err_brute"] == report.rel_err_brute
    assert row["passed"] is True
    assert row["params"] == {"n": 2}
    assert row["trace"]["terms_used"] == report.trace.terms_used
    assert row["trace"]["tail_estimate"] == report.trace.bound


def test_json_bethe_round_trips_bit_exact(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--model", "delta", "--rule", "bethe",
        "--q", "2", "--format", "json",
    )
    assert code == 0
    row = json.loads(out)[0]
    odd, even = engine.bethe_components(2.0)
    assert row["params"] == {"q": 2.0}
    assert row["analytic"] == 2.0
    assert row["numeric_closed"] == odd.closed + even.closed
    assert row["numeric_brute"] == odd.brute + even.brute
    assert "est_error" in row["trace"]


def test_json_delta_closure_has_empty_params(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--model", "delta", "--rule", "closure",
        "--format", "json",
    )
    assert code == 0
    row = json.loads(out)[0]
    assert row["params"] == {}
    assert row["model"] == "delta"


def test_json_grid_is_sorted_and_deduplicated(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--model", "isw", "--rule", "closure",
        "--n", "7,2,2,1", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert [row["params"]["n"] for row in rows] == [1, 2, 7]


# ------------------------------------------------------------------ CSV shape


def test_verify_csv_header_and_values(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--model", "isw", "--rule", "trk",
        "--n", "1,2", "--format", "csv",
    )
    assert code == 0
    table = list(csv.reader(io.StringIO(out)))
    assert table[0] == list(cli._VERIFY_CSV_COLUMNS)
    assert len(table) == 3
    first = dict(zip(table[0], table[1]))
    assert first["rule"] == "trk"
    assert first["model"] == "isw"
    assert first["n"] == "1"
    assert first["q"] == ""
    assert first["passed"] == "true"
    # .17g text parses back to the exact double
    report = engine.verify(SumRuleSpec("trk", n=1), ModelKind.ISW)
    assert float(first["analytic"]) == report.analytic
    assert float(first["numeric_brute"]) == report.brute
    assert int(first["terms_used"]) == report.trace.terms_used
    assert first["evaluations"] == ""


def test_bethe_csv_fills_q_and_est_error(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--model", "delta", "--rule", "bethe",
        "--q", "1", "--format", "csv",
    )
    assert code == 0
    table = list(csv.reader(io.StringIO(out)))
    row = dict(zip(table[0], table[1]))
    assert row["q"] == "1"
    assert row["n"] == ""
    assert row["est_error"] != ""
    assert row["tail_estimate"] == ""


def test_series_csv_header(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--p", "2", "--z", "0.3", "--format", "csv"
    )
    assert code == 0
    table = list(csv.reader(io.StringIO(out)))
    assert table[0] == list(cli._SERIES_CSV_COLUMNS)
    row = dict(zip(table[0], table[1]))
    assert row["rule"] == "series.sum"
    assert row["parity"] == "all"
    assert row["passed"] == "true"


def test_sweep_csv_one_row_per_checkpoint(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--model", "isw", "--rule", "trk",
        "--n", "1", "--format", "csv",
    )
    assert code == 0
    table = list(csv.reader(io.StringIO(out)))
    assert table[0] == list(cli._SWEEP_CSV_COLUMNS)
    assert len(table) >= 3
    terms = [int(row[3]) for row in table[1:]]
    assert terms == sorted(terms)
    # every checkpoint advertises the shared final value
    finals = {row[5] for row in table[1:]}
    assert len(finals) == 1


@pytest.mark.parametrize("rule", ["closure", "trk", "monopole"])
@pytest.mark.parametrize("tol, kmax", [(1e-9, None), (1e-14, 3000)])
def test_sweep_rows_are_the_rule_lattice_sum(capsys, rule, tol, kmax):
    """Each sweep row is the brute sum behind the rule, field for field;
    monopole runs the struck-out k = n path."""
    argv = ["sweep", "--model", "isw", "--rule", rule, "--n", "1,2,5",
            "--tol", str(tol), "--format", "json"]
    if kmax is not None:
        argv += ["--kmax", str(kmax)]
    code, out, _ = run_cli(capsys, *argv)
    rows = json.loads(out)
    assert [row["params"]["n"] for row in rows] == [1, 2, 5]
    for row in rows:
        n = row["params"]["n"]
        trace = series.brute_sum(**engine.box_lattice_sum(rule, n)[1], tol=tol,
                                 max_terms=kmax)
        assert row["rule"] == rule
        assert row["passed"] is trace.converged
        assert row["trace"] == {
            "value": trace.value,
            "terms_used": trace.terms_used,
            "tail_estimate": trace.bound,
            "converged": trace.converged,
            "checkpoints": [
                {"terms": t, "partial_sum": s}
                for t, s in zip(trace.checkpoint_terms, trace.partial_sums)
            ],
        }
    assert code == (0 if all(row["passed"] for row in rows) else 1)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


@pytest.mark.parametrize("argv", [
    ["verify", "--model", "isw", "--n", "1,2"],
    ["verify", "--model", "delta", "--q", "0.5,2"],
    ["stark", "--model", "isw", "--n", "1,3"],
    ["stark", "--model", "delta", "--F", "0.25"],
    ["series", "--p", "3", "--z", "1.4", "--parity", "even"],
    ["series", "--p", "4", "--n", "1,3", "--weighted"],
    ["series", "--n", "2,3", "--removed-term"],
    ["sweep", "--model", "isw", "--rule", "trk", "--n", "1,2"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_csv_cells_match_json_fields(capsys, argv):
    """Each CSV cell is the JSON field of the same name (row, params or
    trace; a sweep line per checkpoint, final_value = trace.value)."""
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    expected = []
    for row in json.loads(out):
        fields = {**row, **row["params"], **row["trace"]}
        for point in row["trace"].get("checkpoints", [{}]):
            expected.append({**fields, **point, "final_value": fields.get("value")})

    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    table = list(csv.reader(io.StringIO(out)))
    assert len(table) == 1 + len(expected)
    for line, fields in zip(table[1:], expected):
        assert line == [_csv_cell(fields.get(name)) for name in table[0]]


# ----------------------------------------------------------------- subcommands


def test_stark_isw_and_delta(capsys):
    code, out, _ = run_cli(
        capsys, "stark", "--model", "isw", "--n", "1..3", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert [row["params"]["n"] for row in rows] == [1, 2, 3]
    assert all(row["params"]["F"] == 1.0 for row in rows)

    code, out, _ = run_cli(
        capsys, "stark", "--model", "delta", "--F", "0.25", "--format", "json"
    )
    assert code == 0
    row = json.loads(out)[0]
    assert row["params"] == {"F": 0.25}
    assert row["rule"] == "stark"
    assert row["passed"] is True


def test_stark_isw_large_n_passes_on_both_routes(capsys):
    code, out, _ = run_cli(
        capsys, "stark", "--model", "isw", "--n", "1000", "--format", "json"
    )
    row = json.loads(out)[0]
    assert code == 0
    assert row["rel_err_closed"] <= 1e-14 and row["passed"] is True


def test_json_report_parses_with_non_finite_values(capsys):
    # F^2 overflows at F = 1e300, so the row carries inf and nan; the
    # report must still be JSON that json.loads accepts
    code, out, _ = run_cli(
        capsys, "stark", "--model", "delta", "--F", "1e300", "--format", "json"
    )
    row = json.loads(out)[0]
    assert code == 1
    assert row["analytic"] == -math.inf
    assert math.isnan(row["rel_err_closed"])


def test_series_plain_weighted_removed(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--p", "3", "--z", "1.4",
        "--parity", "even", "--format", "json",
    )
    assert code == 0
    row = json.loads(out)[0]
    assert row["params"] == {"p": 3, "z": 1.4, "parity": "even"}
    assert row["rel_err_brute"] <= 1e-9

    code, out, _ = run_cli(
        capsys, "series", "--p", "3", "--n", "1,2", "--weighted",
        "--format", "json",
    )
    assert code == 0
    assert [row["params"]["n"] for row in json.loads(out)] == [1, 2]

    code, out, _ = run_cli(
        capsys, "series", "--n", "2", "--removed-term", "--format", "json"
    )
    assert code == 0
    row = json.loads(out)[0]
    assert row["rule"] == "series.removed_term"
    assert row["passed"] is True


def test_series_missing_arguments(capsys):
    assert run_cli(capsys, "series")[0] == 2
    assert run_cli(capsys, "series", "--p", "2")[0] == 2
    assert run_cli(capsys, "series", "--p", "2", "--weighted")[0] == 2


def test_series_pole_is_computation_failure(capsys):
    # a z sitting on the lattice is a PoleError, not a usage problem
    code, _, err = run_cli(capsys, "series", "--p", "2", "--z", "3")
    assert code == 1
    assert "failure:" in err


@pytest.mark.parametrize("q", ["1e100", "1e300"])
def test_bethe_prefactor_overflow_is_a_stated_failure(capsys, q):
    # the odd channel's residue prefactor 4 q^2 / pi is inf at 1e300, so
    # the cross-check sees a NaN deviation; it must fail, not pass on
    code, out, err = run_cli(capsys, "verify", "--model", "delta", "--q", q)
    assert code == 1
    assert out == ""
    assert err.startswith("failure: Bethe odd channel at q=")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [("--n", "1", "--F", "1e154"), ("--n", "1000", "--F", "1e151")])
def test_stark_isw_analytic_survives_an_overflowing_intermediate(capsys, argv):
    code, out, _ = run_cli(capsys, "stark", "--model", "isw", *argv, "--format", "json")
    assert code == 0
    (row,) = json.loads(out)
    assert row["passed"] is True
    assert math.isfinite(row["analytic"])


def test_sweep_delta_rejected(capsys):
    code, _, err = run_cli(capsys, "sweep", "--model", "delta", "--n", "1")
    assert code == 2
    assert "sweep" in err


def test_sweep_text_shows_convergence_trace(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--model", "isw", "--n", "1")
    assert code == 0
    assert "lattice sum" in out
    assert "partial_sum" in out
    assert "converged" in out


# ------------------------------------------------------------- output routing


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--model", "isw", "--rule", "trk", "--n", "1",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    rows = json.loads(target.read_text(encoding="utf-8"))
    assert rows[0]["rule"] == "trk"


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "report.json"
    code, _, err = run_cli(
        capsys, "verify", "--model", "isw", "--rule", "trk", "--n", "1",
        "--out", str(target),
    )
    assert code == 2
    assert "cannot write" in err


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    verify = ("verify", "--model", "isw", "--n", "1")
    plain_series = ("series", "--p", "3", "--z", "1.4")
    first = {argv: run_cli(capsys, *argv) for argv in (verify, plain_series)}
    assert all(code == 0 for code, _, _ in first.values())
    # the parser is built once at import, not once per call
    monkeypatch.setattr(cli, "build_parser", None)

    run_cli(capsys, "sweep", "--model", "isw", "--n", "1")
    again = run_cli(capsys, *verify)
    assert again == first[verify]
    # --rule falls back to verify's own default "all", not sweep's "trk"
    assert "3 checks, 0 failed" in again[1]

    target = tmp_path / "report.txt"
    assert run_cli(capsys, *verify, "--out", str(target))[1] == ""
    assert run_cli(capsys, *plain_series) == first[plain_series]


# ------------------------------------------------------------ truncation caps


def test_kmax_flag_sets_the_cap(capsys):
    argv = ("verify", "--model", "isw", "--rule", "trk", "--n", "1", "--format", "json")
    code, out, _ = run_cli(capsys, *argv, "--tol", "1e-12", "--kmax", "10")
    assert json.loads(out)[0]["trace"]["terms_used"] == 10
    assert code == 1  # ten terms cannot certify 1e-12
    code, out, _ = run_cli(capsys, *argv, "--kmax", "200000")
    assert code == 0
    assert json.loads(out)[0]["trace"]["terms_used"] > 10


@pytest.mark.parametrize("argv", [
    "verify --model isw --rule trk --n 2 --kmax 1",
    "stark --model isw --n 2 --kmax 1",
    "sweep --model isw --rule trk --n 1,2 --kmax 1",
])
def test_kmax_cutoff_on_pole_prints_unconverged_row(capsys, argv):
    # one odd-lattice term leaves the cutoff at X = 2 = n: the n = 2 row
    # reports an infinite tail bound and fails, with no traceback
    code, out, err = run_cli(capsys, *argv.split(), "--format", "json")
    rows = json.loads(out)
    assert code == 1
    assert err == ""
    last = rows[-1]
    assert last["params"]["n"] == 2
    assert last["passed"] is False
    assert last["trace"]["terms_used"] == 1
    assert last["trace"]["tail_estimate"] == math.inf
    assert last["trace"]["converged"] is False


# ------------------------------------------------------------------ end to end


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "sumrules", "verify", "--model", "delta",
         "--rule", "bethe", "--q", "1", "--format", "json"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert rows[0]["passed"] is True


@pytest.mark.parametrize("argv", [["--n", "one"], ["--caps", "10,x"], ["--n", "1,0"]])
def test_convergence_study_malformed_list_is_usage_error(argv):
    root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "scripts/convergence_study.py", *argv],
        capture_output=True, text=True, timeout=60, cwd=root,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"error: argument {argv[0]}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_import_leaves_scipy_out():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sumrules.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

"""Correctness gate and bound-honesty check for one CLI report.

The analytic value of every row is recomputed here from the textbook
forms, without importing `sumrules`, and each row is matched to the
request that produced it.  A mismatch raises `GateError`, which aborts
the benchmark run: a wrong report is not scored.

Rows whose verdict is FAIL are not mismatches.  The program is allowed
to report a failed check; it is only required to report it honestly.
"""

from __future__ import annotations

import json
import math
import re

PI = math.pi
DEFAULT_TOL = 1e-9

# Tolerance for the program's analytic value against the one recomputed
# here: both evaluate the same closed form in binary64, in a different
# order at most.
_ANALYTIC_RTOL = 1e-13
# Slack for a relative error recomputed from the row's own numbers.
_REL_ERR_RTOL = 1e-6


class GateError(Exception):
    """A report that disagrees with its request or with the analytic value."""


def analytic(model: str, rule: str, params: dict) -> float:
    """Right-hand side of one row in reduced units (hbar = m = 1)."""
    if model == "isw":
        n = params["n"]
        x2 = 1.0 / 3.0 - 1.0 / (2.0 * n * n * PI * PI)  # <n|x^2|n>
        if rule == "closure":
            return x2
        if rule == "monopole":
            return 2.0 * x2
        if rule == "trk":
            return 0.5
        if rule == "stark":
            F = params["F"]
            return -F * F * (15.0 - n * n * PI * PI) / (24.0 * PI * PI * n**4)
    if model == "delta":
        if rule == "closure":
            return 0.5  # <0|x^2|0> for psi = exp(-|x|)
        if rule == "monopole":
            return 1.0
        if rule == "trk":
            return 0.5
        if rule == "bethe":
            return 0.5 * params["q"] ** 2
        if rule == "stark":
            return -0.625 * params["F"] * params["F"]
    raise GateError(f"no analytic form for {model}.{rule}")


def bound_scale(model: str, rule: str, params: dict) -> float:
    """Factor taking a row's reported brute bound into rule units.

    `tail_estimate` bounds the raw lattice sum and `est_error` the raw
    integral; the rule's matrix-element prefactor multiplies both.
    This table is the one place the benchmark keeps those prefactors.
    """
    if model == "isw":
        n = params["n"]
        if rule == "closure":
            return 64.0 * n * n / PI**4
        if rule in ("trk", "monopole"):
            return 32.0 * n * n / PI**2
        if rule == "stark":
            return 2.0 * params["F"] * params["F"] * (8.0 * n / PI**2) ** 2
    if model == "delta":
        return params["F"] * params["F"] if rule == "stark" else 1.0
    raise GateError(f"no bound scale for {model}.{rule}")


def bound_ratio(row: dict) -> float | None:
    """|numeric_brute - analytic| over the allowed error, or None.

    The allowed error is the reported bound in rule units plus 8 ulp of
    the analytic value; a ratio above 1 is a bound violation.  Rows
    without a finite analytic value have no error to bound.
    """
    target = row["analytic"]
    if not math.isfinite(target):
        return None
    trace = row["trace"]
    bound = trace["tail_estimate"] if "tail_estimate" in trace else trace["est_error"]
    allowed = bound * bound_scale(row["model"], row["rule"], row["params"])
    allowed += 8.0 * math.ulp(target)
    err = abs(row["numeric_brute"] - target)
    if math.isnan(err):
        return math.inf
    return err / allowed if allowed > 0 else (0.0 if err == 0 else math.inf)


def digits(row: dict) -> float | None:
    """Correct decimal digits of the worse route, or None for a row that
    overflowed: one whose analytic or numeric values, or the difference
    between them, are infinite.  Such a row counts as failed, not as
    inaccurate.  A NaN error counts as 0 digits."""
    values = (row["analytic"], row["numeric_closed"], row["numeric_brute"],
              row["rel_err_closed"], row["rel_err_brute"])
    if any(math.isinf(v) for v in values):
        return None
    errors = (row["rel_err_closed"], row["rel_err_brute"])
    if any(math.isnan(e) for e in errors):
        return 0.0
    return -math.log10(max(*errors, 1e-17))


_NONFINITE = re.compile(r"(?<=[\s:\[,])(-?)(nan|inf)\b")


def parse_report(text: str) -> list[dict]:
    """Parse the CLI's JSON, which spells non-finite floats nan and inf."""
    fixed = _NONFINITE.sub(
        lambda m: m.group(1) + ("NaN" if m.group(2) == "nan" else "Infinity"), text
    )
    try:
        return json.loads(fixed)
    except json.JSONDecodeError as exc:
        raise GateError(f"report is not JSON: {exc}") from exc


def _same(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(abs(a), abs(b)) or abs(a - b) <= 1e-300


def check(request, exit_code: int, rows: list[dict], tol: float = DEFAULT_TOL) -> None:
    """Raise GateError unless `rows` is an honest report of `request`."""
    model = request.argv[request.argv.index("--model") + 1]
    if len(rows) != len(request.expect):
        raise GateError(
            f"{' '.join(request.argv)}: {len(rows)} rows, expected {len(request.expect)}"
        )
    all_passed = True
    for row, (rule, params) in zip(rows, request.expect):
        where = f"{' '.join(request.argv)}: row {rule} {params}"
        if row["rule"] != rule or row["model"] != model or row["params"] != params:
            raise GateError(f"{where}: got {row['rule']} {row['model']} {row['params']}")
        target = analytic(model, rule, params)
        if not _same(row["analytic"], target, _ANALYTIC_RTOL):
            raise GateError(f"{where}: analytic {row['analytic']!r}, expected {target!r}")
        reported = row["analytic"]
        for route in ("closed", "brute"):
            rel = abs(row[f"numeric_{route}"] - reported) / max(abs(reported), 1e-300)
            if not _same(row[f"rel_err_{route}"], rel, _REL_ERR_RTOL):
                raise GateError(
                    f"{where}: rel_err_{route} {row[f'rel_err_{route}']!r}, "
                    f"recomputed {rel!r}"
                )
        verdict = row["rel_err_closed"] <= tol and row["rel_err_brute"] <= tol
        if row["passed"] is not verdict:
            raise GateError(f"{where}: passed={row['passed']} but verdict is {verdict}")
        all_passed = all_passed and verdict
    if exit_code != (0 if all_passed else 1):
        raise GateError(
            f"{' '.join(request.argv)}: exit code {exit_code}, all passed={all_passed}"
        )

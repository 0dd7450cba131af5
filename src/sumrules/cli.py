"""Batch command-line front end.

Four subcommands: `verify` runs sum-rule checks over a grid of quantum
numbers or momentum transfers, `stark` compares second-order Stark
shifts route against route, `series` evaluates the lattice sums
directly, and `sweep` exports the convergence trace of a brute-force
summation.  Exit code 0 means every requested check passed, 1 means at
least one failed, 2 means the request itself was malformed.

Output goes to stdout or --out as text, JSON, or CSV.  Floats are
serialized with 17 significant digits so a parsed report reproduces
every value bit for bit.

Verify, stark and series rows are one `RuleVerification` shape (model null
on series rows), printed under the record's own `rule` name; a CSV column
is the row, params or trace field of its name.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import re
import sys

from . import engine, series
from .core import (
    DEFAULT_TOL,
    DomainError,
    InvalidSpecError,
    KMAX_ENV_VAR,
    ModelKind,
    SumRuleError,
)
from .engine import RuleVerification, SumRuleSpec
from .quadrature import QuadratureResult
from .series import Parity


class UsageError(Exception):
    """Bad request: wrong flag combination, unparseable grid, and the like."""


_BOX_RULES = tuple(rule for rule in engine.RULES if rule != "bethe")
# --n and --q default to None, so that _check can tell a flag given from
# one left out; these grids stand in for a left-out one
_DEFAULT_N = {"verify": "1..10", "stark": "1..6", "sweep": "1..4"}
_DEFAULT_Q = "0.1,0.5,1,2,5,10"
# A token that opens with "-", then an optional "." and a digit, or
# "inf" or "nan" in any case, is a value, never a flag.  Set on each
# subparser: the pattern argparse ships on Python 3.10-3.12 takes only
# "-1" and "-0.5" for numbers and reads "-1e-3", "-1,2" or "-inf" as an
# unknown flag.
_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

_VERIFY_CSV_COLUMNS = (
    "rule", "model", "n", "q", "F",
    "analytic", "numeric_closed", "numeric_brute",
    "rel_err_closed", "rel_err_brute", "passed",
    "terms_used", "evaluations", "tail_estimate", "est_error", "converged",
)
_SERIES_CSV_COLUMNS = (
    "rule", "p", "n", "z", "parity",
    "analytic", "numeric_closed", "numeric_brute",
    "rel_err_closed", "rel_err_brute", "passed",
    "terms_used", "tail_estimate", "converged",
)
_SWEEP_CSV_COLUMNS = (
    "rule", "model", "n", "terms", "partial_sum",
    "final_value", "tail_estimate", "converged",
)


def _parse_int_grid(text: str) -> tuple[int, ...]:
    """'1..20', '5', or '1,2,7' -> ascending tuple of ints."""
    text = text.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..")
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise UsageError(f"empty range {text!r}")
            return tuple(range(lo, hi + 1))
        return tuple(sorted({int(part) for part in text.split(",")}))
    except ValueError as exc:
        raise UsageError(f"cannot parse integer grid {text!r}") from exc


def _parse_float_grid(text: str) -> tuple[float, ...]:
    try:
        values = tuple(sorted({float(part) for part in text.split(",")}))
    except ValueError as exc:
        raise UsageError(f"cannot parse float grid {text!r}") from exc
    if any(not math.isfinite(v) for v in values):
        raise UsageError(f"grid {text!r} contains non-finite values")
    return values


def _unread_flags(args: argparse.Namespace) -> tuple[str, tuple[str, ...]]:
    """The request `args` makes, and the flags of its command it does not read."""
    if args.command == "series":
        if args.removed_term:
            return "series --removed-term", ("--p", "--z", "--parity", "--weighted")
        if args.weighted:
            return "series --weighted", ("--z", "--parity")
        # without --z the handler names what is missing
        return "series --z", ("--n",) if args.z is not None else ()
    if args.model == "isw" or args.command == "sweep":  # sweep rejects delta itself
        return f"{args.command} --model isw", ("--q",) if "q" in args else ()
    # the delta well has one bound state and runs no brute sum
    flags = ("--n", "--kmax")
    if args.command == "verify" and args.rule not in ("bethe", "all"):
        return f"verify --model delta --rule {args.rule}", flags + ("--q",)
    return f"{args.command} --model delta", flags


def _check(args: argparse.Namespace) -> None:
    """Reject a flag the request does not read, parse the --n and --q grids
    in place, then reject the requests that no handler could answer."""
    request, unread = _unread_flags(args)
    for flag in unread:
        if getattr(args, flag[2:]) not in (None, False):
            raise UsageError(f"{request} does not read {flag}")
    n = _DEFAULT_N.get(args.command) if args.n is None else args.n
    args.n = None if n is None else _parse_int_grid(n)
    if "q" in args:
        args.q = _parse_float_grid(_DEFAULT_Q if args.q is None else args.q)
    if getattr(args, "rule", None) == "bethe" and args.model != "delta":
        raise UsageError("rule 'bethe' is only defined for --model delta")
    if not math.isfinite(args.tol) or args.tol <= 0.0:
        raise UsageError(f"--tol must be positive, got {args.tol}")
    if args.kmax is not None and args.kmax < 1:
        raise UsageError(f"--kmax must be >= 1, got {args.kmax}")


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _to_json(obj, indent: int = 0) -> str:
    """Serializer with fixed float formatting and stable key order."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}"{key}": {_to_json(value, indent + 1)}'
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [inner + _to_json(value, indent + 1) for value in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return _fmt_float(obj)
        # the spelling json.dumps uses, so that json.loads reads it back
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    if obj is None:
        return "null"
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _trace_dict(trace) -> dict:
    if isinstance(trace, QuadratureResult):
        return {"evaluations": trace.evaluations, "est_error": trace.est_error,
                "converged": trace.converged}
    return {"terms_used": trace.terms_used, "tail_estimate": trace.tail_estimate,
            "converged": trace.converged}


def _row(check: RuleVerification) -> dict:
    model = check.model
    return {
        "rule": check.rule,
        "model": None if model is None else model.value,
        "params": dict(check.params),
        "analytic": check.analytic,
        "numeric_closed": check.closed,
        "numeric_brute": check.brute,
        "rel_err_closed": check.rel_err_closed,
        "rel_err_brute": check.rel_err_brute,
        "passed": check.passed,
        "trace": _trace_dict(check.trace),
    }


def _run_verify(args: argparse.Namespace) -> tuple[list[dict], list]:
    model = ModelKind(args.model)
    every = _BOX_RULES if model is ModelKind.ISW else engine.RULES
    rules = every if args.rule == "all" else (args.rule,)
    rows: list[dict] = []
    bethe_detail: list[tuple[RuleVerification, RuleVerification]] = []
    for rule in rules:
        if model is ModelKind.ISW:
            specs = [SumRuleSpec(rule, n=n) for n in args.n]
        elif rule == "bethe":
            specs = [SumRuleSpec(rule, q=q) for q in args.q]
        else:
            specs = [SumRuleSpec(rule)]
        for spec in specs:
            verification = engine.verify(spec, model, args.tol, args.kmax)
            rows.append(_row(verification))
            if verification.components is not None:
                bethe_detail.append(verification.components)
    return rows, bethe_detail


def _run_stark(args: argparse.Namespace) -> tuple[list[dict], list]:
    model = ModelKind(args.model)
    # the delta well's one bound state is named by None
    states = args.n if model is ModelKind.ISW else (None,)
    return [_row(engine.stark_verify(model, n, args.F, args.tol, args.kmax))
            for n in states], []


def _run_series(args: argparse.Namespace) -> tuple[list[dict], list]:
    checks = []  # (rule, params, analytic, closed, trace)
    if args.removed_term:
        if not args.n:
            raise UsageError("--removed-term needs --n")
        for n in args.n:
            # the lattice sum of the box monopole row, k = n struck out
            limit, brute_args = engine.box_lattice_sum("monopole", n)
            extrapolated = series.removed_term_sum_limit(n)
            trace = series.brute_sum(**brute_args, tol=args.tol, max_terms=args.kmax)
            checks.append(("series.removed_term", {"n": n}, limit, extrapolated, trace))
    elif args.p is None:
        raise UsageError("series needs --p")
    elif args.weighted:
        if not args.n:
            raise UsageError("--weighted needs --n")
        for n in args.n:
            closed = series.weighted_k2_sum(args.p, n)
            trace = series.brute_sum(args.p, float(n), series.opposite_parity(n),
                                     weight_k2=True, tol=args.tol, max_terms=args.kmax)
            checks.append(("series.weighted_k2", {"p": args.p, "n": n}, closed, closed, trace))
    elif args.z is None:
        raise UsageError("series needs --z (or --n with --weighted/--removed-term)")
    else:
        parity = Parity(args.parity or "all")
        closed = series.sum_closed(args.p, args.z, parity)
        trace = series.brute_sum(args.p, args.z, parity, tol=args.tol,
                                 max_terms=args.kmax)
        checks.append(("series.sum", {"p": args.p, "z": args.z, "parity": parity.value},
                       closed, closed, trace))
    return [_row(RuleVerification(rule, None, params, analytic, closed, trace.value,
                                  trace, args.tol))
            for rule, params, analytic, closed, trace in checks], []


def _run_sweep(args: argparse.Namespace) -> tuple[list[dict], list]:
    if args.model != "isw":
        raise UsageError("sweep exports truncation traces; only --model isw has them")
    rows = []
    for n in args.n:
        _, brute_args = engine.box_lattice_sum(args.rule, n)
        trace = series.brute_sum(**brute_args, tol=args.tol, max_terms=args.kmax)
        # everything here is in raw lattice-sum units, before the rule's
        # matrix-element prefactor
        rows.append({
            "rule": args.rule,
            "model": args.model,
            "params": {"n": n},
            "passed": trace.converged,
            "trace": {
                "value": trace.value,
                "terms_used": trace.terms_used,
                "tail_estimate": trace.tail_estimate,
                "converged": trace.converged,
                "checkpoints": [
                    {"terms": t, "partial_sum": s}
                    for t, s in zip(trace.checkpoint_terms, trace.partial_sums)
                ],
            },
        })
    return rows, []


def _params_text(params: dict) -> str:
    return " ".join(
        f"{key}={value:g}" if isinstance(value, float) else f"{key}={value}"
        for key, value in params.items()
    )


def _sweep_text(rows: list[dict], detail: list) -> list[str]:
    lines = []
    for row in rows:
        trace = row["trace"]
        lines.append(
            f"{row['rule']} {_params_text(row['params'])}: lattice sum "
            f"{trace['value']:.15e} after {trace['terms_used']} terms, "
            f"tail estimate {trace['tail_estimate']:.2e}, "
            f"{'converged' if trace['converged'] else 'NOT CONVERGED'}"
        )
        for point in trace["checkpoints"]:
            lines.append(
                f"    terms {point['terms']:>8d}  "
                f"partial_sum {point['partial_sum']:.15e}"
            )
    return lines


def _table_text(
    rows: list[dict], detail: list[tuple[RuleVerification, RuleVerification]]
) -> list[str]:
    header = (
        f"{'rule':<22} {'model':<6} {'params':<14} {'analytic':>22} "
        f"{'closed':>22} {'brute':>22} {'rel_closed':>10} {'rel_brute':>10} status"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['rule']:<22} {row['model'] or '-':<6} "
            f"{_params_text(row['params']):<14} {row['analytic']:>22.15e} "
            f"{row['numeric_closed']:>22.15e} {row['numeric_brute']:>22.15e} "
            f"{row['rel_err_closed']:>10.2e} {row['rel_err_brute']:>10.2e} "
            f"{'PASS' if row['passed'] else 'FAIL'}"
        )
    if detail:
        sub = f"{'q':>8} {'B_odd':>22} {'B_even':>22} {'total':>22} {'q^2/2':>22}"
        lines += ["", sub, "-" * len(sub)]
        for odd, even in detail:
            q = odd.params["q"]
            lines.append(
                f"{q:>8g} {odd.closed:>22.15e} {even.closed:>22.15e} "
                f"{odd.closed + even.closed:>22.15e} {0.5 * q * q:>22.15e}"
            )
    return lines


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt_float(value)
    return str(value)


def _render_csv(columns: tuple[str, ...], rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        fields = {**row, **row["params"], **row["trace"]}
        # a sweep row is one line per checkpoint, each with the final value
        for point in fields.get("checkpoints", ({},)):
            cells = {**fields, **point, "final_value": fields.get("value")}
            writer.writerow([_csv_value(cells.get(name)) for name in columns])
    return buffer.getvalue()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumrules",
        description="Verify quantum sum rules two independent ways.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_subcommand(name, run, columns, text, **kwargs) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, epilog="CSV columns: " + ",".join(columns), **kwargs)
        sp._negative_number_matcher = _NEGATIVE_NUMBER
        sp.set_defaults(run=run, columns=columns, text=text)
        return sp

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="relative tolerance for PASS (default 1e-9)")
        sp.add_argument("--kmax", type=int, default=None,
                        help=f"truncation cap; overrides ${KMAX_ENV_VAR}")
        sp.add_argument("--format", dest="fmt", choices=("text", "json", "csv"),
                        default="text", help="output format")
        sp.add_argument("--out", default=None, help="write output to this file")

    sp = add_subcommand("verify", _run_verify, _VERIFY_CSV_COLUMNS, _table_text,
                        help="check sum rules over a grid")
    sp.add_argument("--model", required=True, choices=("isw", "delta"))
    sp.add_argument("--rule", default="all", choices=engine.RULES + ("all",))
    sp.add_argument("--n", help="quantum numbers: '1..20', '3', or '1,2,7'")
    sp.add_argument("--q", help="momentum transfers for bethe: comma list")
    add_common(sp)

    sp = add_subcommand("stark", _run_stark, _VERIFY_CSV_COLUMNS, _table_text,
                        help="second-order Stark shifts, both routes")
    sp.add_argument("--model", required=True, choices=("isw", "delta"))
    sp.add_argument("--n")
    sp.add_argument("--F", type=float, default=1.0, help="field strength")
    add_common(sp)

    sp = add_subcommand("series", _run_series, _SERIES_CSV_COLUMNS, _table_text,
                        help="evaluate lattice sums directly")
    sp.add_argument("--p", type=int, default=None, help="power of 1/(k^2-z^2)")
    sp.add_argument("--z", type=float, default=None)
    sp.add_argument("--n", default=None, help="integer lattice point(s)")
    sp.add_argument("--parity", choices=("all", "even", "odd"))
    sp.add_argument("--weighted", action="store_true",
                    help="k^2-weighted opposite-parity sum at --n")
    sp.add_argument("--removed-term", action="store_true", dest="removed_term",
                    help="all-k sum with the k=n term struck out: "
                         "limit formula vs extrapolation vs brute")
    add_common(sp)

    sp = add_subcommand("sweep", _run_sweep, _SWEEP_CSV_COLUMNS, _sweep_text,
                        help="export brute-force convergence traces")
    sp.add_argument("--model", required=True, choices=("isw", "delta"))
    sp.add_argument("--rule", default="trk", choices=_BOX_RULES)
    sp.add_argument("--n")
    add_common(sp)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        _check(args)
        rows, detail = args.run(args)
    except (UsageError, InvalidSpecError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SumRuleError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    if args.fmt == "json":
        text = _to_json(rows) + "\n"
    elif args.fmt == "csv":
        text = _render_csv(args.columns, rows)
    else:
        failed = sum(1 for row in rows if not row["passed"])
        lines = args.text(rows, detail) + ["", f"{len(rows)} checks, {failed} failed"]
        text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    return 0 if all(row["passed"] for row in rows) else 1

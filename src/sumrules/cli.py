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
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import dataclass

from . import engine, series
from .core import (
    DEFAULT_TOL,
    DomainError,
    InvalidSpecError,
    KMAX_ENV_VAR,
    ModelKind,
    SumRuleError,
    TruncationTrace,
    make_report,
)
from .engine import Operator, SumRuleSpec
from .quadrature import QuadratureResult
from .series import Parity


class UsageError(Exception):
    """Bad request: wrong flag combination, empty grid, and the like."""


_RULE_TO_SPEC = {
    "closure": (Operator.X, 0),
    "trk": (Operator.X, 1),
    "monopole": (Operator.X2, 1),
    "bethe": (Operator.EXP_IQX, 1),
}
_DEFAULT_N = "1..10"
_DEFAULT_Q = "0.1,0.5,1,2,5,10"

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


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated request for one CLI run."""

    command: str
    model: ModelKind | None = None
    rule: str = "all"
    n_values: tuple[int, ...] = ()
    q_values: tuple[float, ...] = ()
    F: float = 1.0
    tol: float = DEFAULT_TOL
    kmax: int | None = None
    fmt: str = "text"
    out: str | None = None
    p: int | None = None
    z: float | None = None
    parity: Parity = Parity.ALL
    series_mode: str = "plain"

    def __post_init__(self) -> None:
        if self.rule == "bethe" and self.model is not ModelKind.DELTA:
            raise UsageError("rule 'bethe' is only defined for --model delta")
        if not math.isfinite(self.tol) or self.tol <= 0.0:
            raise UsageError(f"--tol must be positive, got {self.tol}")
        if self.kmax is not None and self.kmax < 1:
            raise UsageError(f"--kmax must be >= 1, got {self.kmax}")
        if self.command in ("verify", "stark", "sweep"):
            if self.model is ModelKind.ISW and not self.n_values:
                raise UsageError("empty --n grid")
            if (
                self.command == "verify"
                and self.model is ModelKind.DELTA
                and self.rule in ("bethe", "all")
                and not self.q_values
            ):
                raise UsageError("empty --q grid")


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
    if isinstance(trace, TruncationTrace):
        return {"terms_used": trace.terms_used, "tail_estimate": trace.tail_estimate,
                "converged": trace.converged}
    if isinstance(trace, QuadratureResult):
        return {"evaluations": trace.evaluations, "est_error": trace.est_error,
                "converged": trace.converged}
    return {}


def _report_row(rule: str, model: str | None, params: dict, analytic: float,
                closed, brute) -> dict:
    return {
        "rule": rule,
        "model": model,
        "params": params,
        "analytic": analytic,
        "numeric_closed": closed.numeric,
        "numeric_brute": brute.numeric,
        "rel_err_closed": closed.rel_err,
        "rel_err_brute": brute.rel_err,
        "passed": closed.passed and brute.passed,
        "trace": _trace_dict(brute.trace),
    }


def _verification_row(rule: str, verification) -> dict:
    return _report_row(
        rule, verification.model.value, dict(verification.params),
        verification.analytic, verification.closed, verification.brute,
    )


def _execute_verify(cfg: RunConfig) -> tuple[list[dict], list[dict]]:
    rules = [cfg.rule] if cfg.rule != "all" else (
        ["closure", "trk", "monopole"]
        + (["bethe"] if cfg.model is ModelKind.DELTA else [])
    )
    rows: list[dict] = []
    bethe_detail: list[dict] = []
    for rule in rules:
        operator, power = _RULE_TO_SPEC[rule]
        if cfg.model is ModelKind.ISW:
            for n in cfg.n_values:
                spec = SumRuleSpec(operator, power, n=n)
                rows.append(_verification_row(
                    rule, engine.verify(spec, cfg.model, cfg.tol, cfg.kmax)
                ))
        elif rule == "bethe":
            for q in cfg.q_values:
                spec = SumRuleSpec(operator, power, q=q)
                verification = engine.verify(spec, cfg.model, cfg.tol, cfg.kmax)
                rows.append(_verification_row(rule, verification))
                parts = verification.components
                bethe_detail.append({
                    "q": q,
                    "B_odd": parts.odd_residue,
                    "B_even": parts.even_residue,
                    "total": parts.total_residue,
                    "q^2/2": 0.5 * q * q,
                })
        else:
            spec = SumRuleSpec(operator, power)
            rows.append(_verification_row(
                rule, engine.verify(spec, cfg.model, cfg.tol, cfg.kmax)
            ))
    return rows, bethe_detail


def _execute_stark(cfg: RunConfig) -> list[dict]:
    rows = []
    if cfg.model is ModelKind.ISW:
        for n in cfg.n_values:
            rows.append(_verification_row(
                "stark",
                engine.stark_verify(cfg.model, n, cfg.F, tol=cfg.tol,
                                    max_terms=cfg.kmax),
            ))
    else:
        rows.append(_verification_row(
            "stark", engine.stark_verify(cfg.model, F=cfg.F, tol=cfg.tol)
        ))
    return rows


def _series_row(rule: str, params: dict, analytic: float, closed: float,
                brute: float, trace, tol: float) -> dict:
    return _report_row(
        rule, None, params, analytic,
        make_report(rule + ".closed", analytic, closed, None, tol),
        make_report(rule + ".brute", analytic, brute, trace, tol),
    )


def _execute_series(cfg: RunConfig) -> list[dict]:
    if cfg.series_mode == "removed_term":
        if not cfg.n_values:
            raise UsageError("--removed-term needs --n")
        rows = []
        for n in cfg.n_values:
            limit = series.removed_term_limit_closed(n)
            extrapolated = series.removed_term_sum_limit(n)
            trace = series.brute_sum(3, float(n), Parity.ALL, weight_k2=True,
                                     exclude=n, tol=cfg.tol, max_terms=cfg.kmax)
            rows.append(_series_row(
                "series.removed_term", {"n": n},
                limit, extrapolated, trace.value, trace, cfg.tol,
            ))
        return rows
    if cfg.p is None:
        raise UsageError("series needs --p")
    if cfg.series_mode == "weighted":
        if not cfg.n_values:
            raise UsageError("--weighted needs --n")
        rows = []
        for n in cfg.n_values:
            closed = series.weighted_k2_sum(cfg.p, n)
            trace = series.brute_sum(cfg.p, float(n), series.opposite_parity(n),
                                     weight_k2=True, tol=cfg.tol, max_terms=cfg.kmax)
            rows.append(_series_row(
                "series.weighted_k2", {"p": cfg.p, "n": n},
                closed, closed, trace.value, trace, cfg.tol,
            ))
        return rows
    if cfg.z is None:
        raise UsageError("series needs --z (or --n with --weighted/--removed-term)")
    closed = series.sum_closed(cfg.p, cfg.z, cfg.parity)
    trace = series.brute_sum(cfg.p, cfg.z, cfg.parity, tol=cfg.tol,
                             max_terms=cfg.kmax)
    return [_series_row(
        "series.sum", {"p": cfg.p, "z": cfg.z, "parity": cfg.parity.value},
        closed, closed, trace.value, trace, cfg.tol,
    )]


def _execute_sweep(cfg: RunConfig) -> list[dict]:
    if cfg.model is not ModelKind.ISW:
        raise UsageError("sweep exports truncation traces; only --model isw has them")
    operator, power = _RULE_TO_SPEC[cfg.rule]
    rows = []
    for n in cfg.n_values:
        spec = SumRuleSpec(operator, power, n=n)
        trace = engine.lhs_isw(spec, tol=cfg.tol, max_terms=cfg.kmax).trace
        # everything here is in raw lattice-sum units, before the rule's
        # matrix-element prefactor
        rows.append({
            "rule": cfg.rule,
            "model": cfg.model.value,
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
    return rows


def _params_text(params: dict) -> str:
    return " ".join(
        f"{key}={value:g}" if isinstance(value, float) else f"{key}={value}"
        for key, value in params.items()
    )


def _render_sweep_text(rows: list[dict]) -> str:
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
    failed = sum(1 for row in rows if not row["passed"])
    lines.append("")
    lines.append(f"{len(rows)} checks, {failed} failed")
    return "\n".join(lines) + "\n"


def _render_text(cfg: RunConfig, rows: list[dict], detail: list[dict]) -> str:
    if cfg.command == "sweep":
        return _render_sweep_text(rows)
    lines = []
    header = (
        f"{'rule':<22} {'model':<6} {'params':<14} {'analytic':>22} "
        f"{'closed':>22} {'brute':>22} {'rel_closed':>10} {'rel_brute':>10} status"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            f"{row['rule']:<22} {row['model'] or '-':<6} "
            f"{_params_text(row['params']):<14} {row['analytic']:>22.15e} "
            f"{row['numeric_closed']:>22.15e} {row['numeric_brute']:>22.15e} "
            f"{row['rel_err_closed']:>10.2e} {row['rel_err_brute']:>10.2e} "
            f"{'PASS' if row['passed'] else 'FAIL'}"
        )
    if detail:
        lines.append("")
        sub = f"{'q':>8} {'B_odd':>22} {'B_even':>22} {'total':>22} {'q^2/2':>22}"
        lines.append(sub)
        lines.append("-" * len(sub))
        for entry in detail:
            lines.append(
                f"{entry['q']:>8g} {entry['B_odd']:>22.15e} "
                f"{entry['B_even']:>22.15e} {entry['total']:>22.15e} "
                f"{entry['q^2/2']:>22.15e}"
            )
    failed = sum(1 for row in rows if not row["passed"])
    lines.append("")
    lines.append(f"{len(rows)} checks, {failed} failed")
    return "\n".join(lines) + "\n"


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt_float(value)
    return str(value)


def _render_csv(cfg: RunConfig, rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if cfg.command == "sweep":
        writer.writerow(_SWEEP_CSV_COLUMNS)
        for row in rows:
            for point in row["trace"]["checkpoints"]:
                writer.writerow([
                    row["rule"], row["model"], _csv_value(row["params"].get("n")),
                    point["terms"], _csv_value(point["partial_sum"]),
                    _csv_value(row["trace"]["value"]),
                    _csv_value(row["trace"]["tail_estimate"]),
                    _csv_value(row["trace"]["converged"]),
                ])
        return buffer.getvalue()
    if cfg.command == "series":
        writer.writerow(_SERIES_CSV_COLUMNS)
        for row in rows:
            params, trace = row["params"], row["trace"]
            writer.writerow([
                row["rule"], _csv_value(params.get("p")), _csv_value(params.get("n")),
                _csv_value(params.get("z")), _csv_value(params.get("parity")),
                _csv_value(row["analytic"]), _csv_value(row["numeric_closed"]),
                _csv_value(row["numeric_brute"]), _csv_value(row["rel_err_closed"]),
                _csv_value(row["rel_err_brute"]), _csv_value(row["passed"]),
                _csv_value(trace.get("terms_used")), _csv_value(trace.get("tail_estimate")),
                _csv_value(trace.get("converged")),
            ])
        return buffer.getvalue()
    writer.writerow(_VERIFY_CSV_COLUMNS)
    for row in rows:
        params, trace = row["params"], row["trace"]
        writer.writerow([
            row["rule"], row["model"], _csv_value(params.get("n")),
            _csv_value(params.get("q")), _csv_value(params.get("F")),
            _csv_value(row["analytic"]), _csv_value(row["numeric_closed"]),
            _csv_value(row["numeric_brute"]), _csv_value(row["rel_err_closed"]),
            _csv_value(row["rel_err_brute"]), _csv_value(row["passed"]),
            _csv_value(trace.get("terms_used")), _csv_value(trace.get("evaluations")),
            _csv_value(trace.get("tail_estimate")), _csv_value(trace.get("est_error")),
            _csv_value(trace.get("converged")),
        ])
    return buffer.getvalue()


def _render(cfg: RunConfig, rows: list[dict], detail: list[dict]) -> str:
    if cfg.fmt == "json":
        return _to_json(rows) + "\n"
    if cfg.fmt == "csv":
        return _render_csv(cfg, rows)
    return _render_text(cfg, rows, detail)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumrules",
        description="Verify quantum sum rules two independent ways.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="relative tolerance for PASS (default 1e-9)")
        sp.add_argument("--kmax", type=int, default=None,
                        help=f"truncation cap; overrides ${KMAX_ENV_VAR}")
        sp.add_argument("--format", dest="fmt", choices=("text", "json", "csv"),
                        default="text", help="output format")
        sp.add_argument("--out", default=None, help="write output to this file")

    sp = sub.add_parser(
        "verify", help="check sum rules over a grid",
        epilog="CSV columns: " + ",".join(_VERIFY_CSV_COLUMNS),
    )
    sp.add_argument("--model", required=True, choices=("isw", "delta"))
    sp.add_argument("--rule", default="all",
                    choices=("closure", "trk", "monopole", "bethe", "all"))
    sp.add_argument("--n", default=_DEFAULT_N,
                    help="quantum numbers: '1..20', '3', or '1,2,7'")
    sp.add_argument("--q", default=_DEFAULT_Q,
                    help="momentum transfers for bethe: comma list")
    add_common(sp)

    sp = sub.add_parser(
        "stark", help="second-order Stark shifts, both routes",
        epilog="CSV columns: " + ",".join(_VERIFY_CSV_COLUMNS),
    )
    sp.add_argument("--model", required=True, choices=("isw", "delta"))
    sp.add_argument("--n", default="1..6")
    sp.add_argument("--F", type=float, default=1.0, help="field strength")
    add_common(sp)

    sp = sub.add_parser(
        "series", help="evaluate lattice sums directly",
        epilog="CSV columns: " + ",".join(_SERIES_CSV_COLUMNS),
    )
    sp.add_argument("--p", type=int, default=None, help="power of 1/(k^2-z^2)")
    sp.add_argument("--z", type=float, default=None)
    sp.add_argument("--n", default=None, help="integer lattice point(s)")
    sp.add_argument("--parity", choices=("all", "even", "odd"), default="all")
    sp.add_argument("--weighted", action="store_true",
                    help="k^2-weighted opposite-parity sum at --n")
    sp.add_argument("--removed-term", action="store_true", dest="removed_term",
                    help="all-k sum with the k=n term struck out: "
                         "limit formula vs extrapolation vs brute")
    add_common(sp)

    sp = sub.add_parser(
        "sweep", help="export brute-force convergence traces",
        epilog="CSV columns: " + ",".join(_SWEEP_CSV_COLUMNS),
    )
    sp.add_argument("--model", required=True, choices=("isw", "delta"))
    sp.add_argument("--rule", default="trk", choices=("closure", "trk", "monopole"))
    sp.add_argument("--n", default="1..4")
    add_common(sp)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    model = None
    if getattr(args, "model", None) is not None:
        model = ModelKind(args.model)
    n_values: tuple[int, ...] = ()
    if getattr(args, "n", None) is not None:
        n_values = _parse_int_grid(args.n)
    q_values: tuple[float, ...] = ()
    if getattr(args, "q", None) is not None:
        q_values = _parse_float_grid(args.q)
    series_mode = "plain"
    if getattr(args, "removed_term", False):
        series_mode = "removed_term"
    elif getattr(args, "weighted", False):
        series_mode = "weighted"
    return RunConfig(
        command=args.command,
        model=model,
        rule=getattr(args, "rule", "all"),
        n_values=n_values,
        q_values=q_values,
        F=getattr(args, "F", 1.0),
        tol=args.tol,
        kmax=args.kmax,
        fmt=args.fmt,
        out=args.out,
        p=getattr(args, "p", None),
        z=getattr(args, "z", None),
        parity=Parity(getattr(args, "parity", "all")),
        series_mode=series_mode,
    )


def _execute(cfg: RunConfig) -> tuple[list[dict], list[dict]]:
    if cfg.command == "verify":
        return _execute_verify(cfg)
    if cfg.command == "stark":
        return _execute_stark(cfg), []
    if cfg.command == "series":
        return _execute_series(cfg), []
    return _execute_sweep(cfg), []


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        rows, detail = _execute(cfg)
    except (UsageError, InvalidSpecError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SumRuleError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    text = _render(cfg, rows, detail)
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(cfg.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {cfg.out}: {exc}", file=sys.stderr)
            return 2
    return 0 if all(row["passed"] for row in rows) else 1

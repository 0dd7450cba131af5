"""Workload child process: closed-loop load, correctness gate, traced pass.

Run by `run.py` in a fresh interpreter per workload:

    python3 bench/load.py --workload NAME --seed N --seconds S --trace 0|1 --root DIR

It imports `sumrules` from DIR/src, runs the workload's fixed accuracy
panel (which also warms the process up), then sends one seeded request
at a time to `sumrules.cli.main` in-process and gates every report;
between requests it times the machine-speed reference (`speed.py`).  The
last stdout line is one JSON object of raw figures for `run.py`.  With
--trace 1 an untraced pass of S/2 seconds is replayed slice by slice
with the layer wrappers installed, and the replay must print the same
reports.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import imports  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# load slices per run, each preceded by one set-up sample
SLICES = 7


def _call(cli, argv) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call."""
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(argv) + ["--format", "json"])
    except SystemExit as exc:  # argparse rejects a request with exit 2
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed request; keep the loop running
        traceback.print_exc(file=sys.stderr)
        return 1, ""
    return code, buffer.getvalue()


class Tally:
    """Outcome of one pass as running counts and one float per latency.

    Only with keep=True, for the traced replay, does it also hold every
    request and a digest of its report; a timed pass keeps no per-request
    objects, so its memory does not grow with throughput.
    """

    def __init__(self, keep: bool = False) -> None:
        self.keep = keep
        self.requests: list = []
        self.digests: list[bytes] = []
        self.count = 0
        self.latencies = array.array("d")
        # reference times (speed.reference) taken during a timed pass
        self.reference = array.array("d")
        self.rows_expected = 0
        self.rows_done = 0
        self.rows_failed = 0
        self.requests_failed = 0
        self.bethe_rows = 0
        self.bound_rows = 0
        self.bound_violations = 0
        self.bound_worst = 0.0
        self.digits_min = math.inf

    def record(self, request, code: int, text: str, latency: float) -> None:
        self.count += 1
        self.latencies.append(latency)
        if self.keep:
            self.requests.append(request)
            self.digests.append(hashlib.blake2b(text.encode(), digest_size=16).digest())
        self.rows_expected += len(request.expect)
        if not text:
            if code == 0:
                raise gate.GateError(f"{' '.join(request.argv)}: exit 0 without output")
            # refused or crashed: every row it should have reported failed
            self.requests_failed += 1
            self.rows_failed += len(request.expect)
            return
        rows = gate.parse_report(text)
        gate.check(request, code, rows)
        self.rows_done += len(rows)
        for row in rows:
            self.rows_failed += not row["passed"]
            self.bethe_rows += row["rule"] == "bethe"
            ratio = gate.bound_ratio(row)
            if ratio is not None:
                self.bound_rows += 1
                self.bound_violations += ratio > 1.0
                self.bound_worst = max(self.bound_worst, ratio)
            digits = gate.digits(row)
            if digits is not None:
                self.digits_min = min(self.digits_min, digits)


def run_pass(cli, source, tally: Tally, seconds: float | None = None,
             tracer=None, sample_speed: bool = False) -> None:
    """Closed loop over `source` for `seconds`, or to its end.

    With sample_speed, the machine-speed reference is timed into
    tally.reference before the first request and every
    speed.INTERVAL_S seconds after, between requests.
    """
    start = time.perf_counter()
    next_sample = start
    for request in source:
        if sample_speed and time.perf_counter() >= next_sample:
            tally.reference.append(speed.reference())
            next_sample = time.perf_counter() + speed.INTERVAL_S
        if tracer is not None:
            tracer.request = tally.count
        t0 = time.perf_counter()
        code, text = _call(cli, request.argv)
        latency = time.perf_counter() - t0
        tally.record(request, code, text, latency)
        if seconds is not None and time.perf_counter() - start >= seconds:
            break


def sliced_load(cli, stream, seconds: float, root: str, sample_setup, tally: Tally,
                after_slice=None, sample_speed: bool = False) -> list:
    """Load `tally` for `seconds` in SLICES slices, one set-up sample before each.

    Interleaving spreads both measurements over the same stretch of the
    machine's varying speed, so neither sees only a fast or slow phase.
    `after_slice`, if given, receives the requests of each slice, which
    needs a tally that keeps them.  Returns the set-up samples.
    """
    imports.time_import(root)  # untimed: writes the bytecode cache
    setup = []
    for _ in range(SLICES):
        setup.append(sample_setup(root))
        first = len(tally.requests)
        run_pass(cli, stream, tally, seconds=seconds / SLICES, sample_speed=sample_speed)
        if after_slice is not None:
            after_slice(tally.requests[first:])
    return setup


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(panel: Tally, load: Tally, setup: list[float], rss_mb: float) -> dict:
    """Timings from the seeded load; accuracy from the fixed panel.

    Every timing is scaled by speed.factor, so that it reads as at the
    reference speed; the raw figures go to the summary line.
    checks_per_s divides by the summed request latencies, the program's
    own time, so the gate's cost between requests does not count.  Bound
    honesty is counted over every brute row of the run, panel and load.
    """
    tail_s, tail_pct = tail(load.latencies)
    scale = speed.factor(load.reference)
    raw = {
        "setup_s": statistics.median(setup),
        "checks_per_s": load.rows_done / sum(load.latencies),
        "request_p50_ms": statistics.median(load.latencies) * 1e3,
        "request_tail_ms": tail_s * 1e3,
    }
    bound_rows = panel.bound_rows + load.bound_rows
    violations = panel.bound_violations + load.bound_violations
    return {
        "setup_s": raw["setup_s"] * scale,
        "checks_per_s": raw["checks_per_s"] / scale,
        "request_p50_ms": raw["request_p50_ms"] * scale,
        "request_tail_ms": raw["request_tail_ms"] * scale,
        "pass_ratio": 1.0 - panel.rows_failed / panel.rows_expected,
        "bound_held_ratio": 1.0 - violations / bound_rows,
        "accuracy_digits_min": panel.digits_min,
        "peak_rss_mb": rss_mb,
        "_tail_percentile": tail_pct,
        "_raw": raw,
        "_reference_ms": statistics.median(load.reference) * 1e3,
        "_reference_samples": len(load.reference),
        "_requests": load.count,
        "_rows": load.rows_expected,
        "_failed_rows": load.rows_failed,
        "_panel_rows": panel.rows_expected,
        "_panel_failed_rows": panel.rows_failed,
        "_bound_rows": bound_rows,
        "_bound_violations": violations,
        "_bound_worst_ratio": max(panel.bound_worst, load.bound_worst),
    }


def traced_run(cli, workload: str, stream, seconds: float, root: str) -> tuple:
    """Untraced load for seconds/2, each slice replayed with wrappers on.

    Replaying slice by slice keeps the two timings of a request close in
    time.  Returns the untraced tally and the per-layer metrics.
    """
    tracer = tracing.Tracer()
    traced = Tally(keep=True)
    untraced = Tally(keep=True)

    def replay(requests):
        tracer.install()
        try:
            run_pass(cli, requests, traced, tracer=tracer)
        finally:
            tracer.uninstall()

    setup = sliced_load(cli, stream, seconds / 2, root, imports.import_breakdown,
                        untraced, after_slice=replay)
    if traced.digests != untraced.digests:
        raise gate.GateError("traced replay printed different reports than the untraced pass")
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as handle:
        called_on = json.load(handle)["called_on"]
    errors = tracing.coverage_errors(tracer, workload, called_on)
    if errors:
        raise gate.GateError("layer coverage: " + "; ".join(errors))
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, f"{workload}.spans.jsonl"))

    untraced_s = sum(untraced.latencies)
    metrics = tracing.layer_metrics(tracer, traced.count, traced.bethe_rows)
    metrics["trace.overhead_ratio"] = sum(traced.latencies) / untraced_s
    metrics["trace.requests"] = float(traced.count)
    for key in setup[0]:
        metrics[key] = statistics.median(sample[key] for sample in setup)
    return untraced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    args = parser.parse_args(argv)

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import sumrules
    from sumrules import cli

    if not os.path.abspath(sumrules.__file__).startswith(src + os.sep):
        print(f"error: imported {sumrules.__file__}, not the package under {src}",
              file=sys.stderr)
        return 2

    result: dict = {"attempted": 0, "failed": 0}
    try:
        panel = Tally()
        run_pass(cli, workloads.panel(args.workload), panel)
        stream = workloads.requests(args.workload, args.seed)
        if args.trace:
            tally, result["metrics"] = traced_run(cli, args.workload, stream,
                                                  args.seconds, args.root)
        else:
            rss_before_load = peak_rss_mb()
            tally = Tally()
            setup = sliced_load(cli, stream, args.seconds, args.root,
                                imports.time_import, tally, sample_speed=True)
            # read before the summary below sorts the latencies into a list
            rss = peak_rss_mb()
            result["metrics"] = end_to_end(panel, tally, setup, rss)
            result["metrics"]["_rss_before_load_mb"] = rss_before_load
        result.update(attempted=panel.count + tally.count,
                      failed=panel.requests_failed + tally.requests_failed)
    except gate.GateError as exc:
        print(f"gate: {exc}", file=sys.stderr)
        result["correct"] = False
        print(json.dumps(result))
        return 1
    result["correct"] = True
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

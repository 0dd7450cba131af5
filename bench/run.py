"""Benchmark of the `sumrules` checker: one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The load runs in a fresh child
process (`load.py`) with BLAS/OpenMP pinned to one thread; set-up is
timed as fresh interpreters importing `sumrules.cli` from ./src.
End-to-end timings are scaled to a reference machine speed (`speed.py`).
Human-readable lines come first; the last stdout line is one JSON object
with keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones from a traced replay.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# Every run must end within this many seconds, set-up included.
RUN_LIMIT_S = 175.0

SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    # sumrules reads its brute-sum term cap from here; the workloads
    # are defined at the default cap
    env.pop("SUMRULE_KMAX", None)
    return env


def run_child(root: str, env: dict, args, budget: float) -> dict:
    """Run the load child in its own process group and parse its result.

    On timeout the whole group is killed, set-up interpreters included,
    and reaped before returning.
    """
    cmd = [sys.executable, os.path.join(HERE, "load.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", root]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"load child exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    if proc.returncode != (0 if result.get("correct") else 1):
        raise RuntimeError(f"load child exited {proc.returncode} with {lines[-1]}")
    return result


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must lie in (0, 60]")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sumrules", "cli.py")):
        print(f"error: no sumrules source under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    env = child_env(root)
    try:
        result = run_child(root, env, args, RUN_LIMIT_S - (time.perf_counter() - started))
    except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    raw = result.get("metrics", {})
    units = metric_units(bool(args.trace)) if result["correct"] else {}
    missing = sorted(set(units) - set(raw))
    if missing:
        print(f"error: the run did not measure {', '.join(missing)}", file=sys.stderr)
        return 1
    if not args.trace and result["correct"]:
        print(f"{args.workload} seed {args.seed}: {raw['_requests']} requests, "
              f"{raw['_rows']} rows, {raw['_failed_rows']} rows failed; "
              f"panel {raw['_panel_rows']} rows, {raw['_panel_failed_rows']} failed; "
              f"tail = p{raw['_tail_percentile']:.1f} of {raw['_requests']} samples; "
              f"bound violations {raw['_bound_violations']} of {raw['_bound_rows']} "
              f"rows, worst at {raw['_bound_worst_ratio']:.3g} of its bound; "
              f"peak RSS before load {raw['_rss_before_load_mb']:.1f} MB")
        print(f"  speed reference: median {raw['_reference_ms']:.3f} ms over "
              f"{raw['_reference_samples']} samples; raw timings "
              + ", ".join(f"{k} {v:.6g}" for k, v in raw["_raw"].items()))
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": raw[name], "unit": unit}
        print(f"  {name:48s} {raw[name]:>14.6g} {unit}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

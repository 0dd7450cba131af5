"""Layer spans for the traced benchmark run.

Each layer's public function is wrapped by replacing its module
attribute, so every caller that looks the function up through its
module, inside the package too, goes through the wrapper.  A caller
that binds the function directly skips it; the coverage check in
`coverage_errors` turns that into a loud failure instead of a silent 0.

Wrappers are installed only for the traced pass and removed after it;
timed runs never see them.  Spans are (name, start, end, parent,
request) and stay in memory until `write_spans`.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  The quadrature wrapper also wraps the
# integrand it is handed; those spans are named INTEGRAND.
LAYERS = (
    ("sumrules.cli", "main", "cli.main"),
    ("sumrules.engine", "verify", "engine.verify"),
    ("sumrules.engine", "stark_verify", "engine.stark_verify"),
    ("sumrules.engine", "bethe_components", "engine.bethe_components"),
    ("sumrules.series", "brute_sum", "series.brute_sum"),
    ("sumrules.series", "sum_closed", "series.sum_closed"),
    ("sumrules.residue", "contour_integral_uhp", "residue.contour_integral_uhp"),
    ("sumrules.quadrature", "integrate_semi_inf", "quadrature.integrate_semi_inf"),
)
INTEGRAND = "delta.integrand"
SPAN_NAMES = tuple(name for _, _, name in LAYERS) + (INTEGRAND,)


class Tracer:
    """Records nested spans and per-layer counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.request = -1
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()  # terms, evaluations, unconverged
        self._open: list[tuple[int, list[float]]] = []  # (span index, child time)
        self._restore: list[tuple[object, str, object]] = []

    def _call(self, name: str, fn, args, kwargs):
        parent = self._open[-1][0] if self._open else -1
        index = len(self.spans)
        child = [0.0]
        self._open.append((index, child))
        start = time.perf_counter()
        span = [name, start, start, parent, self.request]
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            span[2] = end
            self._open.pop()
            duration = end - start
            self.self_s[name] += duration - child[0]
            self.calls[name] += 1
            if self._open:
                self._open[-1][1][0] += duration

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            result = self._call(name, fn, args, kwargs)
            if name == "series.brute_sum":
                self.counts["series.brute_sum.terms"] += result.terms_used
                self.counts["series.brute_sum.unconverged"] += not result.converged
            elif name == "quadrature.integrate_semi_inf":
                self.counts["quadrature.integrate_semi_inf.evaluations"] += result.evaluations
                self.counts["quadrature.integrate_semi_inf.unconverged"] += not result.converged
            return result

        if name == "quadrature.integrate_semi_inf":
            def traced_quadrature(f, *args, **kwargs):
                def integrand(k):
                    return self._call(INTEGRAND, f, (k,), {})
                return traced(integrand, *args, **kwargs)
            return traced_quadrature
        return traced

    def install(self) -> None:
        for module_name, attr, name in LAYERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, requests: int, bethe_rows: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass; work and time per request."""
    per_req = 1.0 / requests
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        if name not in (INTEGRAND, "cli.main"):  # cli.main is one call per request
            out[f"{name}.calls"] = tracer.calls[name] * per_req
        out[f"{name}.self_ms"] = tracer.self_s[name] * 1e3 * per_req
    terms = tracer.counts["series.brute_sum.terms"]
    out["series.brute_sum.terms"] = terms * per_req
    out["series.brute_sum.ns_per_term"] = (
        tracer.self_s["series.brute_sum"] * 1e9 / terms if terms else 0.0
    )
    out["series.brute_sum.unconverged"] = tracer.counts["series.brute_sum.unconverged"] * per_req
    residue = tracer.durations("residue.contour_integral_uhp")
    out["residue.contour_integral_uhp.ms_p50"] = (
        statistics.median(residue) * 1e3 if residue else 0.0
    )
    out["engine.bethe_components.calls_per_bethe_row"] = (
        tracer.calls["engine.bethe_components"] / bethe_rows if bethe_rows else 0.0
    )
    for key in ("evaluations", "unconverged"):
        name = f"quadrature.integrate_semi_inf.{key}"
        out[name] = tracer.counts[name] * per_req
    return out


def coverage_errors(tracer: Tracer, workload: str, called_on: dict[str, list[str]]) -> list[str]:
    """Layers whose call count contradicts the prediction for `workload`."""
    errors = []
    for name in SPAN_NAMES:
        predicted = workload in called_on[name]
        calls = tracer.calls[name]
        if predicted != (calls > 0):
            errors.append(
                f"{name}: {calls} calls on {workload}, predicted "
                f"{'some' if predicted else 'none'}"
            )
    return errors

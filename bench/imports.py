"""Set-up time: a fresh interpreter importing `sumrules.cli`.

A shell user pays this on every `sumrules` call, so it is measured on
its own, as wall time of a child interpreter, never inside the load.
The environment must already put the checkout's src/ on PYTHONPATH.
"""

from __future__ import annotations

import subprocess
import sys
import time


def time_import(root: str) -> float:
    """Wall seconds for a fresh interpreter to start and import sumrules.cli."""
    start = time.perf_counter()
    # no timeout here: waiting with one polls in steps of up to 50 ms,
    # which would quantize the sample; run.py bounds the whole run instead
    subprocess.run([sys.executable, "-c", "import sumrules.cli"], cwd=root, check=True)
    return time.perf_counter() - start


def import_breakdown(root: str) -> dict[str, float]:
    """Import seconds of numpy, scipy and sumrules' own modules, from -X importtime.

    Only the outermost import of numpy or scipy counts, so the three parts
    add up to the cumulative import time of sumrules.cli.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import sumrules.cli"],
        cwd=root, check=True, capture_output=True, text=True,
    )
    prefixes = ("numpy", "scipy", "sumrules")
    stack: list[tuple[int, dict[str, float]]] = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # header line
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        sums = dict.fromkeys(prefixes, 0.0)
        while stack and stack[-1][0] > depth:
            for key, value in stack.pop()[1].items():
                sums[key] += value
        for prefix in prefixes:
            if name == prefix or name.startswith(prefix + "."):
                if prefix != "sumrules":
                    # a dependency's lazy imports of the other (scipy
                    # pulling in numpy.testing) count as its own cost
                    sums = dict.fromkeys(prefixes, 0.0)
                sums[prefix] = int(cumulative) * 1e-6
        stack.append((depth, sums))
    totals = dict.fromkeys(prefixes, 0.0)
    for _, sums in stack:
        for key, value in sums.items():
            totals[key] += value
    # the sumrules entries enclose the numpy and scipy imports they trigger
    own = totals["sumrules"] - totals["numpy"] - totals["scipy"]
    return {"setup.numpy_s": totals["numpy"], "setup.scipy_s": totals["scipy"],
            "setup.sumrules_s": own}

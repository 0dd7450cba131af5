"""Regenerate the golden CLI transcript: stdout, stderr and exit code of
`sumrules` for each (argv, format) in CASES, run in-process.

    PYTHONPATH=src python tests/golden/regenerate.py

writes tests/golden/cli_transcript.json, which tests/test_golden.py
replays and diffs.  A change that regenerates it should say which argv
changed and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib

from sumrules import cli
from sumrules.core import KMAX_ENV_VAR

TRANSCRIPT = pathlib.Path(__file__).with_name("cli_transcript.json")
FORMATS = ("text", "json", "csv")

_README = (
    "verify --model isw",
    "verify --model delta --q 0.1,0.5,1,2,5,10",
    "stark --model isw --n 1..6",
    "stark --model delta --F 0.25",
    "series --p 3 --z 1.4 --parity even",
    "series --p 4 --n 1,3,5 --weighted",
    "series --n 2 --removed-term",
    "sweep --model isw --rule trk --n 1..4",
)
# 41 log-spaced q over [1e-4, 1e4], three to a request
_Q = [format(10.0 ** (i / 5 - 4), ".6g") for i in range(41)]
_BETHE = tuple(
    "verify --model delta --q " + ",".join(_Q[i:i + 3]) for i in range(0, len(_Q), 3)
)
_FIELDS = ("0", "1e-3", "-1e-3", "1", "-1", "1e3", "-1e3",
           "1e-200", "1e150", "1e154", "1e160", "1e300")
_STARK = tuple(
    f"stark --model {model} --F={F}" for model in ("isw", "delta") for F in _FIELDS
)
_TOLS = tuple(
    f"{command} --tol {tol}"
    for command in ("verify --model isw --n 1,2", "verify --model delta --q 1",
                    "stark --model isw --n 1,2", "stark --model delta")
    for tol in ("1e-2", "1e-3", "1e-12")
)
# rare paths, known failures included: a golden file records behaviour,
# it does not hide a defect by leaving the argv out
_RARE = (
    "verify --model isw --n 1000,100000",
    "verify --model delta --q 5e-324,1e-300,1e-4,1,1e4",
    "verify --model isw --rule trk --n 2 --kmax 1",
    "stark --model isw --n 2 --kmax 1",
    "sweep --model isw --rule trk --n 1,2 --kmax 1",
    "verify --model delta --q 1e300",
    "stark --model isw --n 1 --F 1e154",
    "stark --model isw --n 2 --F 1e154",
    "stark --model isw --n 1000 --F 1e151",
    "verify --model delta --q 0",
    "verify --model delta --q -1",
    "verify --model delta --q nan",
    "stark --model isw --tol 0",
    "stark --model delta --tol -1",
    "verify --model isw --tol nan",
    "verify --model isw --q 1",
    "verify --model delta --n 2",
    "verify --model isw --rule bethe",
    "verify --model isw --n 0",
    "verify --model isw --kmax 0",
    "stark --model delta --n 1",
    "sweep --model delta",
    "series --p 3 --z 1",
    "series --p 9 --z 0.5",
    "series --p 3",
)

# (argv, environment) pairs; most run in every format
CASES: list[tuple[str, dict[str, str]]] = [
    (f"{command} --format {fmt}", {})
    for command in _README + _BETHE + _STARK + _TOLS + _RARE
    for fmt in FORMATS
] + [
    # a Bethe q far above the bench range: one format is enough
    ("verify --model delta --q 1e10 --format json", {}),
] + [
    (f"{command} --format {fmt}", {KMAX_ENV_VAR: "1"})
    for command in ("verify --model isw --rule trk --n 2", "stark --model isw --n 1,2")
    for fmt in FORMATS
]


def run_case(argv: str) -> dict:
    """One in-process `sumrules` run of the space-separated `argv`, in
    the environment the caller set."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv.split())
    return {
        "exit": code,
        "stdout": out.getvalue().splitlines(keepends=True),
        "stderr": err.getvalue().splitlines(keepends=True),
    }


def main() -> None:
    saved = os.environ.pop(KMAX_ENV_VAR, None)
    records = []
    try:
        for argv, env in CASES:
            os.environ.update(env)
            try:
                records.append({"argv": argv, "env": env, **run_case(argv)})
            finally:
                for name in env:
                    del os.environ[name]
    finally:
        if saved is not None:
            os.environ[KMAX_ENV_VAR] = saved
    TRANSCRIPT.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} runs to {TRANSCRIPT}")


if __name__ == "__main__":
    main()

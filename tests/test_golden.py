"""Golden CLI transcript: every recorded (argv, format) run of `sumrules`
must reproduce its stdout, stderr and exit code byte for byte.

`PYTHONPATH=src python tests/golden/regenerate.py` rewrites the
transcript after a deliberate change of output.
"""

import json

from golden.regenerate import TRANSCRIPT, run_case

from sumrules.core import KMAX_ENV_VAR


def test_cli_matches_golden_transcript(monkeypatch):
    records = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    changed = []
    for record in records:
        monkeypatch.delenv(KMAX_ENV_VAR, raising=False)
        for name, value in record["env"].items():
            monkeypatch.setenv(name, value)
        got = run_case(record["argv"])
        want = {key: record[key] for key in ("exit", "stdout", "stderr")}
        if got != want:
            changed.append(record["argv"])
    assert changed == []
    assert len(records) > 200

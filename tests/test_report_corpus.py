"""Every report of the corpus in tests/report_digests.json, replayed in-process.

tools/record_reports.py records the corpus: each entry is a CLI request with
the exit code and the stdout digest (sha256, first 16 hex digits) it gave
when recorded.  A change that keeps reports byte-identical leaves every entry
passing; a change that alters a report must re-record it and say so.
"""

import hashlib
import json
from pathlib import Path

import pytest

from delpezzo.cli import main

CORPUS = json.loads((Path(__file__).resolve().parent / "report_digests.json").read_text())


@pytest.mark.parametrize("entry", CORPUS, ids=[e["name"] for e in CORPUS])
def test_report_matches_the_recorded_digest(capsys, monkeypatch, entry):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    code = main(list(entry["argv"]))
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()[:16]) == (entry["exit"], entry["digest"])

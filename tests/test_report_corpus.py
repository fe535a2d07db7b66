"""Every report of the corpus in tests/report_digests.json, replayed in-process
through `record_reports.replay`, as the recorder and tools/corpus_coverage.py
replay it.

tools/record_reports.py records the corpus: each entry is a CLI request with
the exit code and the stdout digest (sha256, first 16 hex digits) it gave
when recorded.  A change that keeps reports byte-identical leaves every entry
passing; a change that alters a report must re-record it and say so.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import record_reports  # noqa: E402

CORPUS = json.loads((ROOT / "tests" / "report_digests.json").read_text())


def test_the_corpus_holds_every_request_of_its_recorder():
    """A request added but never recorded, or an entry edited by hand, fails."""
    assert [(e["name"], e["argv"]) for e in CORPUS] == [(name, list(argv)) for name, argv in record_reports.requests()]


@pytest.mark.parametrize("entry", CORPUS, ids=[e["name"] for e in CORPUS])
def test_report_matches_the_recorded_digest(entry):
    assert record_reports.replay(entry["argv"]) == (entry["exit"], entry["digest"])

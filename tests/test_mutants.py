"""tools/mutants.py refuses a mutant whose snippet is gone before it starts
any pytest child; the committed table names code that still exists."""

import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import mutants  # noqa: E402


def test_a_mutant_whose_snippet_is_gone_exits_1(monkeypatch, capsys):
    def no_child(*args, **kwargs):
        raise AssertionError(f"started {args[0]}")

    monkeypatch.setattr(subprocess, "run", no_child)
    monkeypatch.setattr(mutants, "MUTANTS", {
        "gone": ("weyl.py", "a snippet that is not in weyl.py", "", ("tests/test_weyl.py::test_close_group_orders",)),
        **{name: mutants.MUTANTS[name] for name in list(mutants.MUTANTS)[:2]},
    })
    assert mutants.main() == 1
    out = capsys.readouterr().out
    assert out.splitlines() == ["mutants: gone: its snippet is not found exactly once in src/delpezzo/weyl.py"]


def test_every_committed_snippet_is_found_once():
    assert mutants.missing(mutants.MUTANTS) == []
